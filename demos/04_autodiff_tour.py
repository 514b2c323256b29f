#!/usr/bin/env python3
"""A tour of the closed-form gradients behind training.

Training differentiates one objective: binary cross-entropy, a KL toward
the prior and the calibration hinge.  Each piece, the diagnostic heads
too, returns its value and its vector-Jacobian product, and a training
step records the whole objective as one Node over the parameter leaves
it reads; one call of that Node's VJP hands the store one gradient
block per parameter.  This demo checks that gradient against central finite
differences, then shows the two design details that matter most here —
the bit-exact select used by variance dropout, and the nonnegative
weight clamp that keeps the MLP variant monotone.

Run:  python3 demos/04_autodiff_tour.py          (~1 s)
"""

import numpy as np
from numpy.random import default_rng

from cogdiag import build_dataset, grad_check, planted_cohort, predict_irt
from cogdiag import tape
from cogdiag.diagnostics import DiagnosticFunction, init_parameters
from cogdiag.seeding import substream
from cogdiag.training import CorrectnessTracker, TrainConfig, build_batch_graph, draw_batch_noise

print("=== 1. one formula, its gradient by hand and in closed form ===")
theta, difficulty, discrimination = np.array([0.4, 0.9]), np.array([0.5, 0.2]), np.array([0.7, 1.3])
y, vjp = predict_irt(theta, difficulty, discrimination)
g_gap, _ = vjp(np.ones_like(y))  # d sum(y) / d (theta - difficulty)
manual = y * (1 - y) * 1.702 * discrimination
print(f"closed-form grad {g_gap}")
print(f"manual grad      {manual}")
assert np.allclose(g_gap, manual, atol=1e-12)

print()
print("=== 2. the training objective: one Node, checked by finite differences ===")
cohort = planted_cohort(n_students=8, n_exercises=12, n_concepts=3, per_student=8, seed=1)
dataset = build_dataset(cohort.logs, cohort.q_pairs, min_logs=1)
fn = DiagnosticFunction("ncd", mlp_hidden=(4, 3))
config = TrainConfig(seed=1, batch_size=8)
model = init_parameters(fn, dataset.n_students, dataset.n_exercises, dataset.n_concepts, default_rng(1))
tracker = CorrectnessTracker(dataset.n_students, dataset.n_concepts)
tracker.seen[:] = 2
tracker.hits[:] = 1
batch = np.arange(8)
noise = draw_batch_noise(
    dataset, fn.cells(dataset), config, batch, tracker,
    substream(1, "sampling"), substream(1, "dropout"), substream(1, "pairing"),
)
root = build_batch_graph(dataset, fn, model, batch, config, noise, None)[0]
print(f"the objective is one Node over {len(root.parents)} parameter leaves")


def objective(store, backward):
    total, breakdown, _ = build_batch_graph(dataset, fn, store, batch, config, noise, None)
    if backward:
        tape.backprop(total)  # one VJP call, each leaf's gradient block handed to the store
    return breakdown.total


err = grad_check(objective, model)
print(f"full objective (prediction + KL + hinge), every parameter: {err:.2e}")
assert err < 1e-4

print()
print("=== 3. bit-exact masking: why dropout is a select ===")
from cogdiag.latent import apply_dropout_mask

variance = np.array([0.01, 0.7, 0.3])
keep = np.array([True, False, True])
alpha = 0.03
masked = apply_dropout_mask(variance, keep, alpha)
algebraic = keep * (variance - alpha) + alpha
print(f"apply_dropout_mask:     {masked!r}")
print(f"algebraic equivalent:   {algebraic!r}")
print(f"kept entries unchanged bit for bit: {masked[0] == variance[0]}")
print(f"the algebraic form mask*(v-a)+a drifts: {algebraic[0] != variance[0]} "
      f"(got {algebraic[0]!r})")
assert masked[0] == variance[0] and algebraic[0] != variance[0]

print()
print("=== 4. monotonicity by construction in the MLP variant ===")
from cogdiag.diagnostics import clamp_ncd_weights, mlp_layers, predict_ncd

clamp_ncd_weights(model)
layers = mlp_layers(model)
diff = np.full(3, 0.5)
disc = np.full(3, 0.8)
q = np.array([1.0, 1.0, 0.0])
low, high = np.full(3, 0.2), np.full(3, 0.9)
p_low = predict_ncd(low[None], diff[None], disc[None], q[None], layers)[0][0]
p_high = predict_ncd(high[None], diff[None], disc[None], q[None], layers)[0][0]
print(f"p(correct) with low mastery  {p_low:.4f}")
print(f"p(correct) with high mastery {p_high:.4f}")
print("after clamping the weights nonnegative, more mastery can never")
print("lower the predicted success probability.")
assert p_high >= p_low
