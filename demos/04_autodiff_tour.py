#!/usr/bin/env python3
"""A tour of the reverse-mode tape and the training objective built on it.

The tape is a small vectorized autodiff: float64 arrays, a dozen
operations, one backward pass.  Training records its whole objective as
one tape Node whose gradient replays the op-by-op chain in closed form,
and the tape's ops are the reference that replay is checked against.
This demo builds graphs by hand, checks gradients against central
finite differences, and shows the two design details that matter most
here — the bit-exact select used by variance dropout, and the
nonnegative weight clamp that keeps the MLP variant monotone.

Run:  python3 demos/04_autodiff_tour.py          (~1 s)
"""

import numpy as np
from numpy.random import default_rng

from cogdiag import ParameterStore, grad_check, planted_cohort, build_dataset
from cogdiag import tape

print("=== 1. a tiny graph, backward by hand vs by tape ===")
w = tape.Node(np.array([0.4, -1.2]))
x = np.array([2.0, 0.5])
y = tape.nsum(tape.sigmoid(tape.mul(w, x)))  # sum(sigmoid(w * x))
tape.backprop(y)
manual = x * (1 / (1 + np.exp(-w.value * x))) * (1 - 1 / (1 + np.exp(-w.value * x)))
print(f"tape grad   {w.grad}")
print(f"manual grad {manual}")
assert np.allclose(w.grad, manual, atol=1e-12)

print()
print("=== 2. finite differences agree on a composite objective ===")
store = ParameterStore()
store.add("theta", default_rng(0).normal(size=(3, 2)))


def objective(s):
    leaf = s.leaf("theta")
    return tape.nmean(tape.square(tape.sigmoid(leaf) - 0.25))


err = grad_check(objective, store)
print(f"max relative error vs central differences: {err:.2e}")

print()
print("=== 3. the same check on the real training objective ===")
from cogdiag.diagnostics import DiagnosticFunction, init_parameters
from cogdiag.seeding import substream
from cogdiag.training import CorrectnessTracker, TrainConfig, build_batch_graph, draw_batch_noise

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
    dataset, fn, config, batch, tracker,
    substream(1, "sampling"), substream(1, "dropout"), substream(1, "pairing"),
)
root = build_batch_graph(dataset, fn, model, batch, config, noise, None)[0]
print(f"the objective is one Node over {len(root.parents)} parameter leaves")
err = grad_check(lambda s: build_batch_graph(dataset, fn, s, batch, config, noise, None)[0], model)
print(f"full objective (prediction + KL + hinge), every parameter: {err:.2e}")

print()
print("=== 4. bit-exact masking: why dropout is a select ===")
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
print("=== 5. monotonicity by construction in the MLP variant ===")
from cogdiag.diagnostics import clamp_ncd_weights, mlp_layers, predict_ncd

clamp_ncd_weights(model)
layers = mlp_layers(model)
diff = np.full(3, 0.5)
disc = np.full(3, 0.8)
q = np.array([1.0, 1.0, 0.0])
low, high = np.full(3, 0.2), np.full(3, 0.9)
p_low = predict_ncd(low[None], diff[None], disc[None], q[None], layers)[0]
p_high = predict_ncd(high[None], diff[None], disc[None], q[None], layers)[0]
print(f"p(correct) with low mastery  {p_low:.4f}")
print(f"p(correct) with high mastery {p_high:.4f}")
print("after clamping the weights nonnegative, more mastery can never")
print("lower the predicted success probability.")
assert p_high >= p_low
