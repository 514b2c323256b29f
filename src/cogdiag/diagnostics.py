"""Diagnostic functions: how mastery meets an exercise.

Three interchangeable predictors map (mastery, exercise params) to a
correctness probability:

* ``irt``: scalar logistic response with the classic 1.702 scale that
  aligns the logistic curve with the probit one.
* ``mirt``: multidimensional extension; the exercise's concept mask
  picks which dimensions contribute, discrimination fixed at one.
* ``ncd``: the masked interaction vector feeds a tiny MLP whose weights
  are clamped nonnegative after every optimizer step, which keeps
  "more mastery never hurts" true layer by layer.

Exercise difficulty and discrimination live as free rows squashed
through a sigmoid, so both stay in (0, 1) without constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tape
from .latent import STUDENT_LOGVAR, STUDENT_MEAN
from .numerics import ParameterStore, stable_sigmoid, xavier_init
from .tape import _unbroadcast, value_of

EXERCISE_DIFF = "exercise_diff"
EXERCISE_DISC = "exercise_disc"
MLP_PARAMS = ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2", "mlp_w3", "mlp_b3")
MLP_WEIGHTS = ("mlp_w1", "mlp_w2", "mlp_w3")

VARIANTS = ("irt", "mirt", "ncd")


@dataclass
class DiagnosticFunction:
    variant: str
    irt_scale: float = 1.702
    mlp_hidden: tuple[int, int] = (512, 256)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.irt_scale <= 0:
            raise ValueError(f"irt_scale must be positive, got {self.irt_scale}")
        if len(self.mlp_hidden) != 2 or any(h < 1 for h in self.mlp_hidden):
            raise ValueError(f"mlp_hidden needs two positive sizes, got {self.mlp_hidden}")

    def latent_dim(self, n_concepts: int) -> int:
        """IRT keeps a single scalar ability; the others go per concept."""
        return 1 if self.variant == "irt" else n_concepts


@dataclass
class ExerciseParams:
    difficulty: np.ndarray  # (d,) in (0, 1)
    discrimination: float   # in (0, 1)


def init_parameters(
    fn: DiagnosticFunction,
    n_students: int,
    n_exercises: int,
    n_concepts: int,
    rng: np.random.Generator,
) -> ParameterStore:
    """Fresh store with every matrix Xavier-initialized, biases zero.

    Embedding matrices are registered row_sparse so the trainer can use
    lazy Adam updates on them; MLP weights stay dense.
    """
    d = fn.latent_dim(n_concepts)
    store = ParameterStore()
    store.add(STUDENT_MEAN, xavier_init(n_students, d, rng), row_sparse=True)
    store.add(STUDENT_LOGVAR, xavier_init(n_students, d, rng), row_sparse=True)
    store.add(EXERCISE_DIFF, xavier_init(n_exercises, d, rng), row_sparse=True)
    store.add(EXERCISE_DISC, xavier_init(n_exercises, 1, rng), row_sparse=True)
    if fn.variant == "ncd":
        h1, h2 = fn.mlp_hidden
        store.add("mlp_w1", xavier_init(d, h1, rng))
        store.add("mlp_b1", np.zeros(h1))
        store.add("mlp_w2", xavier_init(h1, h2, rng))
        store.add("mlp_b2", np.zeros(h2))
        store.add("mlp_w3", xavier_init(h2, 1, rng))
        store.add("mlp_b3", np.zeros(1))
    return store


def exercise_params(store: ParameterStore, exercise: int) -> ExerciseParams:
    diff = store.params[EXERCISE_DIFF]
    if not (0 <= exercise < diff.shape[0]):
        raise IndexError(f"exercise index {exercise} out of range [0, {diff.shape[0]})")
    return ExerciseParams(
        difficulty=np.asarray(stable_sigmoid(diff[exercise])),
        discrimination=float(stable_sigmoid(store.params[EXERCISE_DISC][exercise, 0])),
    )


def predict_irt(theta, difficulty, discrimination, scale: float = 1.702):
    """sigmoid(scale * discrimination * (theta - difficulty)), elementwise.

    With Node inputs this is a single graph node whose gradient replays
    the sub -> mul -> mul -> sigmoid chain, broadcasting included, so it
    matches the composed tape ops to the bit.
    """
    tv, dv, av = value_of(theta), value_of(difficulty), value_of(discrimination)
    gap = tv - dv
    weighted = gap * av
    yv = tape.sigmoid(weighted * scale)

    def grads(g):
        g_weighted = _unbroadcast(g * yv * (1.0 - yv) * scale, weighted.shape)
        g_gap = _unbroadcast(g_weighted * av, gap.shape)
        # the chain reaches discrimination before theta and difficulty
        return (
            _unbroadcast(g_weighted * gap, av.shape),
            _unbroadcast(g_gap, tv.shape),
            _unbroadcast(-g_gap, dv.shape),
        )

    return tape.fused(yv, (discrimination, theta, difficulty), grads)


def predict_mirt(theta, difficulty, q_mask):
    """sigmoid of the concept-masked sum of (theta - difficulty).

    With Node inputs this is a single graph node replaying the composed
    ops' backward pass; ``q_mask`` is data and gets no gradient.
    """
    tv, dv, qv = value_of(theta), value_of(difficulty), value_of(q_mask)
    gap = tv - dv
    masked = gap * qv
    yv = tape.sigmoid(masked.sum(axis=-1))

    def grads(g):
        g = np.expand_dims(np.asarray(g * yv * (1.0 - yv)), -1)
        g_gap = _unbroadcast(np.broadcast_to(g, masked.shape).copy() * qv, gap.shape)
        return _unbroadcast(g_gap, tv.shape), _unbroadcast(-g_gap, dv.shape)

    return tape.fused(yv, (theta, difficulty), grads)


def predict_ncd(theta, difficulty, discrimination, q_mask, layers):
    """Masked interaction vector through a 3-layer sigmoid MLP.

    ``layers`` is [(w1, b1), (w2, b2), (w3, b3)]; entries may be Nodes.
    ``discrimination`` broadcasts over the concept axis, so pass it as
    (B, 1) for batches.  Output drops the trailing unit axis.
    """
    x = tape.mul(tape.mul(tape.sub(theta, difficulty), q_mask), discrimination)
    for w, b in layers:
        x = tape.sigmoid(tape.add(tape.matmul(x, w), b))
    out_shape = np.shape(tape.value_of(x))
    if out_shape and out_shape[-1] == 1:
        x = tape.nsum(x, axis=-1)
    return x


def mlp_layers(store: ParameterStore, as_nodes: bool):
    pick = store.leaf if as_nodes else store.params.__getitem__
    return [
        (pick("mlp_w1"), pick("mlp_b1")),
        (pick("mlp_w2"), pick("mlp_b2")),
        (pick("mlp_w3"), pick("mlp_b3")),
    ]


def clamp_ncd_weights(store: ParameterStore) -> None:
    """Project MLP weight matrices onto the nonnegative orthant, in place.

    Run after every optimizer step; biases are left free.
    """
    for name in MLP_WEIGHTS:
        w = store.params[name]
        np.maximum(w, 0.0, out=w)
