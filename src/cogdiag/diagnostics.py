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

Each predictor is one forward formula on arrays, shared by inference and
training.  With ``vjp=True`` it also returns its gradient function, which
replays the backward pass of the one-op tape chain the formula stands
for, op for op; the training objective chains these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .latent import STUDENT_LOGVAR, STUDENT_MEAN
from .numerics import ParameterStore, stable_sigmoid, xavier_init
from .tape import _unbroadcast

EXERCISE_DIFF = "exercise_diff"
EXERCISE_DISC = "exercise_disc"
MLP_PARAMS = ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2", "mlp_w3", "mlp_b3")
MLP_WEIGHTS = MLP_PARAMS[::2]

VARIANTS = ("irt", "mirt", "ncd")


@dataclass
class DiagnosticFunction:
    variant: str
    irt_scale: float = 1.702
    mlp_hidden: tuple[int, int] = (512, 256)

    def __post_init__(self):
        problems = []
        if self.variant not in VARIANTS:
            problems.append(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not (0 < self.irt_scale < math.inf):
            problems.append(f"irt_scale must be positive and finite, got {self.irt_scale}")
        if len(self.mlp_hidden) != 2 or not all(h >= 1 for h in self.mlp_hidden):
            problems.append(f"mlp_hidden needs two positive sizes, got {self.mlp_hidden}")
        if problems:
            raise ValueError("; ".join(problems))

    def latent_dim(self, n_concepts: int) -> int:
        """IRT keeps a single scalar ability; the others go per concept."""
        return 1 if self.variant == "irt" else n_concepts

    def cells(self, dataset) -> tuple[np.ndarray, np.ndarray]:
        """Latent cells each exercise touches, CSR (ptr, idx): its concepts, or IRT's slot 0."""
        if self.variant == "irt":
            return np.arange(dataset.n_exercises + 1), np.zeros(dataset.n_exercises, dtype=np.int64)
        return dataset.concept_ptr, dataset.concept_idx


def parameter_layout(
    fn: DiagnosticFunction, n_students: int, n_exercises: int, n_concepts: int
) -> list[tuple[str, tuple[int, ...], bool]]:
    """(name, shape, row_sparse) of every parameter, in initialization order.

    Embedding matrices are row_sparse, so the trainer can use lazy Adam
    updates on them; MLP weights and biases stay dense.
    """
    d = fn.latent_dim(n_concepts)
    layout = [
        (STUDENT_MEAN, (n_students, d), True),
        (STUDENT_LOGVAR, (n_students, d), True),
        (EXERCISE_DIFF, (n_exercises, d), True),
        (EXERCISE_DISC, (n_exercises, 1), True),
    ]
    if fn.variant == "ncd":
        widths = (d, *fn.mlp_hidden, 1)
        for k in range(1, 4):
            layout.append((f"mlp_w{k}", (widths[k - 1], widths[k]), False))
            layout.append((f"mlp_b{k}", (widths[k],), False))
    return layout


def init_parameters(
    fn: DiagnosticFunction,
    n_students: int,
    n_exercises: int,
    n_concepts: int,
    rng: np.random.Generator,
) -> ParameterStore:
    """Fresh store with every matrix Xavier-initialized, biases zero.

    The matrices draw from ``rng`` in :func:`parameter_layout` order.
    """
    store = ParameterStore()
    for name, shape, row_sparse in parameter_layout(fn, n_students, n_exercises, n_concepts):
        value = xavier_init(*shape, rng) if len(shape) == 2 else np.zeros(shape)
        store.add(name, value, row_sparse=row_sparse)
    return store


def predict_irt(theta, difficulty, discrimination, scale: float = 1.702, vjp: bool = False):
    """sigmoid(scale * discrimination * (theta - difficulty)), elementwise.

    ``vjp=True`` also returns ``g -> (d gap, d discrimination)``, where
    gap = theta - difficulty, through the mul -> mul -> sigmoid chain.
    """
    gap = theta - difficulty
    y = stable_sigmoid(gap * discrimination * scale)
    if not vjp:
        return y

    def grads(g):
        g = g * y * (1.0 - y) * scale
        return (
            _unbroadcast(g * discrimination, np.shape(gap)),
            _unbroadcast(g * gap, np.shape(discrimination)),
        )

    return y, grads


def predict_mirt(theta, difficulty, q_mask, vjp: bool = False):
    """sigmoid of the concept-masked sum of (theta - difficulty).

    ``vjp=True`` also returns ``g -> (d gap,)``, where gap = theta -
    difficulty, through the mul -> sum -> sigmoid chain.
    """
    y = stable_sigmoid(((theta - difficulty) * q_mask).sum(axis=-1))
    if not vjp:
        return y

    def grads(g):
        g = np.expand_dims(g * y * (1.0 - y), -1)
        gap_shape = np.broadcast_shapes(np.shape(theta), np.shape(difficulty))
        return (_unbroadcast(g * q_mask, gap_shape),)

    return y, grads


def predict_ncd(theta, difficulty, discrimination, q_mask, layers, vjp: bool = False):
    """Masked interaction vector through a 3-layer sigmoid MLP.

    ``layers`` is [(w1, b1), (w2, b2), (w3, b3)].  ``discrimination``
    broadcasts over the concept axis, so pass it as (B, 1) for batches.
    Output drops the trailing unit axis.  Only ``vjp=True`` keeps each
    layer's input, for the backward pass; it takes (B, K) batches and
    also returns ``g -> (d gap, d discrimination, d w1, d b1, d w2, d b2,
    d w3, d b3)``, where gap = theta - difficulty: back through the sum,
    then sigmoid, bias add and matmul per layer, then the two masking muls.
    """
    x = (theta - difficulty) * q_mask * discrimination
    inputs = []
    for w, b in layers:
        if vjp:
            inputs.append(x)
        x = stable_sigmoid(x @ w + b)
    squeeze = np.shape(x)[-1:] == (1,)
    y = x.sum(axis=-1) if squeeze else x
    if not vjp:
        return y

    def grads(g):
        if squeeze:
            g = np.expand_dims(g, -1)
        out, layer_grads = x, []
        for (w, b), x_in in zip(reversed(layers), reversed(inputs)):
            g = g * out * (1.0 - out)
            layer_grads[:0] = [x_in.T @ g, _unbroadcast(g, np.shape(b))]
            g = g @ w.T
            out = x_in
        gap = theta - difficulty  # recomputed, so value mode holds no extra (B, K) arrays
        masked = gap * q_mask
        return (
            _unbroadcast(_unbroadcast(g * discrimination, masked.shape) * q_mask, gap.shape),
            _unbroadcast(g * masked, np.shape(discrimination)),
            *layer_grads,
        )

    return y, grads


def mlp_layers(store: ParameterStore):
    """The store's MLP arrays as [(w1, b1), (w2, b2), (w3, b3)]."""
    w1, b1, w2, b2, w3, b3 = (store.params[name] for name in MLP_PARAMS)
    return [(w1, b1), (w2, b2), (w3, b3)]


def clamp_ncd_weights(store: ParameterStore) -> None:
    """Project MLP weight matrices onto the nonnegative orthant, in place.

    Run after every optimizer step; biases are left free.
    """
    for name in MLP_WEIGHTS:
        w = store.params[name]
        np.maximum(w, 0.0, out=w)
