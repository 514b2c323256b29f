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

Each predictor is one forward formula on arrays, which inference and
training reach through ``DiagnosticFunction.predict``, the one place that
picks the head.  It returns the probabilities with their gradient
function, which replays the backward pass of the one-op reference chain
the formula stands for (``tests/reftape.py``), op for op; the training
objective chains these, and serving keeps only the probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .latent import STUDENT_LOGVAR, STUDENT_MEAN
from .numerics import ParameterStore, stable_sigmoid, xavier_init

EXERCISE_DIFF = "exercise_diff"
EXERCISE_DISC = "exercise_disc"
MLP_PARAMS = ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2", "mlp_w3", "mlp_b3")
MLP_WEIGHTS = MLP_PARAMS[::2]

VARIANTS = ("irt", "mirt", "ncd")
IRT_SCALE = 1.702


@dataclass
class DiagnosticFunction:
    variant: str
    mlp_hidden: tuple[int, int] = (512, 256)

    def __post_init__(self):
        problems = []
        if self.variant not in VARIANTS:
            problems.append(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if len(self.mlp_hidden) != 2 or not all(type(h) is int and h >= 1 for h in self.mlp_hidden):
            problems.append(f"mlp_hidden needs two positive int sizes, got {self.mlp_hidden}")
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

    def cell_labels(self, concept_ids: list[str]) -> list[str]:
        """One label per latent cell: the concept ids, or IRT's single "overall"."""
        return ["overall"] if self.variant == "irt" else concept_ids

    def q_rows(self, dataset, exercises: np.ndarray) -> np.ndarray | None:
        """The concept-mask rows :meth:`predict` reads for ``exercises``; IRT reads none."""
        return None if self.variant == "irt" else dataset.dense_q[exercises]

    def predict(self, theta, difficulty, discrimination, q_mask, model):
        """(B,) correctness probabilities of a batch under this head, and their gradient function.

        ``theta`` and ``difficulty`` are (B, latent), ``discrimination``
        is (B, 1) (mirt ignores it) and ``q_mask`` is :meth:`q_rows`.
        ``model`` is anything with ``params``, a store or a checkpoint;
        only ncd reads it, for the MLP.  The gradient function takes (B,)
        and returns d gap, then d discrimination and the MLP's grads
        where they train.
        """
        if self.variant == "mirt":
            return predict_mirt(theta, difficulty, q_mask)
        if self.variant == "ncd":
            return predict_ncd(theta, difficulty, discrimination, q_mask, mlp_layers(model))
        # irt forms a (B, 1) column: its single latent cell
        y, grads = predict_irt(theta, difficulty, discrimination)
        return y[:, 0], lambda g: grads(g[:, None])


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


def predict_irt(theta, difficulty, discrimination):
    """sigmoid(IRT_SCALE * discrimination * (theta - difficulty)), elementwise.

    Also returns ``g -> (d gap, d discrimination)``, where gap = theta -
    difficulty, through the mul -> mul -> sigmoid chain.  It takes
    theta, difficulty, discrimination and ``g`` of one shape, (B, 1) in
    training.
    """
    gap = theta - difficulty
    y = stable_sigmoid(gap * discrimination * IRT_SCALE)

    def grads(g):
        g = g * y * (1.0 - y) * IRT_SCALE
        return g * discrimination, g * gap

    return y, grads


def predict_mirt(theta, difficulty, q_mask):
    """sigmoid of the concept-masked sum of (theta - difficulty).

    Also returns ``g -> (d gap,)``, where gap = theta - difficulty,
    through the mul -> sum -> sigmoid chain.  It takes theta, difficulty
    and ``q_mask`` at (B, K) and ``g`` at (B,).
    """
    y = stable_sigmoid(((theta - difficulty) * q_mask).sum(axis=-1))

    def grads(g):
        return (np.expand_dims(g * y * (1.0 - y), -1) * q_mask,)

    return y, grads


def predict_ncd(theta, difficulty, discrimination, q_mask, layers):
    """Masked interaction vector through a 3-layer sigmoid MLP.

    ``layers`` is [(w1, b1), (w2, b2), (w3, b3)], the last one unit
    wide; the output sums that unit axis away.  Each layer's input is
    kept for the backward pass.  It takes theta, difficulty and
    ``q_mask`` at (B, K), ``discrimination`` at (B, 1) and ``g`` at (B,),
    and also returns ``g -> (d gap, d discrimination, d w1, d b1, d w2,
    d b2, d w3, d b3)``, where gap = theta - difficulty: back through the
    sum, then sigmoid, bias add and matmul per layer, then the two
    masking muls.
    """
    masked = (theta - difficulty) * q_mask
    x = masked * discrimination
    inputs = []
    for w, b in layers:
        inputs.append(x)
        h = x @ w
        h += b  # in place: one block temporary fewer per layer
        x = stable_sigmoid(h)
    y = x.sum(axis=-1)

    def grads(g):
        g = np.expand_dims(g, -1)
        out, layer_grads = x, []
        for (w, b), x_in in zip(reversed(layers), reversed(inputs)):
            g = g * out * (1.0 - out)
            layer_grads[:0] = [x_in.T @ g, g.sum(axis=0)]
            g = g @ w.T
            out = x_in
        return g * discrimination * q_mask, (g * masked).sum(axis=1, keepdims=True), *layer_grads

    return y, grads


def mlp_layers(model):
    """The MLP arrays in ``model.params`` as [(w1, b1), (w2, b2), (w3, b3)]."""
    w1, b1, w2, b2, w3, b3 = (model.params[name] for name in MLP_PARAMS)
    return [(w1, b1), (w2, b2), (w3, b3)]


def clamp_ncd_weights(store: ParameterStore) -> None:
    """Project MLP weight matrices onto the nonnegative orthant, in place.

    Run after every optimizer step; biases are left free.
    """
    for name in MLP_WEIGHTS:
        w = store.params[name]
        np.maximum(w, 0.0, out=w)
