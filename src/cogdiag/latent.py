"""Gaussian mastery states and the regularizers that shape them.

Each student holds an independent Gaussian per latent dimension:
mean mu and variance sigma^2 = exp(logvar).  Mastery used by the
predictors is theta = sigmoid(z) with z drawn by the usual location-
scale reparameterization, so gradients flow through both mean and
variance.  The variance doubles as a confidence readout: small means
the model has settled, large means it is still guessing.

The helpers below work on plain ndarrays.  Those the training objective
differentiates return their value with its gradient function, which
replays the backward pass of the one-op reference chain in
``tests/reftape.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import EXP_CLAMP, LOG_FLOOR, stable_sigmoid

STUDENT_MEAN = "student_mu"
STUDENT_LOGVAR = "student_logvar"


@dataclass
class PriorConsensus:
    """Population prior the consensus KL pulls toward; unit variance."""

    mean: np.ndarray


STANDARD_PRIOR = PriorConsensus(mean=np.zeros(()))  # phase one's N(0, I)


def variance_from_logvar(logvar):
    """sigma^2 = exp(logvar), with logvar clipped to +-``numerics.EXP_CLAMP`` as training reads it."""
    return np.exp(np.minimum(np.maximum(logvar, -EXP_CLAMP), EXP_CLAMP))  # np.clip's bits, fewer calls


def dropout_mask(shape, keep_probability: float, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli variance dropout's boolean keep-mask; all ones at ``keep_probability = 1``."""
    return rng.random(shape) < keep_probability


def apply_dropout_mask(variance, mask: np.ndarray, alpha: float):
    """Kept entries pass through bit-exact; dropped ones become exactly alpha.

    A select rather than ``mask * (variance - alpha) + alpha``, which
    picks up rounding on the kept entries.
    """
    return np.where(mask, variance, alpha)


def draw_ability(mean, variance, eps: np.ndarray):
    """theta = sigmoid(mean + sqrt(variance) * eps) with its gradient function.

    The gradient function, ``g -> (d mean, d variance)``, takes mean,
    variance and eps of one shape, (B, d) in training, and ``g`` of that
    shape.  It replays the backward pass of the sqrt -> mul -> add ->
    sigmoid reference chain op for op, so gradients match the composed
    ops to the bit.  ``eps`` is data and gets no gradient.
    """
    sd = np.sqrt(variance)
    theta = stable_sigmoid(mean + sd * eps)
    safe = np.maximum(sd, 1e-150)

    def grads(g):
        g = g * theta * (1.0 - theta)
        return g, g * eps * 0.5 / safe

    return theta, grads


def kl_consensus(mean, variance, prior: PriorConsensus):
    """KL(N(mean, variance) || N(prior.mean, I)), summed over the trailing axis.

    0.5 * sum((mean - prior.mean)^2 + variance - log(variance) - 1) per
    occurrence, with the log argument floored at ``numerics.LOG_FLOOR``.
    Returns it with its gradient function, which replays the composed
    reference ops' backward pass.  That takes mean and variance of one
    shape, (B, d) in training, and maps ``g``, (B,) or one value for
    every row, to (d mean, d variance via the linear term, d variance via
    the log).  The linear term is the same across a row, so it keeps a
    trailing axis of one and broadcasts.  The one-op chain adds those two
    contributions to the variance gradient as separate steps, and the
    variance usually has other consumers whose additions interleave.
    """
    mv, vv = np.asarray(mean, dtype=np.float64), np.asarray(variance, dtype=np.float64)
    gap = mv - prior.mean
    floored = np.maximum(vv, LOG_FLOOR)
    inner = gap * gap + vv - np.log(floored) - 1.0
    out = inner.sum(axis=-1) * 0.5
    inside = vv >= LOG_FLOOR

    def grads(g):
        g = (np.asarray(g) * 0.5)[..., None]  # broadcasts over the trailing axis
        return g * 2.0 * gap, g, -g * inside / floored

    return out, grads


def compute_consensus(means: np.ndarray) -> PriorConsensus:
    """Population consensus: the plain average of all student means."""
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 2 or means.shape[0] == 0:
        raise ValueError(f"need a nonempty (students, dims) matrix, got shape {means.shape}")
    return PriorConsensus(mean=means.mean(axis=0))
