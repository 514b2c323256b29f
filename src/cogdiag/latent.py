"""Gaussian mastery states and the regularizers that shape them.

Each student holds an independent Gaussian per latent dimension:
mean mu and variance sigma^2 = exp(logvar).  Mastery used by the
predictors is theta = sigmoid(z) with z drawn by the usual location-
scale reparameterization, so gradients flow through both mean and
variance.  The variance doubles as a confidence readout: small means
the model has settled, large means it is still guessing.

The helpers below work on plain ndarrays.  Those the training objective
differentiates take ``vjp=True`` and then also return their gradient
function, which replays the backward pass of the one-op tape chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import stable_sigmoid
from .tape import LOG_FLOOR, _unbroadcast

STUDENT_MEAN = "student_mu"
STUDENT_LOGVAR = "student_logvar"


@dataclass
class PriorConsensus:
    """Population prior the consensus KL pulls toward; unit variance."""

    mean: np.ndarray


STANDARD_PRIOR = PriorConsensus(mean=np.zeros(()))  # phase one's N(0, I)


@dataclass
class DropoutConfig:
    """Bernoulli variance dropout: keep an entry or pin it to ``alpha``."""

    alpha: float = 0.5
    keep_probability: float = 0.5
    enabled: bool = True

    def __post_init__(self):
        problems = []
        if not (self.alpha > 0):
            problems.append(f"dropout alpha must be positive, got {self.alpha}")
        if not (0 < self.keep_probability <= 1):
            problems.append(
                f"dropout keep_probability must be in (0, 1], got {self.keep_probability}"
            )
        if problems:
            raise ValueError("; ".join(problems))


def dropout_mask(shape, cfg: DropoutConfig, rng: np.random.Generator) -> np.ndarray:
    """Boolean keep-mask; all ones when dropout is disabled."""
    if not cfg.enabled:
        return np.ones(shape, dtype=bool)
    return rng.random(shape) < cfg.keep_probability


def apply_dropout_mask(variance, mask: np.ndarray, alpha: float):
    """Kept entries pass through bit-exact; dropped ones become exactly alpha.

    A select rather than ``mask * (variance - alpha) + alpha``, which
    picks up rounding on the kept entries.
    """
    return np.where(mask, variance, alpha)


def draw_ability(mean, variance, eps: np.ndarray, vjp: bool = False):
    """z = mu + sqrt(variance) * eps, theta = sigmoid(z); returns (z, theta).

    ``vjp=True`` returns theta and its gradient function instead,
    ``g -> (d mean, d variance)``.  It replays the backward pass of the
    sqrt -> mul -> add -> sigmoid tape chain op for op, so gradients match
    the composed ops to the bit.  ``eps`` is data and gets no gradient.
    """
    sd = np.sqrt(variance)
    spread = sd * eps
    z = mean + spread
    theta = stable_sigmoid(z)
    if not vjp:
        return z, theta
    safe = np.maximum(sd, 1e-150)

    def grads(g):
        g = g * theta * (1.0 - theta)
        return (
            _unbroadcast(g, np.shape(mean)),
            _unbroadcast(_unbroadcast(g, spread.shape) * eps, np.shape(variance)) * 0.5 / safe,
        )

    return theta, grads


def kl_standard(mean, variance):
    """KL(N(mean, variance) || N(0, I)), summed over the trailing axis.

    The consensus KL with a zero prior mean; ``x - 0.0`` is ``x`` to the
    bit, so this equals the direct formula exactly.
    """
    return kl_consensus(mean, variance, STANDARD_PRIOR)


def kl_consensus(mean, variance, prior: PriorConsensus, vjp: bool = False):
    """KL(N(mean, variance) || N(prior.mean, I)), summed over the trailing axis.

    0.5 * sum((mean - prior.mean)^2 + variance - log(variance) - 1) per
    occurrence, with the log argument floored at ``tape.LOG_FLOOR``.
    ``vjp=True`` also returns the gradient function, which replays the
    composed tape ops' backward pass.  It maps ``g`` to (d mean, d
    variance via the linear term, d variance via the log): the one-op
    chain adds those two contributions to the variance gradient as
    separate steps, and the variance usually has other consumers whose
    additions interleave.
    """
    mv, vv = np.asarray(mean, dtype=np.float64), np.asarray(variance, dtype=np.float64)
    gap = mv - prior.mean
    square_plus_var = gap * gap + vv
    floored = np.maximum(vv, LOG_FLOOR)
    inner = square_plus_var - np.log(floored) - 1.0
    out = inner.sum(axis=-1) * 0.5
    inside = vv >= LOG_FLOOR

    def grads(g):
        g = np.expand_dims(np.asarray(g * 0.5), -1)
        g = np.broadcast_to(g, inner.shape).copy()
        g_sum = _unbroadcast(g, square_plus_var.shape)
        g_square = _unbroadcast(g_sum, gap.shape)
        return (
            _unbroadcast(g_square * 2.0 * gap, mv.shape),
            _unbroadcast(g_sum, vv.shape),
            _unbroadcast(-g, vv.shape) * inside / floored,
        )

    return (out, grads) if vjp else out


def compute_consensus(means: np.ndarray) -> PriorConsensus:
    """Population consensus: the plain average of all student means."""
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 2 or means.shape[0] == 0:
        raise ValueError(f"need a nonempty (students, dims) matrix, got shape {means.shape}")
    return PriorConsensus(mean=means.mean(axis=0))
