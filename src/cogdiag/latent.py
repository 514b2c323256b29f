"""Gaussian mastery states and the regularizers that shape them.

Each student holds an independent Gaussian per latent dimension:
mean mu and variance sigma^2 = exp(logvar).  Mastery used by the
predictors is theta = sigmoid(z) with z drawn by the usual location-
scale reparameterization, so gradients flow through both mean and
variance.  The variance doubles as a confidence readout: small means
the model has settled, large means it is still guessing.

All math helpers below accept tape Nodes or plain ndarrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .tape import LOG_FLOOR, _unbroadcast, value_of

STUDENT_MEAN = "student_mu"
STUDENT_LOGVAR = "student_logvar"


@dataclass
class PriorConsensus:
    """Population prior the consensus KL pulls toward; unit variance."""

    mean: np.ndarray


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
    """Kept entries pass through bit-exact; dropped ones become exactly alpha."""
    return tape.where_mask(variance, mask, alpha)


def draw_ability(mean, variance, eps: np.ndarray):
    """z = mu + sqrt(variance) * eps, theta = sigmoid(z); returns (z, theta).

    With Node inputs each output is a single graph node.  Its gradient
    replays the backward pass of the sqrt -> mul -> add (-> sigmoid)
    chain op for op, so values and gradients match the composed tape ops
    to the bit in a graph that uses one of the two outputs, as training
    uses theta.  ``eps`` is data and gets no gradient.
    """
    mv, vv, ev = value_of(mean), value_of(variance), value_of(eps)
    sd = np.sqrt(vv)
    spread = sd * ev
    zv = mv + spread
    thv = tape.sigmoid(zv)
    safe = np.maximum(sd, 1e-150)

    def z_grads(g):
        return (
            _unbroadcast(g, mv.shape),
            _unbroadcast(_unbroadcast(g, spread.shape) * ev, vv.shape) * 0.5 / safe,
        )

    def theta_grads(g):
        return z_grads(g * thv * (1.0 - thv))

    inputs = (mean, variance)
    return tape.fused(zv, inputs, z_grads), tape.fused(thv, inputs, theta_grads)


def kl_standard(mean, variance):
    """KL(N(mean, variance) || N(0, I)), summed over the trailing axis.

    The consensus KL with a zero prior mean; ``x - 0.0`` is ``x`` to the
    bit, so this equals the direct formula exactly.
    """
    return kl_consensus(mean, variance, PriorConsensus(mean=np.zeros(())))


def kl_consensus(mean, variance, prior: PriorConsensus):
    """KL(N(mean, variance) || N(prior.mean, I)), summed over the trailing axis.

    0.5 * sum((mean - prior.mean)^2 + variance - log(variance) - 1) per
    occurrence, with the log argument floored at ``tape.LOG_FLOOR``.
    With Node inputs this is a single graph node replaying the composed
    ops' backward pass.  It lists ``variance`` twice, once for the linear
    term and once for the log, because the one-op chain adds those two
    contributions to the variance gradient as separate steps, and the
    variance usually has other consumers whose additions interleave.
    """
    mv, vv = value_of(mean), value_of(variance)
    gap = mv - value_of(prior.mean)
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

    return tape.fused(out, (mean, variance, variance), grads)


def compute_consensus(means: np.ndarray) -> PriorConsensus:
    """Population consensus: the plain average of all student means."""
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 2 or means.shape[0] == 0:
        raise ValueError(f"need a nonempty (students, dims) matrix, got shape {means.shape}")
    return PriorConsensus(mean=means.mean(axis=0))
