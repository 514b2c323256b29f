"""Prediction quality and calibration metrics.

Conventions used everywhere: a probability of exactly 0.5 predicts
correct (ties go to the positive class), AUC and Spearman's rho rank
tied values by their average rank (an AUC tie counts 1/2), and
calibration bins partition (0, 1] with y = 0 folded into the first bin.
A bin's calibration gap compares the fraction of correct answers among
its members with their mean predicted probability of a correct answer
(the binary reliability diagram of Naeini et al., 2015, and Guo et al., 2017).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricError(ValueError):
    """Raised when a metric is undefined for the given inputs."""


def _validated(probs, labels):
    y = np.asarray(probs, dtype=np.float64)
    r = np.asarray(labels, dtype=np.float64)
    if y.shape != r.shape or y.ndim != 1:
        raise MetricError(f"need matching 1-d arrays, got shapes {y.shape} and {r.shape}")
    if y.size == 0:
        raise MetricError("metrics are undefined on empty input")
    if not np.all(np.isfinite(y)) or np.any(y < 0) or np.any(y > 1):
        raise MetricError("probabilities must be finite and within [0, 1]")
    if not np.all((r == 0) | (r == 1)):
        raise MetricError("labels must be 0 or 1")
    return y, r


def hard_calls(probs: np.ndarray) -> np.ndarray:
    """Threshold at 0.5; exactly 0.5 predicts 1."""
    return (np.asarray(probs) >= 0.5).astype(np.float64)


def acc(probs, labels) -> float:
    y, r = _validated(probs, labels)
    return float(np.mean(hard_calls(y) == r))


def rmse(probs, labels) -> float:
    y, r = _validated(probs, labels)
    return float(np.sqrt(np.mean((y - r) ** 2)))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, tied values sharing the average rank of their group."""
    order = np.argsort(x, kind="stable")
    # tie group [i, j] of the sorted values shares the average 1-based rank
    _, first, size = np.unique(x[order], return_index=True, return_counts=True)
    last = first + size - 1
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, size)
    return ranks


def auc(probs, labels) -> float:
    """Probability a random positive outranks a random negative.

    Average-rank (Mann-Whitney) implementation: tied scores contribute
    1/2 per pair.  Undefined when only one class is present.
    """
    y, r = _validated(probs, labels)
    pos = r == 1
    n_pos = int(pos.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC needs both classes present")
    return float((_average_ranks(y)[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def spearman(a, b) -> float:
    """Spearman's rho: Pearson's r of the average ranks of two finite, non-constant inputs."""
    x, y = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise MetricError(f"need matching 1-d arrays of 2 or more values, got {x.shape}, {y.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise MetricError("Spearman's rho needs finite values")
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise MetricError("Spearman's rho is undefined when an input is constant")
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[0, 1])


@dataclass
class BinReport:
    """Per-bin calibration tallies plus the two summary gaps.

    Bin n (1-based) covers ((n-1)/M, n/M], with y = 0 counted in bin 1.
    Empty bins carry nan for frac_correct/avg_prob and are skipped by
    both ECE (count-weighted mean gap) and MCE (max gap).
    """

    bins: int
    counts: np.ndarray        # (bins,) int64
    frac_correct: np.ndarray  # (bins,) float64, share of labels 1, nan where empty
    avg_prob: np.ndarray      # (bins,) float64, nan where empty
    ece: float
    mce: float


def bin_index(probs: np.ndarray, bins: int) -> np.ndarray:
    """0-based bin per probability under the (lo, hi] rule.

    Uses searchsorted against the exact edge floats n/bins, so a
    probability equal to an edge lands in the lower bin, and 0 lands
    in bin 0.
    """
    edges = np.arange(1, bins) / bins
    return np.searchsorted(edges, probs, side="left")


def calibration(probs, labels, bins: int) -> BinReport:
    y, r = _validated(probs, labels)
    if bins < 1:
        raise MetricError(f"bins must be at least 1, got {bins}")
    which = bin_index(y, bins)
    counts = np.bincount(which, minlength=bins)
    frac_correct = np.full(bins, np.nan)
    avg_prob = np.full(bins, np.nan)
    for n in range(bins):
        members = which == n
        if counts[n]:
            frac_correct[n] = r[members].mean()
            avg_prob[n] = y[members].mean()
    occupied = counts > 0
    gaps = np.abs(frac_correct[occupied] - avg_prob[occupied])
    ece = float(np.sum(counts[occupied] * gaps) / y.size)
    mce = float(np.max(gaps))
    return BinReport(
        bins=bins,
        counts=counts.astype(np.int64),
        frac_correct=frac_correct,
        avg_prob=avg_prob,
        ece=ece,
        mce=mce,
    )


def format_reliability_csv(report: BinReport) -> str:
    """CSV text for a reliability diagram, one row per bin, occupied or not.

    A row is (bin, lo, hi, count, frac_correct, avg_prob, gap), the gap
    being |frac_correct - avg_prob|; an empty bin leaves the last three
    fields empty.
    """
    lines = ["bin,lo,hi,count,frac_correct,avg_prob,gap"]
    for n, count in enumerate(report.counts.tolist()):
        tail = ",,"
        if count:
            a, p = report.frac_correct[n], report.avg_prob[n]
            tail = f"{a:.6f},{p:.6f},{abs(a - p):.6f}"
        lines.append(f"{n + 1},{n / report.bins:.6f},{(n + 1) / report.bins:.6f},{count},{tail}")
    return "\n".join(lines) + "\n"
