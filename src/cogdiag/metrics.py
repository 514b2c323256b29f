"""Prediction quality and calibration metrics.

Conventions used everywhere: a probability of exactly 0.5 predicts
correct (ties go to the positive class), AUC handles tied scores by
average rank (each tie counts 1/2), and calibration bins partition
(0, 1] with y = 0 folded into the first bin.
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
    order = np.argsort(y, kind="stable")
    sorted_y = y[order]
    # tie group [i, j] of the sorted scores shares the average 1-based rank
    _, first, size = np.unique(sorted_y, return_index=True, return_counts=True)
    last = first + size - 1
    ranks = np.empty(y.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, size)
    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass
class BinReport:
    """Per-bin calibration tallies plus the two summary gaps.

    Bin n (1-based) covers ((n-1)/M, n/M], with y = 0 counted in bin 1.
    Empty bins carry nan for acc/avg_prob and are skipped by both ECE
    (count-weighted mean gap) and MCE (max gap).
    """

    bins: int
    counts: np.ndarray    # (bins,) int64
    accuracy: np.ndarray  # (bins,) float64, nan where empty
    avg_prob: np.ndarray  # (bins,) float64, nan where empty
    ece: float
    mce: float

    @property
    def gaps(self) -> np.ndarray:
        return np.abs(self.accuracy - self.avg_prob)


def bin_index(probs: np.ndarray, bins: int) -> np.ndarray:
    """0-based bin per probability under the (lo, hi] rule.

    Uses searchsorted against the exact edge floats n/bins, so a
    probability equal to an edge lands in the lower bin, and 0 lands
    in bin 0.
    """
    edges = np.arange(1, bins) / bins
    return np.searchsorted(edges, probs, side="left")


def calibration(probs, labels, bins: int = 10) -> BinReport:
    y, r = _validated(probs, labels)
    if bins < 1:
        raise MetricError(f"bins must be at least 1, got {bins}")
    which = bin_index(y, bins)
    counts = np.bincount(which, minlength=bins)
    hits = hard_calls(y) == r
    accuracy = np.full(bins, np.nan)
    avg_prob = np.full(bins, np.nan)
    for n in range(bins):
        members = which == n
        if counts[n]:
            accuracy[n] = hits[members].mean()
            avg_prob[n] = y[members].mean()
    occupied = counts > 0
    gaps = np.abs(accuracy[occupied] - avg_prob[occupied])
    ece = float(np.sum(counts[occupied] * gaps) / y.size)
    mce = float(np.max(gaps))
    return BinReport(
        bins=bins,
        counts=counts.astype(np.int64),
        accuracy=accuracy,
        avg_prob=avg_prob,
        ece=ece,
        mce=mce,
    )


def reliability_rows(report: BinReport) -> list[tuple]:
    """One row per bin: (bin, lo, hi, count, acc, avg_prob, gap).

    Every bin appears, occupied or not; empty bins carry None in the
    acc, avg_prob, and gap columns.
    """
    rows = []
    for n in range(report.bins):
        if report.counts[n]:
            a = float(report.accuracy[n])
            p = float(report.avg_prob[n])
            gap = abs(a - p)
        else:
            a = p = gap = None
        rows.append((n + 1, n / report.bins, (n + 1) / report.bins, int(report.counts[n]), a, p, gap))
    return rows


RELIABILITY_HEADER = "bin,lo,hi,count,acc,avg_prob,gap"


def format_reliability_csv(report: BinReport) -> str:
    """CSV text for a reliability diagram; empty bins leave empty fields."""
    lines = [RELIABILITY_HEADER]
    for bin_no, lo, hi, count, a, p, gap in reliability_rows(report):
        tail = (
            f"{a:.6f},{p:.6f},{gap:.6f}" if a is not None else ",,"
        )
        lines.append(f"{bin_no},{lo:.6f},{hi:.6f},{count},{tail}")
    return "\n".join(lines) + "\n"
