"""Metric implementations against brute-force oracles and frozen cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from cogdiag.metrics import (
    MetricError,
    acc,
    auc,
    bin_index,
    calibration,
    format_reliability_csv,
    hard_calls,
    reliability_rows,
    rmse,
)


def auc_brute(y, r):
    """All positive-negative pairs, ties worth one half."""
    pos = [v for v, lab in zip(y, r) if lab == 1]
    neg = [v for v, lab in zip(y, r) if lab == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def calibration_brute(y, r, bins):
    """Literal interval membership, scalar loops."""
    stats = {n: [0, 0.0, 0.0] for n in range(1, bins + 1)}
    for prob, label in zip(y, r):
        n = 1
        while n < bins and not (prob <= n / bins):
            n += 1
        hit = 1.0 if (1.0 if prob >= 0.5 else 0.0) == label else 0.0
        stats[n][0] += 1
        stats[n][1] += hit
        stats[n][2] += prob
    ece = 0.0
    mce = 0.0
    for n, (count, hits, psum) in stats.items():
        if count == 0:
            continue
        gap = abs(hits / count - psum / count)
        ece += count / len(y) * gap
        mce = max(mce, gap)
    return ece, mce


class TestAcc:
    def test_frozen(self):
        assert acc([0.9, 0.4, 0.5], [1, 0, 1]) == 1.0

    def test_tie_predicts_positive(self):
        assert acc([0.5], [0]) == 0.0
        assert acc([0.5], [1]) == 1.0

    def test_hard_calls(self):
        np.testing.assert_array_equal(hard_calls(np.array([0.49, 0.5, 0.51])), [0, 1, 1])

    def test_validation(self):
        with pytest.raises(MetricError):
            acc([], [])
        with pytest.raises(MetricError):
            acc([1.2], [1])
        with pytest.raises(MetricError):
            acc([0.5], [2])
        with pytest.raises(MetricError):
            acc([0.5, 0.6], [1])


class TestRmse:
    def test_frozen(self):
        assert rmse([1.0, 0.0], [0, 1]) == 1.0
        assert rmse([0.5, 0.5], [1, 0]) == 0.5

    def test_perfect(self):
        assert rmse([1.0, 0.0, 1.0], [1, 0, 1]) == 0.0

    def test_matches_formula(self):
        rng = default_rng(0)
        y = rng.uniform(size=100)
        r = (rng.uniform(size=100) < 0.5).astype(float)
        assert rmse(y, r) == pytest.approx(np.sqrt(np.mean((y - r) ** 2)), abs=1e-15)


class TestAuc:
    def test_frozen(self):
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_perfect_and_inverted(self):
        assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0
        assert auc([0.1, 0.2, 0.9, 0.8], [1, 1, 0, 0]) == 0.0

    def test_all_tied_is_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            auc([0.2, 0.8], [1, 1])
        with pytest.raises(MetricError):
            auc([0.2, 0.8], [0, 0])

    def test_brute_force_equivalence(self):
        rng = default_rng(99)
        cases = []
        for trial in range(50):
            n = int(rng.integers(5, 60))
            # quantized probabilities force plenty of ties
            y = rng.integers(0, 6, size=n) / 5.0
            r = (rng.uniform(size=n) < 0.5).astype(float)
            cases.append((y, r))
        # every score tied
        cases.append((np.full(23, 0.37), (rng.uniform(size=23) < 0.5).astype(float)))
        # six decimals, as in the predictions CSV: mostly distinct, some ties
        y = np.round(rng.uniform(0.4, 0.4002, size=300), 6)
        cases.append((y, (rng.uniform(size=300) < 0.5).astype(float)))
        for y, r in cases:
            if r.min() == r.max():
                r[0] = 1 - r[0]
            assert auc(y, r) == pytest.approx(auc_brute(y, r), abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = default_rng(4)
        y = rng.uniform(0.05, 0.95, size=80)
        r = (rng.uniform(size=80) < 0.4).astype(float)
        r[:2] = [0, 1]
        squashed = y**3 / (y**3 + (1 - y) ** 3)
        assert auc(y, r) == pytest.approx(auc(squashed, r), abs=1e-12)


class TestBinIndex:
    def test_zero_goes_to_first_bin(self):
        assert bin_index(np.array([0.0]), 10)[0] == 0

    def test_edges_belong_to_lower_bin(self):
        # (lo, hi] intervals: an exact edge closes the bin below it
        got = bin_index(np.array([0.1, 0.6, 1.0]), 10)
        np.testing.assert_array_equal(got, [0, 5, 9])

    def test_just_above_edge_moves_up(self):
        got = bin_index(np.array([0.1 + 1e-12, 0.6 + 1e-12]), 10)
        np.testing.assert_array_equal(got, [1, 6])

    def test_single_bin(self):
        np.testing.assert_array_equal(bin_index(np.array([0.0, 0.3, 1.0]), 1), [0, 0, 0])


class TestCalibration:
    def test_frozen_three_sample_case(self):
        rep = calibration([0.95, 0.85, 0.65], [1, 0, 1], bins=10)
        assert rep.counts[9] == rep.counts[8] == rep.counts[6] == 1
        assert rep.ece == pytest.approx((0.05 + 0.85 + 0.35) / 3, abs=1e-12)
        assert rep.mce == pytest.approx(0.85, abs=1e-12)

    def test_perfectly_calibrated_bins(self):
        # two samples per bin at the bin's own accuracy
        y = np.array([0.75, 0.75, 0.75, 0.75])
        r = np.array([1, 1, 1, 0])
        rep = calibration(y, r, bins=10)
        assert rep.ece == pytest.approx(0.0, abs=1e-12)
        assert rep.mce == pytest.approx(0.0, abs=1e-12)

    def test_empty_bins_skipped(self):
        rep = calibration([0.95, 0.92], [1, 1], bins=10)
        assert rep.counts.sum() == 2
        assert np.isnan(rep.accuracy[0])
        assert rep.mce == pytest.approx(1.0 - 0.935, abs=1e-12)

    def test_brute_force_equivalence(self):
        rng = default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 200))
            y = rng.uniform(size=n)
            r = (rng.uniform(size=n) < y).astype(float)
            rep = calibration(y, r, bins=10)
            ece, mce = calibration_brute(y, r, 10)
            assert rep.ece == pytest.approx(ece, abs=1e-12)
            assert rep.mce == pytest.approx(mce, abs=1e-12)

    def test_counts_partition_input(self):
        rng = default_rng(12)
        y = rng.uniform(size=500)
        r = (rng.uniform(size=500) < 0.5).astype(float)
        rep = calibration(y, r, bins=10)
        assert rep.counts.sum() == 500

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 20))
    def test_ece_never_exceeds_mce(self, seed, bins):
        rng = default_rng(seed)
        n = int(rng.integers(2, 120))
        y = rng.uniform(size=n)
        r = (rng.uniform(size=n) < 0.5).astype(float)
        rep = calibration(y, r, bins=bins)
        assert rep.ece <= rep.mce + 1e-15

    def test_single_bin_collapses_to_overall_gap(self):
        y = np.array([0.9, 0.2, 0.7])
        r = np.array([1.0, 0.0, 0.0])
        rep = calibration(y, r, bins=1)
        overall = abs((1 + 1 + 0) / 3 - y.mean())
        assert rep.ece == pytest.approx(overall, abs=1e-12)
        assert rep.mce == rep.ece


class TestReliabilityRows:
    def test_every_bin_present(self):
        rep = calibration([0.95, 0.15], [1, 0], bins=10)
        rows = reliability_rows(rep)
        assert len(rows) == 10
        assert [row[0] for row in rows] == list(range(1, 11))
        assert rows[0][1] == 0.0 and rows[9][2] == 1.0

    def test_empty_bins_carry_none(self):
        rows = reliability_rows(calibration([0.95], [1], bins=10))
        assert rows[0][4] is None and rows[0][5] is None and rows[0][6] is None
        assert rows[9][3] == 1 and rows[9][4] == 1.0

    def test_gap_consistency(self):
        rng = default_rng(3)
        y = rng.uniform(size=300)
        r = (rng.uniform(size=300) < y).astype(float)
        rep = calibration(y, r, bins=10)
        for _, _, _, count, a, p, gap in reliability_rows(rep):
            if count:
                assert gap == pytest.approx(abs(a - p), abs=1e-12)

    def test_csv_format(self):
        text = format_reliability_csv(calibration([0.95], [1], bins=3))
        lines = text.strip().split("\n")
        assert lines[0] == "bin,lo,hi,count,acc,avg_prob,gap"
        assert len(lines) == 4
        assert lines[1].endswith(",0,,,")  # empty bin leaves fields blank
        assert lines[3].startswith("3,0.666667,1.000000,1,1.000000,0.950000")
