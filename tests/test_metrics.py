"""Metric implementations against brute-force oracles and frozen cases."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    rmse,
    spearman,
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


def spearman_brute(a, b):
    """Rank = 1 + the smaller values + half the other equal ones; Pearson's r by explicit sums."""
    def ranks(x):
        return [1 + sum(w < v for w in x) + (sum(w == v for w in x) - 1) / 2 for v in x]

    ra, rb = ranks(a), ranks(b)
    n = len(ra)
    sa, sb = sum(ra), sum(rb)
    sab = sum(u * v for u, v in zip(ra, rb))
    saa, sbb = sum(u * u for u in ra), sum(v * v for v in rb)
    return (n * sab - sa * sb) / ((n * saa - sa * sa) * (n * sbb - sb * sb)) ** 0.5


def calibration_brute(y, r, bins):
    """Literal interval membership, scalar loops; observed = fraction of labels 1."""
    stats = {n: [0, 0.0, 0.0] for n in range(1, bins + 1)}
    for prob, label in zip(y, r):
        n = 1
        while n < bins and not (prob <= n / bins):
            n += 1
        stats[n][0] += 1
        stats[n][1] += label
        stats[n][2] += prob
    ece = 0.0
    mce = 0.0
    for n, (count, correct, psum) in stats.items():
        if count == 0:
            continue
        gap = abs(correct / count - psum / count)
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


def paired_samples(values):
    """Two equal-length lists of at least 2 values drawn from ``values``."""
    return st.integers(2, 40).flatmap(
        lambda n: st.tuples(st.lists(values, min_size=n, max_size=n),
                            st.lists(values, min_size=n, max_size=n)))


# a few distinct values force ties; integers over a wide range rarely tie;
# floats over many magnitudes try the ranking on values no grid holds
TIED = st.integers(0, 4).map(float)
WIDE = st.integers(-1000, 1000).map(float)
FLOATS = st.floats(-1e6, 1e6, allow_nan=False)


class TestSpearman:
    def test_frozen(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
        # ranks (1.5, 1.5, 3) against (1, 2, 3): r = 1.5 / sqrt(1.5 * 2)
        assert spearman([5, 5, 7], [1, 2, 3]) == pytest.approx(np.sqrt(0.75), abs=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(paired_samples(TIED), paired_samples(WIDE), paired_samples(FLOATS)))
    def test_brute_force_equivalence(self, pair):
        a, b = pair
        assume(len(set(a)) > 1 and len(set(b)) > 1)
        assert spearman(a, b) == pytest.approx(spearman_brute(a, b), abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(paired_samples(TIED), paired_samples(WIDE)))
    def test_invariant_under_increasing_maps_and_symmetric(self, pair):
        a, b = (np.array(x) for x in pair)
        assume(np.ptp(a) > 0 and np.ptp(b) > 0)
        rho = spearman(a, b)
        # on these integers both maps are strictly increasing and exact enough to keep every order
        assert spearman(a**3 + 5 * a, np.exp(b / 1000.0)) == pytest.approx(rho, abs=1e-12)
        assert spearman(b, a) == pytest.approx(rho, abs=1e-15)

    @pytest.mark.parametrize("a, b, message", [
        ([1.0, 2.0, 3.0], [1.0, 2.0], "matching 1-d arrays"),
        ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [4.0, 3.0]], "matching 1-d arrays"),
        ([1.0], [2.0], "2 or more values"),
        ([], [], "2 or more values"),
        ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0], "finite"),
        ([1.0, 2.0, 3.0], [1.0, np.inf, 3.0], "finite"),
        ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], "constant"),
        ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], "constant"),
    ])
    def test_undefined_inputs_rejected(self, a, b, message):
        with pytest.raises(MetricError, match=message):
            spearman(a, b)


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
        assert np.isnan(rep.frac_correct[0])
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

    def test_calibrated_bernoulli_labels_read_near_zero(self):
        # labels drawn at the predicted probability: calibrated by construction
        rng = default_rng(0)
        y = rng.uniform(size=200_000)
        r = (rng.uniform(size=200_000) < y).astype(float)
        assert calibration(y, r, bins=10).ece < 0.01

    def test_constant_coin_flip_misses_the_base_rate(self):
        # always 0.5 while 70% of the answers are correct: a 0.2 gap
        rng = default_rng(1)
        r = (rng.uniform(size=100_000) < 0.7).astype(float)
        assert calibration(np.full(r.size, 0.5), r, bins=10).ece >= 0.19
        # below 0.5 too: a hard-call hit rate would read 0.3 against 0.3 here
        assert calibration(np.full(r.size, 0.3), r, bins=10).ece >= 0.39

    def test_single_bin_collapses_to_overall_gap(self):
        y = np.array([0.9, 0.2, 0.7])
        r = np.array([1.0, 0.0, 0.0])
        rep = calibration(y, r, bins=1)
        overall = abs(r.mean() - y.mean())  # one correct answer in three
        assert rep.ece == pytest.approx(overall, abs=1e-12)
        assert rep.mce == rep.ece


def reliability_rows(report):
    """The rows of ``format_reliability_csv(report)``, each split into its seven fields."""
    header, *rows = format_reliability_csv(report).splitlines()
    assert header == "bin,lo,hi,count,frac_correct,avg_prob,gap"
    return [row.split(",") for row in rows]


class TestReliabilityRows:
    def test_every_bin_present(self):
        rep = calibration([0.95, 0.15], [1, 0], bins=10)
        rows = reliability_rows(rep)
        assert len(rows) == 10 == rep.bins == len(rep.counts)
        assert [row[0] for row in rows] == [str(n) for n in range(1, 11)]
        assert [int(row[3]) for row in rows] == rep.counts.tolist()
        # the edges are n/M: bin 1 opens at 0, bin 10 closes at 1, and each bin starts where the last ended
        assert rows[0][1] == "0.000000" and rows[9][2] == "1.000000"
        assert [row[1] for row in rows[1:]] == [row[2] for row in rows[:-1]]
        assert [float(row[2]) for row in rows] == pytest.approx([n / 10 for n in range(1, 11)])

    def test_empty_bins_leave_empty_fields(self):
        rep = calibration([0.95], [1], bins=10)
        rows = reliability_rows(rep)
        assert rows[0][3:] == ["0", "", "", ""]
        assert np.isnan(rep.frac_correct[0]) and np.isnan(rep.avg_prob[0])
        assert rows[9][3] == "1" and rows[9][4] == "1.000000"
        assert rep.counts[9] == 1 and rep.frac_correct[9] == 1.0

    def test_gap_consistency(self):
        rng = default_rng(3)
        y = rng.uniform(size=300)
        r = (rng.uniform(size=300) < y).astype(float)
        rep = calibration(y, r, bins=10)
        for n, (_, _, _, count, a, p, gap) in enumerate(reliability_rows(rep)):
            if int(count):
                gap_n = abs(rep.frac_correct[n] - rep.avg_prob[n])
                assert gap == f"{gap_n:.6f}"
                assert a == f"{rep.frac_correct[n]:.6f}" and p == f"{rep.avg_prob[n]:.6f}"
                # the six-decimal fields agree with each other to their rounding
                assert float(gap) == pytest.approx(abs(float(a) - float(p)), abs=1.5e-6)

    def test_csv_format(self):
        text = format_reliability_csv(calibration([0.95], [1], bins=3))
        lines = text.strip().split("\n")
        assert lines[0] == "bin,lo,hi,count,frac_correct,avg_prob,gap"
        assert len(lines) == 4
        assert lines[1].endswith(",0,,,")  # empty bin leaves fields blank
        assert lines[3].startswith("3,0.666667,1.000000,1,1.000000,0.950000")
