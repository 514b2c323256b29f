"""Fused single-node ops against the one-op tape chains they replace.

The training objective's heads, BCE, draw and KL each record one Node
whose gradient replays the chain's backward pass.  The chains are kept
here as oracles: values and gradients must agree to the bit, including
the order in which a tensor with several consumers sums its gradient.
The loop-based tracker update and pair sampling are kept the same way.
"""

import numpy as np
import pytest
from numpy.random import default_rng

from cogdiag import tape, training
from cogdiag.data import build_dataset
from cogdiag.diagnostics import DiagnosticFunction, init_parameters, predict_irt, predict_mirt
from cogdiag.latent import (
    DropoutConfig,
    PriorConsensus,
    draw_ability,
    kl_consensus,
    kl_standard,
)
from cogdiag.seeding import substream
from cogdiag.synth import planted_cohort
from cogdiag.training import (
    CorrectnessTracker,
    TrainConfig,
    batch_cells,
    batch_loss,
    draw_batch_noise,
    prediction_loss,
    sample_pairs,
)

# ------------------------------------------------------------- oracles


def ref_prediction_loss(probs, labels):
    labels = np.asarray(labels, dtype=np.float64)
    per = tape.add(
        tape.mul(tape.log(probs), labels),
        tape.mul(tape.log(tape.sub(1.0, probs)), 1.0 - labels),
    )
    return tape.mul(tape.nmean(per), -1.0)


def ref_predict_irt(theta, difficulty, discrimination, scale=1.702):
    gap = tape.sub(theta, difficulty)
    return tape.sigmoid(tape.mul(tape.mul(gap, discrimination), scale))


def ref_predict_mirt(theta, difficulty, q_mask):
    gap = tape.mul(tape.sub(theta, difficulty), q_mask)
    return tape.sigmoid(tape.nsum(gap, axis=-1))


def ref_draw_ability(mean, variance, eps):
    z = tape.add(mean, tape.mul(tape.sqrt(variance), eps))
    return z, tape.sigmoid(z)


def ref_kl_standard(mean, variance):
    inner = tape.sub(tape.add(tape.square(mean), variance), tape.log(variance))
    return tape.mul(tape.nsum(tape.sub(inner, 1.0), axis=-1), 0.5)


def ref_kl_consensus(mean, variance, prior):
    inner = tape.sub(
        tape.add(tape.square(tape.sub(mean, prior.mean)), variance), tape.log(variance)
    )
    return tape.mul(tape.nsum(tape.sub(inner, 1.0), axis=-1), 0.5)


def ref_tracker_update(tracker, students, cell_lists, probs, labels):
    correct = (np.asarray(probs) >= 0.5) == (np.asarray(labels) == 1)
    for i, s in enumerate(students):
        cells = cell_lists[i]
        tracker.seen[s, cells] += 1
        if correct[i]:
            tracker.hits[s, cells] += 1


def ref_sample_pairs(students, cell_lists, tracker, count, rng):
    B = len(students)
    cols = [[], [], [], [], [], []]
    if B >= 2:
        for _ in range(count):
            i = int(rng.integers(0, B))
            j = int((i + rng.integers(1, B)) % B)
            cells_i = cell_lists[i]
            cells_j = cell_lists[j]
            ci = int(cells_i[rng.integers(0, len(cells_i))])
            cj = int(cells_j[rng.integers(0, len(cells_j))])
            oi = tracker.frequency(int(students[i]), ci)
            oj = tracker.frequency(int(students[j]), cj)
            if oi is None or oj is None:
                continue
            for col, item in zip(cols, (i, ci, oi, j, cj, oj)):
                col.append(item)
    return (
        np.array(cols[0], dtype=np.int64),
        np.array(cols[1], dtype=np.int64),
        np.array(cols[2], dtype=np.float64),
        np.array(cols[3], dtype=np.int64),
        np.array(cols[4], dtype=np.int64),
        np.array(cols[5], dtype=np.float64),
    )


# ------------------------------------------------------------- helpers


def assert_bits(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


def run(fn, args, as_node, weights_seed=0):
    """Call ``fn`` with the flagged args wrapped in fresh Nodes (one Node per
    distinct array, so an array passed twice is one parent used twice),
    backprop a weighted sum of every output, and return values and grads."""
    nodes = {}
    call = []
    for arr, flag in zip(args, as_node):
        if flag:
            if id(arr) not in nodes:
                nodes[id(arr)] = tape.Node(arr)
            call.append(nodes[id(arr)])
        else:
            call.append(arr)
    outs = fn(*call)
    outs = outs if isinstance(outs, tuple) else (outs,)
    rng = default_rng(weights_seed)
    root = None
    for out in outs:
        w = rng.normal(size=np.shape(tape.value_of(out)))
        term = tape.nsum(tape.mul(out, w))
        root = term if root is None else tape.add(root, term)
    if isinstance(root, tape.Node):
        tape.backprop(root)
    values = [tape.value_of(out) for out in outs]
    grads = [node.grad for node in nodes.values()]
    return values, grads


def assert_matches(fused, ref, args, as_node):
    got_vals, got_grads = run(fused, args, as_node)
    want_vals, want_grads = run(ref, args, as_node)
    for g, w in zip(got_vals, want_vals):
        assert_bits(g, w)
    assert len(got_grads) == len(want_grads)
    for g, w in zip(got_grads, want_grads):
        assert g is not None and w is not None
        assert_bits(g, w)


def probs_with_floors(rng, shape):
    p = rng.uniform(0.01, 0.99, size=shape).reshape(-1)
    # y below LOG_FLOOR, and 1 - y below LOG_FLOOR, on both label values
    p[:6] = [0.0, 1e-13, 1.0, 1.0 - 1e-13, 5e-13, 1.0 - 5e-14]
    return p.reshape(shape)


# ------------------------------------------------------- fused vs chain


class TestPredictionLoss:
    # sizes that are not powers of two, where the mean's reciprocal
    # multiply and a division round differently for some sums
    @pytest.mark.parametrize("shape", [(15,), (5, 4)])
    @pytest.mark.parametrize("seed", range(1, 6))
    def test_matches_chain_with_floors(self, shape, seed):
        rng = default_rng(seed)
        y = probs_with_floors(rng, shape)
        r = (rng.uniform(size=shape) < 0.5).astype(float)
        r.reshape(-1)[:6] = [1.0, 0.0, 0.0, 1.0, 1.0, 0.0]
        for labels in (r, 1.0 - r):
            assert_matches(prediction_loss, ref_prediction_loss, (y, labels), (True, False))
            assert_matches(prediction_loss, ref_prediction_loss, (y, labels), (False, False))

    def test_broadcast_labels(self):
        rng = default_rng(2)
        y = probs_with_floors(rng, (6, 1))
        r = np.array([1.0, 0.0, 1.0])
        assert_matches(prediction_loss, ref_prediction_loss, (y, r), (True, False))

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            prediction_loss(tape.Node(np.zeros(0)), np.zeros(0))


class TestHeads:
    def test_mirt_batch(self):
        rng = default_rng(4)
        theta = rng.uniform(size=(8, 5))
        diff = rng.uniform(size=(8, 5))
        q = (rng.uniform(size=(8, 5)) < 0.5).astype(float)
        for flags in ((True, True, False), (True, False, False), (False, True, False),
                      (False, False, False)):
            assert_matches(predict_mirt, ref_predict_mirt, (theta, diff, q), flags)

    def test_mirt_broadcast_and_single_row(self):
        rng = default_rng(5)
        theta = rng.uniform(size=5)
        diff = rng.uniform(size=(7, 5))
        q = (rng.uniform(size=(7, 5)) < 0.5).astype(float)
        assert_matches(predict_mirt, ref_predict_mirt, (theta, diff, q), (True, True, False))
        assert_matches(predict_mirt, ref_predict_mirt, (theta, diff[0], q[0]), (True, True, False))

    def test_mirt_parent_used_twice(self):
        rng = default_rng(6)
        x = rng.uniform(size=(4, 3))
        q = np.ones((4, 3))
        assert_matches(predict_mirt, ref_predict_mirt, (x, x, q), (True, True, False))

    def test_irt_column_shapes(self):
        rng = default_rng(7)
        theta, diff, disc = (rng.uniform(size=(9, 1)) for _ in range(3))
        for flags in ((True, True, True), (True, False, True), (False, True, False)):
            assert_matches(predict_irt, ref_predict_irt, (theta, diff, disc), flags)

    def test_irt_scalars_and_broadcast(self):
        rng = default_rng(8)
        assert_matches(predict_irt, ref_predict_irt,
                       (np.array(0.7), np.array(0.2), np.array(0.9)), (True, True, True))
        theta = rng.uniform(size=(6, 1))
        diff = rng.uniform(size=(1, 4))
        disc = np.array(0.8)
        assert_matches(predict_irt, ref_predict_irt, (theta, diff, disc), (True, True, True))
        assert_matches(predict_irt, ref_predict_irt, (theta, diff, disc), (False, False, False))

    def test_irt_parent_used_two_and_three_times(self):
        rng = default_rng(9)
        x = rng.uniform(size=(5, 2))
        d = rng.uniform(size=(5, 2))
        assert_matches(predict_irt, ref_predict_irt, (x, d, x), (True, True, True))
        assert_matches(predict_irt, ref_predict_irt, (x, x, x), (True, True, True))


def draw_z(mean, variance, eps):
    return draw_ability(mean, variance, eps)[0]


def draw_theta(mean, variance, eps):
    return draw_ability(mean, variance, eps)[1]


def ref_draw_z(mean, variance, eps):
    return ref_draw_ability(mean, variance, eps)[0]


def ref_draw_theta(mean, variance, eps):
    return ref_draw_ability(mean, variance, eps)[1]


class TestDrawAbility:
    def assert_matches(self, args, flags):
        assert_matches(draw_z, ref_draw_z, args, flags)
        assert_matches(draw_theta, ref_draw_theta, args, flags)

    def test_batch_with_tiny_and_zero_variance(self):
        rng = default_rng(10)
        mean = rng.normal(size=(6, 3))
        var = rng.uniform(0.1, 2.0, size=(6, 3))
        var[0, :] = [0.0, 1e-160, 1e-13]
        eps = rng.standard_normal((6, 3))
        for flags in ((True, True, False), (True, False, False), (False, True, False),
                      (False, False, False)):
            self.assert_matches((mean, var, eps), flags)

    def test_broadcast_variance(self):
        rng = default_rng(11)
        mean = rng.normal(size=(6, 3))
        var = rng.uniform(0.1, 2.0, size=3)
        eps = rng.standard_normal((6, 3))
        self.assert_matches((mean, var, eps), (True, True, False))

    def test_parent_used_twice(self):
        x = default_rng(12).uniform(0.1, 2.0, size=(4, 2))
        eps = default_rng(13).standard_normal((4, 2))
        self.assert_matches((x, x, eps), (True, True, False))


class TestKL:
    def variances(self, rng, shape):
        var = rng.uniform(0.05, 3.0, size=shape)
        var.reshape(-1)[:3] = [1e-13, 0.0, 1e-12]  # below, at zero, exactly at LOG_FLOOR
        return var

    def test_consensus_matches_chain(self):
        rng = default_rng(14)
        mean = rng.normal(size=(7, 4))
        var = self.variances(rng, (7, 4))
        prior = PriorConsensus(mean=rng.normal(size=4))

        def fused(m, v):
            return kl_consensus(m, v, prior)

        def ref(m, v):
            return ref_kl_consensus(m, v, prior)

        for flags in ((True, True), (True, False), (False, True), (False, False)):
            assert_matches(fused, ref, (mean, var), flags)

    def test_standard_matches_chain(self):
        rng = default_rng(15)
        mean = rng.normal(size=(7, 4))
        mean[0, 0] = -0.0
        var = self.variances(rng, (7, 4))
        for flags in ((True, True), (True, False), (False, True), (False, False)):
            assert_matches(kl_standard, ref_kl_standard, (mean, var), flags)

    def test_broadcast_variance(self):
        rng = default_rng(16)
        mean = rng.normal(size=(5, 3))
        var = self.variances(rng, (1, 3))
        assert_matches(kl_standard, ref_kl_standard, (mean, var), (True, True))

    def test_parent_used_twice(self):
        x = default_rng(17).uniform(0.1, 2.0, size=(4, 3))
        prior = PriorConsensus(mean=np.array([0.3, -0.2, 0.1]))

        def fused(m, v):
            return kl_consensus(m, v, prior)

        def ref(m, v):
            return ref_kl_consensus(m, v, prior)

        assert_matches(fused, ref, (x, x), (True, True))
        assert_matches(kl_standard, ref_kl_standard, (x, x), (True, True))


class TestBatchGradients:
    """The whole step: var_hat sums five contributions, mu two, in chain order."""

    REFS = {
        "prediction_loss": ref_prediction_loss,
        "predict_irt": ref_predict_irt,
        "predict_mirt": ref_predict_mirt,
        "draw_ability": ref_draw_ability,
        "kl_standard": ref_kl_standard,
        "kl_consensus": ref_kl_consensus,
    }

    def grads_after_step(self, variant, cfg, prior, monkeypatch=None):
        cohort = planted_cohort(n_students=12, n_exercises=20, n_concepts=4, per_student=12, seed=3)
        ds = build_dataset(cohort.logs, cohort.q_pairs, min_logs=1)
        fn = DiagnosticFunction(variant, mlp_hidden=(6, 4))
        store = init_parameters(fn, ds.n_students, ds.n_exercises, ds.n_concepts, default_rng(1))
        tracker = CorrectnessTracker(ds.n_students, fn.latent_dim(ds.n_concepts))
        rng = default_rng(2)
        tracker.seen = rng.integers(0, 3, size=tracker.seen.shape)
        tracker.hits = np.minimum(rng.integers(0, 3, size=tracker.seen.shape), tracker.seen)
        # a batch that repeats students, so rows scatter-add more than once
        batch_idx = np.concatenate([np.arange(22), np.arange(8)])
        noise = draw_batch_noise(
            ds, fn, cfg, batch_idx, tracker,
            substream(4, "sampling"), substream(4, "dropout"), substream(4, "pairing"),
        )
        assert noise.pairs.count > 0
        if monkeypatch is not None:
            for name, ref in self.REFS.items():
                monkeypatch.setattr(training, name, ref)
        breakdown, probs = batch_loss(ds, fn, store, batch_idx, cfg, noise, prior)
        return breakdown, probs, {name: g.copy() for name, g in store.grads.items()}

    @pytest.mark.parametrize("variant", ["irt", "mirt", "ncd"])
    @pytest.mark.parametrize("with_prior", [False, True])
    @pytest.mark.parametrize("kl_dedup", [False, True])
    def test_store_gradients_match_chain(self, variant, with_prior, kl_dedup, monkeypatch):
        cfg = TrainConfig(seed=4, gamma=0.3, beta=0.7, kl_dedup=kl_dedup,
                          dropout=DropoutConfig(alpha=0.5, keep_probability=0.6))
        d = 1 if variant == "irt" else 4
        prior = PriorConsensus(mean=default_rng(5).normal(size=d)) if with_prior else None
        got = self.grads_after_step(variant, cfg, prior)
        with monkeypatch.context() as mp:
            want = self.grads_after_step(variant, cfg, prior, mp)
        assert got[0] == want[0]
        assert_bits(got[1], want[1])
        for name in want[2]:
            assert_bits(got[2][name], want[2][name])


# ------------------------------------------------------ loop references


class TestTrackerReference:
    def check(self, n_students, n_cells, students, cells, probs, labels):
        got = CorrectnessTracker(n_students, n_cells)
        want = CorrectnessTracker(n_students, n_cells)
        for _ in range(2):
            got.update(students, cells, probs, labels)
            ref_tracker_update(want, students, cells, probs, labels)
        np.testing.assert_array_equal(got.seen, want.seen)
        np.testing.assert_array_equal(got.hits, want.hits)

    def test_same_student_twice_on_shared_concepts(self):
        students = np.array([2, 0, 2, 1, 2])
        cells = [np.array([0, 3]), np.array([1]), np.array([3, 1, 2]), np.array([0]),
                 np.array([3])]
        probs = np.array([0.9, 0.2, 0.5, 0.7, 0.1])
        labels = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        self.check(3, 4, students, cells, probs, labels)

    def test_irt_single_slot(self):
        cohort = planted_cohort(n_students=5, n_exercises=6, n_concepts=4, per_student=6, seed=1)
        ds = build_dataset(cohort.logs, cohort.q_pairs, min_logs=1)
        batch_idx = np.array([0, 1, 2, 0, 7, 8, 1])
        cells = batch_cells(ds, DiagnosticFunction("irt"), batch_idx)
        probs = default_rng(3).uniform(size=len(batch_idx))
        self.check(ds.n_students, 1, ds.s_idx[batch_idx], cells, probs, ds.scores[batch_idx])

    def test_dataset_cells(self):
        cohort = planted_cohort(n_students=8, n_exercises=15, n_concepts=5, per_student=10, seed=2)
        ds = build_dataset(cohort.logs, cohort.q_pairs, min_logs=1)
        batch_idx = default_rng(4).permutation(ds.n_interactions)[:40]
        cells = batch_cells(ds, DiagnosticFunction("mirt"), batch_idx)
        probs = default_rng(5).uniform(size=40)
        self.check(ds.n_students, ds.n_concepts, ds.s_idx[batch_idx], cells, probs,
                   ds.scores[batch_idx])


class TestSamplePairsReference:
    def check(self, students, cells, tracker, count, seed):
        got = sample_pairs(students, cells, tracker, count, default_rng(seed))
        want = ref_sample_pairs(students, cells, tracker, count, default_rng(seed))
        fields = (got.pos_a, got.cell_a, got.o_a, got.pos_b, got.cell_b, got.o_b)
        for g, w in zip(fields, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
            assert g.tobytes() == w.tobytes()
        # the same stream is left in the same state
        a, b = default_rng(seed), default_rng(seed)
        sample_pairs(students, cells, tracker, count, a)
        ref_sample_pairs(students, cells, tracker, count, b)
        assert a.integers(0, 2**62) == b.integers(0, 2**62)

    def tracker(self, n_students, n_cells, seed):
        rng = default_rng(seed)
        t = CorrectnessTracker(n_students, n_cells)
        t.seen = rng.integers(0, 4, size=(n_students, n_cells))  # zeros are untracked cells
        t.hits = np.minimum(rng.integers(0, 4, size=(n_students, n_cells)), t.seen)
        return t

    def test_student_twice_shared_concepts_and_untracked_sides(self):
        students = np.array([3, 1, 3, 0, 3, 2])
        cells = [np.array([0, 2]), np.array([1, 2, 4]), np.array([2]), np.array([4, 0]),
                 np.array([2, 3]), np.array([1])]
        t = self.tracker(4, 5, 6)
        assert (t.seen == 0).any()
        for seed in range(5):
            self.check(students, cells, t, 40, seed)

    def test_irt_single_slot(self):
        students = np.array([0, 1, 1, 2])
        cells = [np.zeros(1, dtype=np.int64)] * 4
        t = self.tracker(3, 1, 7)
        t.seen[1, 0] = 0
        self.check(students, cells, t, 25, 8)

    def test_degenerate_batches(self):
        t = self.tracker(3, 2, 9)
        self.check(np.array([1]), [np.array([0])], t, 10, 1)
        self.check(np.array([0, 1]), [np.array([0]), np.array([1])], t, 0, 1)
        self.check(np.array([0, 1]), [np.array([0]), np.array([1])],
                   CorrectnessTracker(3, 2), 10, 1)
