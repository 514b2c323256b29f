"""Closed-form formulas and the one-Node training step against the reference chains.

The BCE, draw, KL and hinge each return their value with its gradient
function, as the three heads do, replaying the one-op
chain's backward pass; the training step records its whole objective as
one Node.  The chains, and the composed batch graph built from them, are
kept here as oracles: values and gradients must agree to the bit,
including the order in which a tensor with several consumers sums its
gradient.  The loop-based tracker update is kept the same way, and the
vectorised pair draws are replayed in a loop.
"""

import copy

import numpy as np
import pytest
from numpy.random import default_rng

from cogdiag.data import LogColumns, build_dataset
from cogdiag.diagnostics import (
    IRT_SCALE,
    MLP_PARAMS,
    DiagnosticFunction,
    init_parameters,
    predict_irt,
    predict_mirt,
    predict_ncd,
)
from cogdiag.latent import (
    STANDARD_PRIOR,
    PriorConsensus,
    draw_ability,
    kl_consensus,
)
from cogdiag.numerics import EXP_CLAMP, LOG_FLOOR, stable_sigmoid
from cogdiag.seeding import substream
from cogdiag.synth import planted_cohort
from cogdiag.training import (
    CorrectnessTracker,
    LossBreakdown,
    TrainConfig,
    batch_loss,
    calibration_pair_loss,
    draw_batch_noise,
    prediction_loss,
    sample_pairs,
)

import reftape as tape
from reftape import _unbroadcast

# ------------------------------------------------------------- oracles


def ref_prediction_loss(probs, labels):
    labels = np.asarray(labels, dtype=np.float64)
    per = tape.add(
        tape.mul(tape.log(probs), labels),
        tape.mul(tape.log(tape.sub(1.0, probs)), 1.0 - labels),
    )
    return tape.mul(tape.nmean(per), -1.0)


def ref_predict_irt(theta, difficulty, discrimination):
    gap = tape.sub(theta, difficulty)
    return tape.sigmoid(tape.mul(tape.mul(gap, discrimination), IRT_SCALE))


def ref_predict_mirt(theta, difficulty, q_mask):
    gap = tape.mul(tape.sub(theta, difficulty), q_mask)
    return tape.sigmoid(tape.nsum(gap, axis=-1))


def ref_predict_ncd(theta, difficulty, discrimination, q_mask, layers):
    x = tape.mul(tape.mul(tape.sub(theta, difficulty), q_mask), discrimination)
    for w, b in layers:
        x = tape.sigmoid(tape.add(tape.matmul(x, w), b))
    return tape.nsum(x, axis=-1)


def ref_calibration_pair_loss(var_a, var_b, o_a, o_b, sign_mode):
    direction = np.sign(o_a - o_b)
    if sign_mode == "literal":
        direction = -direction
    spread = tape.mul(tape.sub(var_a, var_b), direction)
    return tape.relu(tape.add(spread, np.abs(o_a - o_b)))


def ref_draw_ability(mean, variance, eps):
    z = tape.add(mean, tape.mul(tape.sqrt(variance), eps))
    return z, tape.sigmoid(z)


def ref_kl_zero_prior(mean, variance):
    inner = tape.sub(tape.add(tape.square(mean), variance), tape.log(variance))
    return tape.mul(tape.nsum(tape.sub(inner, 1.0), axis=-1), 0.5)


def ref_kl_consensus(mean, variance, prior):
    inner = tape.sub(
        tape.add(tape.square(tape.sub(mean, prior.mean)), variance), tape.log(variance)
    )
    return tape.mul(tape.nsum(tape.sub(inner, 1.0), axis=-1), 0.5)


def ref_batch_step(dataset, fn, store, batch_idx, cfg, noise, prior):
    """The composed batch graph, one Node per op, then backprop into ``store``.

    Row leaves hold one gathered row per occurrence.  After the
    backward pass each leaf scatter-adds its gradient into a zero-filled
    array with ``np.add.at``, leaves in the tape's topological order, as
    the store did when training ran this graph.  Returns (breakdown,
    probs, {name: whole-array gradient}); the MLP's come from the store.
    """
    s = dataset.s_idx[batch_idx]
    e = dataset.e_idx[batch_idx]
    r = dataset.scores[batch_idx]
    rows_of = {}

    def row_leaf(name, rows):
        node = tape.Node(store.params[name][rows])
        rows_of[id(node)] = (name, rows)
        return node

    mu = row_leaf("student_mu", s)
    var = tape.exp(row_leaf("student_logvar", s))
    var_hat = tape.where_mask(var, noise.keep_mask, cfg.dropout_alpha)
    _, theta = ref_draw_ability(mu, var_hat, noise.eps)
    difficulty = tape.sigmoid(row_leaf("exercise_diff", e))
    if fn.variant == "mirt":
        y = ref_predict_mirt(theta, difficulty, dataset.dense_q[e])
    else:
        discrimination = tape.sigmoid(row_leaf("exercise_disc", e))
        if fn.variant == "irt":
            y = tape.nsum(ref_predict_irt(theta, difficulty, discrimination), axis=-1)
        else:
            mlp = [tape.leaf(store, name) for name in MLP_PARAMS]
            y = ref_predict_ncd(theta, difficulty, discrimination, dataset.dense_q[e],
                                list(zip(mlp[::2], mlp[1::2])))
    l_pred = ref_prediction_loss(y, r)
    total = l_pred
    l_kl = 0.0
    if cfg.gamma > 0:
        if prior is None:
            kl_vec = ref_kl_zero_prior(mu, var_hat)
        else:
            kl_vec = ref_kl_consensus(mu, var_hat, prior)
        l_kl = tape.nmean(kl_vec)
        total = tape.add(total, tape.mul(l_kl, cfg.gamma))
    l_rl = 0.0
    p = noise.pairs
    if cfg.beta > 0 and p is not None and p.count > 0:
        var_a = tape.take_cells(var_hat, p.pos_a, p.cell_a)
        var_b = tape.take_cells(var_hat, p.pos_b, p.cell_b)
        l_rl = tape.nmean(ref_calibration_pair_loss(var_a, var_b, p.o_a, p.o_b,
                                                    cfg.calibration_sign))
        total = tape.add(total, tape.mul(l_rl, cfg.beta))
    breakdown = LossBreakdown(*(float(tape.value_of(x)) for x in (l_pred, l_kl, l_rl, total)))
    tape.backprop(total)  # MLP leaves go to the store here
    grads = {name: store.grad(name) for name in store.params}  # zeros but the MLP's
    for node in tape._topo_order(total):
        if id(node) in rows_of:
            name, rows = rows_of[id(node)]
            np.add.at(grads[name], rows, node.grad)
    return breakdown, tape.value_of(y).copy(), grads


def ref_tracker_update(tracker, students, cell_lists, probs, labels):
    correct = (np.asarray(probs) >= 0.5) == (np.asarray(labels) == 1)
    for i, s in enumerate(students):
        cells = cell_lists[i]
        tracker.seen[s, cells] += 1
        if correct[i]:
            tracker.hits[s, cells] += 1


# ------------------------------------------------------------- helpers


def assert_bits(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


def assert_vjp_matches(fused, ref, args, combine=None, weights_seed=0):
    """``fused(*args)`` returns (value, grads); ``ref`` is the tape chain.

    The chain runs on one fresh Node per argument and backprops the sum
    of its output weighted by random ``w``, so the output's gradient is
    ``w`` exactly.  The value and ``grads(w)``, mapped through
    ``combine`` when given, must equal the chain's value and argument
    gradients to the bit.
    """
    value, grads = fused(*args)
    nodes = [tape.Node(arr) for arr in args]
    out = ref(*nodes)
    assert_bits(value, out.value)
    w = default_rng(weights_seed).normal(size=np.shape(value))
    tape.backprop(tape.nsum(tape.mul(out, w)))
    got = grads(w)
    got = combine(*got) if combine is not None else got
    assert len(got) == len(nodes)
    for g, node in zip(got, nodes):
        assert node.grad is not None
        assert_bits(g, node.grad)


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
            assert_vjp_matches(lambda p: prediction_loss(p, labels),
                               lambda p: ref_prediction_loss(p, labels), (y,))

    def test_broadcast_labels(self):
        # the value only: the gradient takes probs and labels of one shape
        rng = default_rng(2)
        y = probs_with_floors(rng, (6, 1))
        r = np.array([1.0, 0.0, 1.0])
        assert_bits(prediction_loss(y, r)[0], ref_prediction_loss(tape.Node(y), r).value)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            prediction_loss(np.zeros(0), np.zeros(0))


class TestHeads:
    """The heads' values against the chain's on arrays, and their gradient
    functions against the chain's gradients.  The gradient functions return d gap
    (gap = theta - difficulty); the sub op hands it to theta and, negated,
    to difficulty."""

    def assert_values(self, head, ref, args):
        assert_bits(head(*args)[0], tape.value_of(ref(*args)))

    def test_mirt_batch(self):
        rng = default_rng(4)
        theta = rng.uniform(size=(8, 5))
        diff = rng.uniform(size=(8, 5))
        q = (rng.uniform(size=(8, 5)) < 0.5).astype(float)
        self.assert_values(predict_mirt, ref_predict_mirt, (theta, diff, q))

    def test_mirt_broadcast_and_single_row(self):
        rng = default_rng(5)
        theta = rng.uniform(size=5)
        diff = rng.uniform(size=(7, 5))
        q = (rng.uniform(size=(7, 5)) < 0.5).astype(float)
        self.assert_values(predict_mirt, ref_predict_mirt, (theta, diff, q))
        self.assert_values(predict_mirt, ref_predict_mirt, (theta, diff[0], q[0]))

    def test_mirt_parent_used_twice(self):
        # one array as ability and difficulty: every masked gap is exactly 0
        x = default_rng(6).uniform(size=(4, 3))
        self.assert_values(predict_mirt, ref_predict_mirt, (x, x, np.ones((4, 3))))
        assert_bits(predict_mirt(x, x, np.ones((4, 3)))[0], np.full(4, 0.5))

    def test_irt_column_shapes(self):
        rng = default_rng(7)
        theta, diff, disc = (rng.uniform(size=(9, 1)) for _ in range(3))
        self.assert_values(predict_irt, ref_predict_irt, (theta, diff, disc))

    def test_irt_scalars_and_broadcast(self):
        rng = default_rng(8)
        self.assert_values(predict_irt, ref_predict_irt,
                           (np.array(0.7), np.array(0.2), np.array(0.9)))
        theta = rng.uniform(size=(6, 1))
        diff = rng.uniform(size=(1, 4))
        self.assert_values(predict_irt, ref_predict_irt, (theta, diff, np.array(0.8)))

    def test_irt_parent_used_two_and_three_times(self):
        rng = default_rng(9)
        x = rng.uniform(size=(5, 2))
        d = rng.uniform(size=(5, 2))
        self.assert_values(predict_irt, ref_predict_irt, (x, d, x))
        self.assert_values(predict_irt, ref_predict_irt, (x, x, x))

    def test_irt_vjp_matches_chain(self):
        rng = default_rng(10)
        theta, diff, disc = (rng.uniform(size=(9, 1)) for _ in range(3))

        def gap_to_inputs(g_gap, g_disc):
            return g_gap, -g_gap, g_disc

        assert_vjp_matches(predict_irt, ref_predict_irt, (theta, diff, disc), gap_to_inputs)

    @pytest.mark.parametrize("theta_shape", [(8, 5), (5,)])
    def test_mirt_vjp_matches_chain(self, theta_shape):
        rng = default_rng(11)
        theta = rng.uniform(size=theta_shape)
        diff = rng.uniform(size=(8, 5))
        q = (rng.uniform(size=(8, 5)) < 0.5).astype(float)

        def gap_to_inputs(g_gap):
            return _unbroadcast(g_gap, theta.shape), _unbroadcast(-g_gap, diff.shape)

        assert_vjp_matches(lambda t, d: predict_mirt(t, d, q),
                           lambda t, d: ref_predict_mirt(t, d, q), (theta, diff), gap_to_inputs)


class TestPredictNcdVjp:
    """Every gradient of ``predict_ncd`` against the chain."""

    def check(self, theta, diff, disc, q, params):
        def fused(t, d, c, *mlp):
            return predict_ncd(t, d, c, q, list(zip(mlp[::2], mlp[1::2])))

        def ref(t, d, c, *mlp):
            return ref_predict_ncd(t, d, c, q, list(zip(mlp[::2], mlp[1::2])))

        def gap_to_inputs(g_gap, g_disc, *g_mlp):
            return (g_gap, -g_gap, g_disc, *g_mlp)

        assert_vjp_matches(fused, ref, (theta, diff, disc, *params), gap_to_inputs)
        assert_bits(fused(theta, diff, disc, *params)[0],
                    predict_ncd(theta, diff, disc, q, list(zip(params[::2], params[1::2])))[0])

    def inputs(self, seed, B=7, K=5, hidden=(6, 4)):
        rng = default_rng(seed)
        theta, diff = rng.uniform(size=(B, K)), rng.uniform(size=(B, K))
        disc = rng.uniform(size=(B, 1))
        q = (rng.uniform(size=(B, K)) < 0.6).astype(float)
        widths = (K, *hidden, 1)
        params = []
        for k in range(3):
            params += [rng.uniform(0.0, 1.0, size=widths[k : k + 2]), rng.normal(size=widths[k + 1])]
        return theta, diff, disc, q, params

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_chain(self, seed):
        theta, diff, disc, q, params = self.inputs(seed)
        self.check(theta, diff, disc, q, params)

    def test_saturated_units_and_floored_output(self):
        theta, diff, disc, q, params = self.inputs(3)
        params[1][:3] = [800.0, -800.0, -800.0]  # layer-1 units at exactly 1, 0 and 0
        params[3][0] = 900.0                     # a layer-2 unit at exactly 1
        params[5][:] = -60.0                     # every output below LOG_FLOOR
        hidden = stable_sigmoid((theta - diff) * q * disc @ params[0] + params[1])
        assert (hidden[:, 0] == 1.0).all() and (hidden[:, 1:3] == 0.0).all()
        y = predict_ncd(theta, diff, disc, q, list(zip(params[::2], params[1::2])))[0]
        assert (y < LOG_FLOOR).all()
        self.check(theta, diff, disc, q, params)


class TestDrawAbility:
    def assert_matches(self, mean, var, eps):
        assert_vjp_matches(lambda m, v: draw_ability(m, v, eps),
                           lambda m, v: ref_draw_ability(m, v, eps)[1], (mean, var))

    def test_batch_with_tiny_and_zero_variance(self):
        rng = default_rng(10)
        mean = rng.normal(size=(6, 3))
        var = rng.uniform(0.1, 2.0, size=(6, 3))
        var[0, :] = [0.0, 1e-160, 1e-13]
        eps = rng.standard_normal((6, 3))
        self.assert_matches(mean, var, eps)

    def test_broadcast_variance(self):
        # the value only: the gradient takes mean, variance and eps of one shape
        rng = default_rng(11)
        mean = rng.normal(size=(6, 3))
        var = rng.uniform(0.1, 2.0, size=3)
        eps = rng.standard_normal((6, 3))
        assert_bits(draw_ability(mean, var, eps)[0], ref_draw_ability(mean, var, eps)[1])


class TestCalibrationPairLoss:
    @pytest.mark.parametrize("sign_mode", ["consistent", "literal"])
    def test_matches_chain(self, sign_mode):
        rng = default_rng(18)
        var_a, var_b = rng.uniform(0.05, 2.0, size=(2, 40))
        o_a, o_b = rng.integers(0, 4, size=(2, 40)) / 3.0  # ties, active and inactive hinges
        assert_vjp_matches(
            lambda a, b: calibration_pair_loss(a, b, o_a, o_b, sign_mode),
            lambda a, b: ref_calibration_pair_loss(a, b, o_a, o_b, sign_mode), (var_a, var_b),
        )


def kl_two_inputs(g_mean, g_lin, g_log):
    """The chain adds the variance's two contributions as separate steps."""
    return g_mean, g_lin + g_log


class TestKL:
    def variances(self, rng, shape):
        var = rng.uniform(0.05, 3.0, size=shape)
        var.reshape(-1)[:3] = [1e-13, 0.0, 1e-12]  # below, at zero, exactly at LOG_FLOOR
        return var

    def assert_matches(self, mean, var, prior, ref):
        assert_vjp_matches(lambda m, v: kl_consensus(m, v, prior), ref, (mean, var),
                           kl_two_inputs)

    def test_consensus_matches_chain(self):
        rng = default_rng(14)
        mean = rng.normal(size=(7, 4))
        var = self.variances(rng, (7, 4))
        prior = PriorConsensus(mean=rng.normal(size=4))
        self.assert_matches(mean, var, prior, lambda m, v: ref_kl_consensus(m, v, prior))

    def test_standard_matches_chain(self):
        rng = default_rng(15)
        mean = rng.normal(size=(7, 4))
        mean[0, 0] = -0.0
        var = self.variances(rng, (7, 4))
        self.assert_matches(mean, var, STANDARD_PRIOR, ref_kl_zero_prior)

    def test_broadcast_variance(self):
        # the value only: the gradient takes mean and variance of one shape
        rng = default_rng(16)
        mean = rng.normal(size=(5, 3))
        var = self.variances(rng, (1, 3))
        assert_bits(kl_consensus(mean, var, STANDARD_PRIOR)[0], ref_kl_zero_prior(mean, var))


class TestBatchGradients:
    """The whole step against the composed graph: store gradients to the bit.

    var_hat sums five contributions and mu two, in the chain's order, and
    each row adds its occurrences in order.  ``keep_all`` runs with
    ``dropout_keep = 1``, the setting that turns variance dropout off.
    """

    def step_both_ways(self, ds, fn, store, batch_idx, cfg, noise, prior):
        got_store = copy.deepcopy(store)
        got = batch_loss(ds, fn, got_store, batch_idx, cfg, noise, prior)
        want = ref_batch_step(ds, fn, store, batch_idx, cfg, noise, prior)
        assert got[0] == want[0]
        assert_bits(got[1], want[1])
        for name in store.params:
            assert_bits(got_store.grad(name), want[2][name])
        return want[2]

    def fixtures(self, variant, ds, cfg, seed=2):
        fn = DiagnosticFunction(variant, mlp_hidden=(6, 4))
        store = init_parameters(fn, ds.n_students, ds.n_exercises, ds.n_concepts, default_rng(1))
        tracker = CorrectnessTracker(ds.n_students, fn.latent_dim(ds.n_concepts))
        rng = default_rng(seed)
        tracker.seen = rng.integers(0, 3, size=tracker.seen.shape)
        tracker.hits = np.minimum(rng.integers(0, 3, size=tracker.seen.shape), tracker.seen)
        return fn, store, tracker

    def noise(self, ds, fn, cfg, batch_idx, tracker):
        noise = draw_batch_noise(
            ds, fn.cells(ds), cfg, batch_idx, tracker,
            substream(4, "sampling"), substream(4, "dropout"), substream(4, "pairing"),
        )
        assert (noise.pairs.count > 0) == (len(batch_idx) > 1)  # one instance draws no pairs
        return noise

    def config(self, keep_all):
        keep = 1.0 if keep_all else 0.6
        return TrainConfig(seed=4, gamma=0.3, beta=0.7, dropout_alpha=0.5, dropout_keep=keep)

    def prior(self, with_prior, variant, n_concepts):
        d = 1 if variant == "irt" else n_concepts
        return PriorConsensus(mean=default_rng(5).normal(size=d)) if with_prior else None

    @pytest.mark.parametrize("variant", ["irt", "mirt", "ncd"])
    @pytest.mark.parametrize("with_prior", [False, True])
    @pytest.mark.parametrize("keep_all", [False, True])
    def test_store_gradients_match_chain(self, variant, with_prior, keep_all):
        cohort = planted_cohort(n_students=12, n_exercises=20, n_concepts=4, per_student=12, seed=3)
        ds = build_dataset(cohort.logs, cohort.q_pairs, min_logs=1)
        cfg = self.config(keep_all)
        fn, store, tracker = self.fixtures(variant, ds, cfg)
        # a batch that repeats students, so rows scatter-add more than once
        batch_idx = np.concatenate([np.arange(22), np.arange(8)])
        assert len(np.unique(ds.s_idx[batch_idx])) < len(batch_idx)
        tracker.seen += 1  # every cell tracked: all the attempted pairs survive
        noise = self.noise(ds, fn, cfg, batch_idx, tracker)
        assert noise.keep_mask.all() == keep_all
        # and pairs that repeat a (position, cell) on a side, with a correctness
        # gap each time, so the hinge adds two gradients into one var_hat entry
        p = noise.pairs
        gap = p.o_a != p.o_b  # a tie's hinge has no gradient
        sides = [list(zip(pos[gap].tolist(), cell[gap].tolist()))
                 for pos, cell in ((p.pos_a, p.cell_a), (p.pos_b, p.cell_b))]
        assert any(len(set(side)) < len(side) for side in sides)
        grads = self.step_both_ways(ds, fn, store, batch_idx, cfg, noise,
                                    self.prior(with_prior, variant, ds.n_concepts))
        for name in ("student_mu", "student_logvar", "exercise_diff"):
            assert grads[name].any()

    @pytest.mark.parametrize("variant", ["irt", "mirt", "ncd"])
    @pytest.mark.parametrize("with_prior", [False, True])
    @pytest.mark.parametrize("n_concepts", [1, 4])
    @pytest.mark.parametrize("batch_size", [1, 2, 7])
    def test_store_gradients_match_chain_at_small_shapes(
        self, variant, with_prior, n_concepts, batch_size
    ):
        # K = 1 gives discrimination (B, 1) and the gap (B, K) one shape, so
        # a reduction that keeps the concept axis is a one-element sum; B = 1
        # draws no pairs and B = 2 pairs its two instances only
        cohort = planted_cohort(n_students=6, n_exercises=8, n_concepts=4, per_student=6, seed=3)
        q_pairs = cohort.q_pairs
        if n_concepts == 1:
            q_pairs = sorted({(e, "c00") for e, _ in q_pairs})
        ds = build_dataset(cohort.logs, q_pairs, min_logs=1)
        assert ds.n_concepts == n_concepts
        cfg = self.config(keep_all=False)
        fn, store, tracker = self.fixtures(variant, ds, cfg)
        tracker.seen += 1  # every cell tracked, so every drawn pair survives
        batch_idx = default_rng(batch_size).permutation(ds.n_interactions)[:batch_size]
        noise = self.noise(ds, fn, cfg, batch_idx, tracker)
        self.step_both_ways(ds, fn, store, batch_idx, cfg, noise,
                            self.prior(with_prior, variant, ds.n_concepts))

    @pytest.mark.parametrize("variant", ["irt", "mirt", "ncd"])
    @pytest.mark.parametrize("with_prior", [False, True])
    @pytest.mark.parametrize("keep_all", [False, True])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_store_gradients_match_chain_at_edges(self, variant, with_prior, keep_all):
        # 30 concepts per exercise let mirt saturate
        K = 30
        wide = [f"w{j}" for j in range(4)]
        q_pairs = [(w, f"c{k}") for w in wide for k in range(K)] + [("n0", "c3"), ("n1", "c5")]
        plan = [  # (student, exercise, label)
            ("low", "w0", 1), ("low", "w1", 0), ("low", "n0", 1),    # "low" three times
            ("high", "w2", 0), ("high", "w3", 1),
            ("big", "n0", 1), ("tiny", "n1", 0), ("floor", "n1", 1), ("floor", "w2", 1),
        ]
        sids, eids, labels = zip(*plan)
        ds = build_dataset(LogColumns.from_rows(list(sids), list(eids),
                                                np.array(labels, dtype=np.float64)),
                           q_pairs, min_logs=1)
        cfg = self.config(keep_all)
        fn, store, tracker = self.fixtures(variant, ds, cfg)
        p = store.params
        sid, eid = ds.student_ids.index, ds.exercise_ids.index
        p["student_mu"][sid("low")] = -40.0   # theta about 0
        p["student_mu"][sid("high")] = 40.0   # theta about 1
        p["exercise_diff"][[eid("w0"), eid("w1")]] = 40.0
        p["exercise_diff"][[eid("w2"), eid("w3")]] = -40.0
        p["exercise_disc"][:] = 40.0
        p["student_logvar"][sid("low")] = -5.0
        p["student_logvar"][sid("high")] = -5.0
        p["student_logvar"][sid("big")] = EXP_CLAMP + 1.0     # clamped exp, zero gradient
        p["student_logvar"][sid("tiny")] = -EXP_CLAMP - 1.0   # clamped, and below LOG_FLOOR
        p["student_logvar"][sid("floor")] = -28.0             # inside the clamp, below LOG_FLOOR
        if variant == "ncd":
            p["mlp_b3"][:] = -60.0  # every probability below LOG_FLOOR, on both labels
        batch_idx = np.arange(ds.n_interactions)
        noise = self.noise(ds, fn, cfg, batch_idx, tracker)
        noise.keep_mask[:] = True  # the floored variances reach the KL's log
        noise.keep_mask[0, 0] = keep_all
        probs = ref_batch_step(ds, fn, copy.deepcopy(store), batch_idx, cfg, noise, None)[1]
        labels = ds.scores[batch_idx]
        # irt stays inside (sigmoid(-IRT_SCALE), sigmoid(IRT_SCALE)): no BCE floor to reach
        if variant != "irt":
            assert (probs[labels == 1] < LOG_FLOOR).any() and (probs[labels == 0] < LOG_FLOOR).any()
        if variant == "mirt":
            miss = 1.0 - probs
            assert (miss[labels == 1] < LOG_FLOOR).any() and (miss[labels == 0] < LOG_FLOOR).any()
        self.step_both_ways(ds, fn, store, batch_idx, cfg, noise,
                            self.prior(with_prior, variant, ds.n_concepts))


# ------------------------------------------------------ loop references


def csr_of(cell_lists):
    """Instance k's cells as exercise k of a CSR layout: (exercises, (ptr, idx))."""
    ptr = np.cumsum([0] + [len(c) for c in cell_lists])
    return np.arange(len(cell_lists)), (ptr, np.concatenate(cell_lists).astype(np.int64))


def lists_of(exercises, cells):
    """Per-instance cell arrays, sliced from a CSR layout."""
    ptr, idx = cells
    return [idx[ptr[j] : ptr[j + 1]] for j in exercises]


class TestTrackerReference:
    def check(self, n_students, n_cells, students, exercises, cells, probs, labels):
        got = CorrectnessTracker(n_students, n_cells)
        want = CorrectnessTracker(n_students, n_cells)
        for _ in range(2):
            got.update(students, exercises, cells, probs, labels)
            ref_tracker_update(want, students, lists_of(exercises, cells), probs, labels)
        np.testing.assert_array_equal(got.seen, want.seen)
        np.testing.assert_array_equal(got.hits, want.hits)

    def test_same_student_twice_on_shared_concepts(self):
        students = np.array([2, 0, 2, 1, 2])
        exercises, cells = csr_of([np.array([0, 3]), np.array([1]), np.array([3, 1, 2]),
                                   np.array([0]), np.array([3])])
        probs = np.array([0.9, 0.2, 0.5, 0.7, 0.1])
        labels = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        self.check(3, 4, students, exercises, cells, probs, labels)

    def test_irt_single_slot(self):
        cohort = planted_cohort(n_students=5, n_exercises=6, n_concepts=4, per_student=6, seed=1)
        ds = build_dataset(cohort.logs, cohort.q_pairs, min_logs=1)
        batch_idx = np.array([0, 1, 2, 0, 7, 8, 1])
        cells = DiagnosticFunction("irt").cells(ds)
        probs = default_rng(3).uniform(size=len(batch_idx))
        self.check(ds.n_students, 1, ds.s_idx[batch_idx], ds.e_idx[batch_idx], cells, probs,
                   ds.scores[batch_idx])

    def test_dataset_cells(self):
        cohort = planted_cohort(n_students=8, n_exercises=15, n_concepts=5, per_student=10, seed=2)
        ds = build_dataset(cohort.logs, cohort.q_pairs, min_logs=1)
        batch_idx = default_rng(4).permutation(ds.n_interactions)[:40]
        cells = DiagnosticFunction("mirt").cells(ds)
        probs = default_rng(5).uniform(size=40)
        self.check(ds.n_students, ds.n_concepts, ds.s_idx[batch_idx], ds.e_idx[batch_idx], cells,
                   probs, ds.scores[batch_idx])


class TestSamplePairsReference:
    """The vectorised draws, replayed attempt by attempt.

    The four arrays are drawn here the documented way (first positions,
    offsets, the picks on side a, the picks on side b); a plain loop then
    builds the expected pairs from them and the CSR slices.
    """

    def check(self, students, cell_lists, tracker, count, seed):
        exercises, (ptr, idx) = csr_of(cell_lists)
        got = sample_pairs(students, exercises, (ptr, idx), tracker, count, default_rng(seed))
        rng = default_rng(seed)
        B = len(students)
        cols = [[], [], [], [], [], []]
        if B >= 2:
            first = rng.integers(0, B, size=count)
            second = (first + rng.integers(1, B, size=count)) % B
            sizes = np.diff(ptr)[exercises]
            pick_a = rng.integers(0, sizes[first])
            pick_b = rng.integers(0, sizes[second])
            for k in range(count):
                i, j = int(first[k]), int(second[k])
                assert i != j
                ci = int(idx[ptr[exercises[i]] : ptr[exercises[i] + 1]][pick_a[k]])
                cj = int(idx[ptr[exercises[j]] : ptr[exercises[j] + 1]][pick_b[k]])
                si, sj = int(students[i]), int(students[j])
                if tracker.seen[si, ci] == 0 or tracker.seen[sj, cj] == 0:
                    continue  # an untracked side drops the pair
                oi = tracker.hits[si, ci] / tracker.seen[si, ci]
                oj = tracker.hits[sj, cj] / tracker.seen[sj, cj]
                for col, item in zip(cols, (i, ci, oi, j, cj, oj)):
                    col.append(item)
        want = [np.array(col, dtype=np.float64 if k in (2, 5) else np.int64)
                for k, col in enumerate(cols)]
        fields = (got.pos_a, got.cell_a, got.o_a, got.pos_b, got.cell_b, got.o_b)
        for g, w in zip(fields, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
        for pos, cell in ((got.pos_a, got.cell_a), (got.pos_b, got.cell_b)):
            for p, c in zip(pos, cell):
                assert c in cell_lists[p]
        # sample_pairs leaves the generator where these four draws left it
        end = default_rng(seed)
        sample_pairs(students, exercises, (ptr, idx), tracker, count, end)
        assert end.integers(0, 2**62) == rng.integers(0, 2**62)
        return got.count

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
        t.seen[3, 2] = t.hits[3, 2] = 0  # student 3's shared concept 2 is untracked
        kept = [self.check(students, cells, t, 40, seed) for seed in range(5)]
        assert 0 < min(kept) < 40  # pairs survive, and some attempts are dropped

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
