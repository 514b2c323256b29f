"""The three diagnostic predictors and the parameter layout."""

import numpy as np
import pytest
from numpy.random import default_rng

from cogdiag import tape
from cogdiag.diagnostics import (
    EXERCISE_DIFF,
    EXERCISE_DISC,
    MLP_PARAMS,
    DiagnosticFunction,
    clamp_ncd_weights,
    init_parameters,
    mlp_layers,
    parameter_layout,
    predict_irt,
    predict_mirt,
    predict_ncd,
)
from cogdiag.data import build_dataset
from cogdiag.numerics import grad_check
from cogdiag.synth import planted_cohort
from cogdiag.training import CorrectnessTracker, TrainConfig, build_batch_graph, draw_batch_noise


def ncd_reference(theta, diff, disc, q, layers):
    """Straight-line NCD forward pass, scalar loops only."""
    x = [(q[k] * (theta[k] - diff[k])) * disc for k in range(len(theta))]
    for w, b in layers:
        nxt = []
        for col in range(w.shape[1]):
            s = b[col]
            for row in range(w.shape[0]):
                s += x[row] * w[row, col]
            nxt.append(1 / (1 + np.exp(-s)))
        x = nxt
    assert len(x) == 1
    return x[0]


class TestDiagnosticFunction:
    def test_latent_dim_rule(self):
        assert DiagnosticFunction("irt").latent_dim(123) == 1
        assert DiagnosticFunction("mirt").latent_dim(123) == 123
        assert DiagnosticFunction("ncd").latent_dim(7) == 7

    def test_defaults(self):
        fn = DiagnosticFunction("ncd")
        assert fn.irt_scale == 1.702
        assert fn.mlp_hidden == (512, 256)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiagnosticFunction("tree")
        with pytest.raises(ValueError):
            DiagnosticFunction("irt", irt_scale=0.0)
        with pytest.raises(ValueError):
            DiagnosticFunction("ncd", mlp_hidden=(0, 5))


class TestInitParameters:
    def test_shapes(self):
        fn = DiagnosticFunction("ncd", mlp_hidden=(8, 4))
        store = init_parameters(fn, 10, 20, 5, default_rng(0))
        assert store.params["student_mu"].shape == (10, 5)
        assert store.params["student_logvar"].shape == (10, 5)
        assert store.params[EXERCISE_DIFF].shape == (20, 5)
        assert store.params[EXERCISE_DISC].shape == (20, 1)
        assert store.params["mlp_w1"].shape == (5, 8)
        assert store.params["mlp_w3"].shape == (4, 1)
        np.testing.assert_array_equal(store.params["mlp_b2"], np.zeros(4))

    def test_irt_is_one_dimensional(self):
        store = init_parameters(DiagnosticFunction("irt"), 10, 20, 5, default_rng(0))
        assert store.params["student_mu"].shape == (10, 1)
        assert "mlp_w1" not in store.params

    def test_deterministic(self):
        fn = DiagnosticFunction("mirt")
        a = init_parameters(fn, 6, 9, 4, default_rng(5))
        b = init_parameters(fn, 6, 9, 4, default_rng(5))
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    @pytest.mark.parametrize("variant", ["irt", "mirt", "ncd"])
    def test_follows_the_layout(self, variant):
        fn = DiagnosticFunction(variant, mlp_hidden=(8, 4))
        store = init_parameters(fn, 10, 20, 5, default_rng(0))
        got = [
            (name, arr.shape, store.is_row_sparse(name)) for name, arr in store.params.items()
        ]
        assert got == parameter_layout(fn, 10, 20, 5)

    def test_xavier_bounds_hold(self):
        store = init_parameters(DiagnosticFunction("mirt"), 50, 100, 10, default_rng(1))
        bound = np.sqrt(6.0 / (50 + 10))
        assert np.max(np.abs(store.params["student_mu"])) <= bound


class TestPredictIRT:
    def test_matched_ability_gives_half(self):
        assert float(predict_irt(0.7, 0.7, 0.9)) == 0.5

    def test_frozen_unit_gap(self):
        # scale 1.702, full discrimination, gap one: sigmoid(1.702)
        got = float(predict_irt(1.0, 0.0, 1.0, scale=1.702))
        assert got == pytest.approx(0.8457957659328213, abs=1e-12)

    def test_vanishing_discrimination_flattens(self):
        assert float(predict_irt(0.9, 0.1, 1e-12)) == pytest.approx(0.5, abs=1e-9)

    def test_monotone_in_theta_and_antitone_in_difficulty(self):
        thetas = np.linspace(0.01, 0.99, 50)
        probs = predict_irt(thetas, 0.5, 0.8)
        assert np.all(np.diff(probs) > 0)
        diffs = np.linspace(0.01, 0.99, 50)
        probs = predict_irt(0.5, diffs, 0.8)
        assert np.all(np.diff(probs) < 0)

    def test_batch_shapes(self):
        out = predict_irt(np.full((4, 1), 0.6), np.full((4, 1), 0.2), np.full((4, 1), 0.5))
        assert out.shape == (4, 1)
        assert np.all((out > 0.5) & (out < 1))


class TestPredictMIRT:
    def test_empty_mask_gives_half(self):
        theta = np.array([0.9, 0.1, 0.4])
        assert float(predict_mirt(theta, theta * 0.0, np.zeros(3))) == 0.5

    def test_matched_gives_half(self):
        theta = np.array([0.3, 0.8])
        assert float(predict_mirt(theta, theta, np.ones(2))) == 0.5

    def test_frozen_masked_sum(self):
        # mask hides the middle term; 0.2 - 0.1 = 0.1 -> sigmoid(0.1)
        theta = np.array([0.7, 0.99, 0.2])
        diff = np.array([0.5, 0.01, 0.3])
        q = np.array([1.0, 0.0, 1.0])
        got = float(predict_mirt(theta, diff, q))
        assert got == pytest.approx(0.5249791874789399, abs=1e-12)

    def test_masked_dims_never_matter(self):
        rng = default_rng(8)
        q = np.array([1.0, 0.0, 1.0, 0.0])
        theta = rng.uniform(size=4)
        diff = rng.uniform(size=4)
        base = float(predict_mirt(theta, diff, q))
        theta2 = theta.copy()
        theta2[[1, 3]] = rng.uniform(size=2)
        assert float(predict_mirt(theta2, diff, q)) == base

    def test_batch(self):
        rng = default_rng(3)
        theta = rng.uniform(size=(6, 4))
        diff = rng.uniform(size=(6, 4))
        q = (rng.uniform(size=(6, 4)) < 0.5).astype(float)
        out = predict_mirt(theta, diff, q)
        ref = 1 / (1 + np.exp(-((theta - diff) * q).sum(axis=1)))
        np.testing.assert_allclose(out, ref, rtol=1e-12)


class TestPredictNCD:
    def layers(self, rng, d, h1=6, h2=3, nonneg=True):
        w = [rng.uniform(0, 1, size=(d, h1)), rng.uniform(0, 1, size=(h1, h2)),
             rng.uniform(0, 1, size=(h2, 1))]
        if not nonneg:
            w = [m - 0.5 for m in w]
        b = [rng.normal(size=h1), rng.normal(size=h2), rng.normal(size=1)]
        return list(zip(w, b))

    def test_zero_weights_give_half(self):
        d = 4
        layers = [
            (np.zeros((d, 6)), np.zeros(6)),
            (np.zeros((6, 3)), np.zeros(3)),
            (np.zeros((3, 1)), np.zeros(1)),
        ]
        out = float(predict_ncd(np.full(d, 0.9), np.full(d, 0.1), 1.0, np.ones(d), layers))
        assert out == 0.5

    def test_matches_scalar_reference(self):
        rng = default_rng(21)
        d = 5
        layers = self.layers(rng, d)
        theta = rng.uniform(size=d)
        diff = rng.uniform(size=d)
        q = (rng.uniform(size=d) < 0.6).astype(float)
        disc = 0.73
        got = float(predict_ncd(theta, diff, disc, q, layers))
        want = ncd_reference(theta, diff, disc, q, [(w, b) for w, b in layers])
        assert got == pytest.approx(want, abs=1e-10)

    def test_batch_matches_per_row(self):
        rng = default_rng(4)
        d, B = 4, 7
        layers = self.layers(rng, d)
        theta = rng.uniform(size=(B, d))
        diff = rng.uniform(size=(B, d))
        disc = rng.uniform(size=(B, 1))
        q = (rng.uniform(size=(B, d)) < 0.5).astype(float)
        out = predict_ncd(theta, diff, disc, q, layers)
        assert out.shape == (B,)
        for i in range(B):
            single = float(predict_ncd(theta[i], diff[i], float(disc[i, 0]), q[i], layers))
            assert out[i] == pytest.approx(single, abs=1e-12)

    def test_monotone_under_nonnegative_weights(self):
        rng = default_rng(33)
        d = 6
        for _ in range(100):
            layers = self.layers(rng, d)
            theta = rng.uniform(size=d)
            diff = rng.uniform(size=d)
            q = np.zeros(d)
            q[rng.integers(0, d)] = 1.0
            q[(rng.integers(0, d))] = 1.0
            base = float(predict_ncd(theta, diff, 0.8, q, layers))
            k = int(np.flatnonzero(q)[0])
            theta2 = theta.copy()
            theta2[k] += 0.1
            assert float(predict_ncd(theta2, diff, 0.8, q, layers)) >= base

    def test_output_strictly_inside_unit_interval(self):
        rng = default_rng(9)
        d = 3
        layers = self.layers(rng, d)
        theta = rng.uniform(size=(20, d))
        out = predict_ncd(theta, rng.uniform(size=(20, d)), 0.5, np.ones((20, d)), layers)
        assert np.all((out > 0) & (out < 1))


class TestClamp:
    def test_negative_weights_zeroed_biases_kept(self):
        store = init_parameters(DiagnosticFunction("ncd", mlp_hidden=(4, 2)), 3, 3, 2, default_rng(0))
        store.params["mlp_w1"][:] = np.linspace(-0.3, 0.2, 8).reshape(2, 4)
        store.params["mlp_b1"][:] = -1.0
        clamp_ncd_weights(store)
        assert np.all(store.params["mlp_w1"] >= 0.0)
        assert store.params["mlp_w1"][0, 0] == 0.0
        assert store.params["mlp_w1"][1, 3] == pytest.approx(0.2)
        np.testing.assert_array_equal(store.params["mlp_b1"], np.full(4, -1.0))

    def test_idempotent(self):
        store = init_parameters(DiagnosticFunction("ncd", mlp_hidden=(4, 2)), 3, 3, 2, default_rng(1))
        clamp_ncd_weights(store)
        snap = store.copy_params()
        clamp_ncd_weights(store)
        for name, arr in snap.items():
            np.testing.assert_array_equal(store.params[name], arr)


class TestPredictorGradients:
    def test_irt_gradients(self):
        # the irt head has no Node form; it trains inside the fused objective
        cohort = planted_cohort(n_students=8, n_exercises=12, n_concepts=3, per_student=6, seed=2)
        ds = build_dataset(cohort.logs, cohort.q_pairs, min_logs=1)
        fn = DiagnosticFunction("irt")
        cfg = TrainConfig(seed=2, gamma=0.3, beta=0.5)
        store = init_parameters(fn, ds.n_students, ds.n_exercises, ds.n_concepts, default_rng(2))
        tracker = CorrectnessTracker(ds.n_students, 1)
        tracker.seen[:] = 2
        tracker.hits[:] = default_rng(3).integers(0, 3, size=tracker.seen.shape)
        batch_idx = np.arange(10)
        noise = draw_batch_noise(ds, fn, cfg, batch_idx, tracker,
                                 default_rng(4), default_rng(5), default_rng(6))
        assert noise.pairs.count > 0

        def f(s):
            return build_batch_graph(ds, fn, s, batch_idx, cfg, noise, None)[0]

        assert grad_check(f, store) < 1e-5

    def test_ncd_gradients(self):
        rng = default_rng(14)
        fn = DiagnosticFunction("ncd", mlp_hidden=(5, 3))
        store = init_parameters(fn, 4, 4, 3, default_rng(6))
        clamp_ncd_weights(store)
        q = (rng.uniform(size=(4, 3)) < 0.7).astype(float)
        theta = rng.uniform(size=(4, 3))

        def f(s):
            # the head and its vjp as one Node between tape ops
            diff = tape.sigmoid(s.leaf(EXERCISE_DIFF))
            disc = tape.sigmoid(s.leaf(EXERCISE_DISC))
            mlp = [s.leaf(name) for name in MLP_PARAMS]
            y, grads = predict_ncd(theta, diff.value, disc.value, q, mlp_layers(s), vjp=True)

            def vjp(g):
                g_gap, *rest = grads(g)
                return (-g_gap, *rest)

            return tape.nmean(tape.square(tape.Node(y, (diff, disc, *mlp), vjp)))

        assert grad_check(f, store) < 1e-4
