"""Variance dropout, sampling, KL terms."""

import numpy as np
import pytest
from numpy.random import default_rng

from cogdiag.data import build_dataset
from cogdiag.diagnostics import DiagnosticFunction, init_parameters
from cogdiag.latent import (
    STANDARD_PRIOR,
    STUDENT_LOGVAR,
    STUDENT_MEAN,
    PriorConsensus,
    apply_dropout_mask,
    compute_consensus,
    draw_ability,
    dropout_mask,
    kl_consensus,
)
from cogdiag.numerics import ParameterStore, grad_check
from cogdiag.synth import planted_cohort
from cogdiag.training import CorrectnessTracker, TrainConfig, batch_loss, draw_batch_noise

import reftape as tape


def mc_kl(mean, variance, prior_mean, n=400_000, seed=0):
    """Monte Carlo KL(N(mean, var) || N(prior_mean, 1)) by direct sampling."""
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    variance = np.atleast_1d(np.asarray(variance, dtype=np.float64))
    prior_mean = np.broadcast_to(np.asarray(prior_mean, dtype=np.float64), mean.shape)
    rng = default_rng(seed)
    z = mean + np.sqrt(variance) * rng.standard_normal((n, mean.size))
    log_q = -0.5 * (np.log(2 * np.pi * variance) + (z - mean) ** 2 / variance)
    log_p = -0.5 * (np.log(2 * np.pi) + (z - prior_mean) ** 2)
    return float(np.mean((log_q - log_p).sum(axis=1)))


def store_with(mu, logvar):
    store = ParameterStore()
    store.add(STUDENT_MEAN, np.atleast_2d(mu))
    store.add(STUDENT_LOGVAR, np.atleast_2d(logvar))
    return store


class TestVarianceDropout:
    def test_disabled_is_identity(self):
        var = np.array([0.3, 2.0])
        out = apply_dropout_mask(var, dropout_mask(var.shape, 1.0, default_rng(0)), 0.5)
        np.testing.assert_array_equal(out, var)

    def test_all_dropped_pins_to_alpha(self):
        var = np.array([0.3, 2.0, 0.9])
        out = apply_dropout_mask(var, np.zeros(3, dtype=bool), 0.5)
        np.testing.assert_array_equal(out, [0.5, 0.5, 0.5])

    def test_outputs_exactly_original_or_alpha(self):
        # membership must be bit-exact, not merely close
        rng = default_rng(42)
        var = rng.uniform(0.01, 3.0, size=1000)
        out = apply_dropout_mask(var, dropout_mask(var.shape, 0.5, rng), 0.5)
        assert np.all((out == var) | (out == 0.5))
        assert np.any(out == 0.5) and np.any(out == var)

    def test_keep_rate_statistics(self):
        rng = default_rng(7)
        var = np.full(100_000, 2.0)
        out = apply_dropout_mask(var, dropout_mask(var.shape, 0.5, rng), 0.5)
        # expected mean 0.5 * 2.0 + 0.5 * 0.5 = 1.25
        assert abs(out.mean() - 1.25) < 0.02

    def test_mask_respects_probability(self):
        mask = dropout_mask((50_000,), 0.8, default_rng(3))
        assert abs(mask.mean() - 0.8) < 0.01

    def test_config_validation(self):
        with pytest.raises(ValueError, match="dropout alpha"):
            TrainConfig(dropout_alpha=0.0)
        with pytest.raises(ValueError, match="dropout keep_probability"):
            TrainConfig(dropout_keep=0.0)
        with pytest.raises(ValueError, match="dropout keep_probability"):
            TrainConfig(dropout_keep=1.2)

    def test_gradient_flows_only_through_kept(self):
        # one occurrence per student, KL only: every kept cell's log-variance
        # gets a gradient, and no dropped one does
        cohort = planted_cohort(n_students=6, n_exercises=10, n_concepts=3, per_student=5, seed=1)
        ds = build_dataset(cohort.logs, cohort.q_pairs, min_logs=1)
        fn = DiagnosticFunction("mirt")
        cfg = TrainConfig(seed=1, gamma=0.5, beta=0.0)
        store = init_parameters(fn, ds.n_students, ds.n_exercises, ds.n_concepts, default_rng(1))
        students, batch_idx = np.unique(ds.s_idx, return_index=True)
        tracker = CorrectnessTracker(ds.n_students, fn.latent_dim(ds.n_concepts))
        noise = draw_batch_noise(ds, fn.cells(ds), cfg, batch_idx, tracker,
                                 default_rng(2), default_rng(3), default_rng(4))
        assert noise.keep_mask.any() and not noise.keep_mask.all()
        batch_loss(ds, fn, store, batch_idx, cfg, noise)
        np.testing.assert_array_equal(store.grad(STUDENT_LOGVAR)[students] != 0, noise.keep_mask)


class TestSampling:
    def test_degenerate_variance_recovers_mean(self):
        mean = np.array([0.3, -1.2])
        theta = draw_ability(mean, np.full(2, 1e-14), default_rng(0).standard_normal(2))[0]
        np.testing.assert_allclose(theta, 1 / (1 + np.exp(-mean)), atol=1e-5)

    def test_moments(self):
        rng = default_rng(123)
        mean = np.zeros(100_000)
        theta = draw_ability(mean, np.ones_like(mean), rng.standard_normal(mean.shape))[0]
        assert np.all((theta > 0) & (theta < 1))
        z = np.log(theta / (1.0 - theta))  # the draw, read back through the logit
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.02

    def test_deterministic_under_seed(self):
        mean, variance = np.array([0.5]), np.exp([0.3])
        a = draw_ability(mean, variance, default_rng(9).standard_normal(1))
        b = draw_ability(mean, variance, default_rng(9).standard_normal(1))
        np.testing.assert_array_equal(a[0], b[0])


class TestKL:
    def test_standard_zero_at_prior(self):
        assert float(kl_consensus(np.zeros(4), np.ones(4), STANDARD_PRIOR)[0]) == 0.0

    def test_standard_frozen_values(self):
        # d=1: 0.5 * (1 + 1 - 0 - 1) = 0.5
        got = kl_consensus(np.array([1.0]), np.array([1.0]), STANDARD_PRIOR)[0]
        assert float(got) == pytest.approx(0.5)
        # d=1, mu=0, var=e: (e - 2) / 2
        got = kl_consensus(np.array([0.0]), np.array([np.e]), STANDARD_PRIOR)[0]
        assert float(got) == pytest.approx(0.3591409142295226, abs=1e-12)

    def test_standard_sums_over_dims(self):
        mu = np.array([1.0, 1.0])
        var = np.ones(2)
        assert float(kl_consensus(mu, var, STANDARD_PRIOR)[0]) == pytest.approx(1.0)

    def test_batch_shape(self):
        mu = np.zeros((5, 3))
        var = np.ones((5, 3))
        out = kl_consensus(mu, var, STANDARD_PRIOR)[0]
        assert out.shape == (5,)
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_nonnegative_on_grid(self):
        mus, vars = np.meshgrid(np.linspace(-3, 3, 25), np.linspace(0.05, 5, 25))
        vals = 0.5 * (mus**2 + vars - np.log(vars) - 1)
        got = kl_consensus(mus.reshape(-1, 1), vars.reshape(-1, 1), STANDARD_PRIOR)[0]
        np.testing.assert_allclose(got, vals.reshape(-1), rtol=1e-12)
        assert np.all(got >= 0.0)

    def test_standard_against_monte_carlo(self):
        for mu, var in [(0.7, 0.4), (-1.2, 2.5), (0.0, 1.0)]:
            closed = float(kl_consensus(np.array([mu]), np.array([var]), STANDARD_PRIOR)[0])
            assert abs(closed - mc_kl(mu, var, 0.0)) < 2e-2

    def test_consensus_zero_at_prior(self):
        prior = PriorConsensus(mean=np.array([1.0, -0.5]))
        assert float(kl_consensus(prior.mean.copy(), np.ones(2), prior)[0]) == 0.0

    def test_consensus_frozen_value(self):
        prior = PriorConsensus(mean=np.array([1.0]))
        got = kl_consensus(np.array([0.0]), np.array([1.0]), prior)[0]
        assert float(got) == pytest.approx(0.5)

    def test_consensus_with_zero_prior_matches_standard_bitwise(self):
        rng = default_rng(5)
        mu = rng.normal(size=(8, 3))
        var = rng.uniform(0.1, 3.0, size=(8, 3))
        prior = PriorConsensus(mean=np.zeros(3))
        standard = kl_consensus(mu, var, STANDARD_PRIOR)[0]
        np.testing.assert_array_equal(kl_consensus(mu, var, prior)[0], standard)

    def test_consensus_against_monte_carlo(self):
        prior = PriorConsensus(mean=np.array([0.8, -0.3]))
        mu = np.array([0.1, 0.5])
        var = np.array([0.6, 1.7])
        closed = float(kl_consensus(mu, var, prior)[0])
        assert abs(closed - mc_kl(mu, var, prior.mean)) < 2e-2

    def test_gradients(self):
        rng = default_rng(17)
        store = store_with(rng.normal(size=(3, 2)), rng.normal(scale=0.5, size=(3, 2)))
        prior = PriorConsensus(mean=rng.normal(size=2))

        def kl_node(s, prior):
            # the closed-form KL and its vjp as one Node between reference ops
            mean, var = tape.leaf(s, STUDENT_MEAN), tape.exp(tape.leaf(s, STUDENT_LOGVAR))
            out, grads = kl_consensus(mean.value, var.value, prior)
            kl = tape.Node(out, (mean, var, var), grads)
            return tape.nmean(kl)

        assert grad_check(tape.objective(lambda s: kl_node(s, prior)), store) < 1e-4
        assert grad_check(tape.objective(lambda s: kl_node(s, STANDARD_PRIOR)), store) < 1e-4


class TestConsensus:
    def test_mean_of_means(self):
        prior = compute_consensus(np.array([[0.0, 2.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(prior.mean, [1.0, 1.0])

    def test_single_student(self):
        prior = compute_consensus(np.array([[0.3, -0.7]]))
        np.testing.assert_array_equal(prior.mean, [0.3, -0.7])

    def test_streaming_oracle(self):
        rng = default_rng(2026)
        means = rng.normal(size=(2493, 7))
        acc = np.zeros(7)
        for row in means:
            acc += row
        np.testing.assert_allclose(compute_consensus(means).mean, acc / 2493, atol=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_consensus(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            compute_consensus(np.zeros(3))
