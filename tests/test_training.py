"""Loss terms, tracker, pair sampling, batch loss, and the two-phase loop."""

import numpy as np
import pytest
from numpy.random import default_rng

from cogdiag import tape
from cogdiag.data import SplitSpec, build_dataset, split_per_student
from cogdiag.diagnostics import DiagnosticFunction, init_parameters
from cogdiag.latent import DropoutConfig
from cogdiag.numerics import grad_check
from cogdiag.seeding import substream
from cogdiag.synth import planted_cohort
from cogdiag.training import (
    BatchNoise,
    CorrectnessTracker,
    NonFiniteLossError,
    TrainConfig,
    Trainer,
    batch_loss,
    build_batch_graph,
    calibration_pair_loss,
    draw_batch_noise,
    prediction_loss,
    sample_pairs,
)


def tiny_dataset(seed=1, students=30, exercises=40, concepts=4, per_student=20):
    cohort = planted_cohort(
        n_students=students,
        n_exercises=exercises,
        n_concepts=concepts,
        per_student=per_student,
        seed=seed,
    )
    return build_dataset(cohort.logs, cohort.q_pairs, min_logs=1)


def as_csr(cell_lists):
    """Instance k's cells as exercise k of a CSR layout: (exercises, (ptr, idx))."""
    ptr = np.cumsum([0] + [len(c) for c in cell_lists])
    idx = np.concatenate(cell_lists).astype(np.int64)
    return np.arange(len(cell_lists)), (ptr, idx)


def quick_config(**overrides):
    base = dict(max_epochs=2, pretrain_epochs=2, seed=3, batch_size=16)
    base.update(overrides)
    return TrainConfig(**base)


class TestPredictionLoss:
    def test_coin_flip_is_log_two(self):
        got = float(tape.value_of(prediction_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0]))))
        assert got == pytest.approx(np.log(2.0), abs=1e-15)

    def test_confident_and_right_is_near_zero(self):
        got = float(tape.value_of(prediction_loss(np.array([0.999999]), np.array([1.0]))))
        assert got < 1e-5

    def test_frozen_single_case(self):
        # -log(0.1) for a confident miss
        got = float(tape.value_of(prediction_loss(np.array([0.1]), np.array([1.0]))))
        assert got == pytest.approx(2.302585092994046, abs=1e-12)

    def test_mean_over_batch(self):
        y = np.array([0.8, 0.3])
        r = np.array([1.0, 0.0])
        want = -np.mean([np.log(0.8), np.log(0.7)])
        got = float(tape.value_of(prediction_loss(y, r)))
        assert got == pytest.approx(want, abs=1e-14)


class TestTracker:
    def test_frequency_accumulates(self):
        t = CorrectnessTracker(2, 3)
        cells = [np.array([0]), np.array([0])]
        t.update([1, 1], *as_csr(cells), np.array([0.9, 0.2]), np.array([1.0, 1.0]))
        t.update([1, 1], *as_csr(cells), np.array([0.7, 0.8]), np.array([1.0, 0.0]))
        # outcomes: hit, miss, hit, miss -> 2/4
        assert t.frequency(1, 0) == pytest.approx(0.5)
        assert t.seen[1, 0] == 4

    def test_unseen_is_none(self):
        t = CorrectnessTracker(2, 3)
        assert t.frequency(0, 0) is None

    def test_tie_predicts_correct(self):
        t = CorrectnessTracker(1, 1)
        t.update([0], *as_csr([np.array([0])]), np.array([0.5]), np.array([1.0]))
        assert t.frequency(0, 0) == 1.0
        t.update([0], *as_csr([np.array([0])]), np.array([0.5]), np.array([0.0]))
        assert t.frequency(0, 0) == 0.5

    def test_fans_out_to_all_exercise_concepts(self):
        t = CorrectnessTracker(1, 6)
        t.update([0], *as_csr([np.array([2, 5])]), np.array([0.9]), np.array([1.0]))
        assert t.seen[0, 2] == 1 and t.seen[0, 5] == 1
        assert t.seen[0, 0] == 0

    def test_observed_cells(self):
        t = CorrectnessTracker(2, 2)
        t.update([0], *as_csr([np.array([1])]), np.array([0.9]), np.array([1.0]))
        s, c, o = t.observed_cells()
        np.testing.assert_array_equal(s, [0])
        np.testing.assert_array_equal(c, [1])
        np.testing.assert_array_equal(o, [1.0])


class TestCalibrationPairLoss:
    def loss(self, va, vb, oa, ob, mode="consistent"):
        return float(tape.value_of(calibration_pair_loss(
            np.array(va), np.array(vb), oa, ob, mode
        )))

    def test_tie_is_exactly_zero(self):
        for mode in ("consistent", "literal"):
            assert self.loss(0.9, 0.1, 0.5, 0.5, mode) == 0.0
            assert self.loss(0.123, 3.21, 0.0, 0.0, mode) == 0.0

    def test_satisfied_ordering_with_margin(self):
        # higher correctness, lower variance, variance gap beats margin
        assert self.loss(0.1, 0.9, 0.8, 0.2) == 0.0

    def test_violated_ordering_pays(self):
        # higher correctness but higher variance: hinge is active
        got = self.loss(0.9, 0.1, 0.8, 0.2)
        assert got == pytest.approx((0.9 - 0.1) + 0.6, abs=1e-12)

    def test_margin_counts_even_when_ordered(self):
        # ordered but the variance gap is smaller than the margin
        got = self.loss(0.5, 0.6, 0.9, 0.3)
        assert got == pytest.approx(-0.1 + 0.6, abs=1e-12)

    def test_literal_mode_flips_the_variance_term(self):
        # consistent: satisfied; literal: same pair becomes a violation
        assert self.loss(0.1, 0.9, 0.9, 0.4, "consistent") == 0.0
        assert self.loss(0.1, 0.9, 0.9, 0.4, "literal") == pytest.approx(0.8 + 0.5, abs=1e-12)

    def test_swap_symmetric_exactly(self):
        rng = default_rng(7)
        for _ in range(200):
            va, vb = rng.uniform(0.01, 3.0, size=2)
            oa, ob = rng.integers(0, 5, size=2) / 4.0
            for mode in ("consistent", "literal"):
                assert self.loss(va, vb, oa, ob, mode) == self.loss(vb, va, ob, oa, mode)

    def test_vectorized_over_pairs(self):
        va = np.array([0.1, 0.9])
        vb = np.array([0.9, 0.1])
        out = tape.value_of(calibration_pair_loss(va, vb, np.array([0.8, 0.8]), np.array([0.2, 0.2])))
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.4, abs=1e-12)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            calibration_pair_loss(np.array(0.1), np.array(0.2), 0.5, 0.6, "upside-down")

    def test_gradient_pushes_confident_cell_down(self):
        # active hinge, consistent mode: d loss / d var_a = +1 when o_a > o_b,
        # so gradient descent shrinks the higher-correctness variance
        _, grads = calibration_pair_loss(np.array(0.9), np.array(0.1), 0.8, 0.2, vjp=True)
        g_a, g_b = grads(np.array(1.0))
        assert float(g_a) == 1.0
        assert float(g_b) == -1.0


class TestSamplePairs:
    def tracker_with_history(self, n_students, n_cells, rng):
        t = CorrectnessTracker(n_students, n_cells)
        t.seen = rng.integers(0, 4, size=(n_students, n_cells))
        t.hits = np.minimum(rng.integers(0, 4, size=(n_students, n_cells)), t.seen)
        return t

    def test_empty_tracker_yields_no_pairs(self):
        t = CorrectnessTracker(5, 3)
        students = np.array([0, 1, 2])
        cells = [np.array([0]), np.array([1]), np.array([2])]
        pairs = sample_pairs(students, *as_csr(cells), t, 10, default_rng(0))
        assert pairs.count == 0

    def test_single_instance_batch_yields_no_pairs(self):
        t = self.tracker_with_history(3, 3, default_rng(1))
        pairs = sample_pairs(np.array([0]), *as_csr([np.array([0])]), t, 8, default_rng(0))
        assert pairs.count == 0

    def test_positions_are_distinct(self):
        rng = default_rng(5)
        t = self.tracker_with_history(6, 4, rng)
        t.seen[:] = 2  # all cells known so every attempt survives
        students = np.arange(6)
        cells = [np.array([0, 1, 2, 3])] * 6
        pairs = sample_pairs(students, *as_csr(cells), t, 50, default_rng(9))
        assert pairs.count == 50
        assert np.all(pairs.pos_a != pairs.pos_b)

    def test_survival_filter(self):
        t = CorrectnessTracker(2, 2)
        t.seen[0, 0] = 3
        t.hits[0, 0] = 2
        # student 1 has no history at all; only (0,0)-(0,0) pairs could
        # survive, but positions must differ so both sides hit student 0
        students = np.array([0, 0, 1])
        cells = [np.array([0]), np.array([0]), np.array([1])]
        pairs = sample_pairs(students, *as_csr(cells), t, 40, default_rng(3))
        assert pairs.count > 0
        assert np.all(pairs.o_a == pytest.approx(2 / 3))
        assert set(pairs.pos_a) <= {0, 1} and set(pairs.pos_b) <= {0, 1}

    def test_deterministic_under_seed(self):
        t = self.tracker_with_history(6, 4, default_rng(2))
        students = np.arange(6)
        cells = [np.array([0, 1, 2, 3])] * 6
        a = sample_pairs(students, *as_csr(cells), t, 20, default_rng(42))
        b = sample_pairs(students, *as_csr(cells), t, 20, default_rng(42))
        np.testing.assert_array_equal(a.pos_a, b.pos_a)
        np.testing.assert_array_equal(a.cell_b, b.cell_b)


def oracle_total(dataset, fn, store, batch_idx, cfg, noise, prior_mean):
    """Instance-by-instance recomputation of the full objective, no tape."""

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    params = store.params
    bces = []
    kls = []
    for row, pos in enumerate(batch_idx):
        s = dataset.s_idx[pos]
        e = dataset.e_idx[pos]
        r = dataset.scores[pos]
        mu = params["student_mu"][s]
        var = np.exp(params["student_logvar"][s])
        vhat = np.where(noise.keep_mask[row], var, cfg.dropout.alpha)
        theta = sig(mu + np.sqrt(vhat) * noise.eps[row])
        diff = sig(params["exercise_diff"][e])
        disc = sig(params["exercise_disc"][e, 0])
        if fn.variant == "irt":
            y = sig(fn.irt_scale * disc * (theta[0] - diff[0]))
        elif fn.variant == "mirt":
            q = dataset.dense_q[e]
            y = sig(np.sum(q * (theta - diff)))
        else:
            q = dataset.dense_q[e]
            x = q * (theta - diff) * disc
            for name_w, name_b in (("mlp_w1", "mlp_b1"), ("mlp_w2", "mlp_b2"), ("mlp_w3", "mlp_b3")):
                x = sig(x @ params[name_w] + params[name_b])
            y = x[0]
        bces.append(-(r * np.log(y) + (1 - r) * np.log(1 - y)))
        pm = np.zeros_like(mu) if prior_mean is None else prior_mean
        kls.append(0.5 * np.sum((mu - pm) ** 2 + vhat - np.log(vhat) - 1.0))

    total = np.mean(bces) + cfg.gamma * np.mean(kls)
    if noise.pairs is not None and noise.pairs.count:
        p = noise.pairs
        terms = []
        for k in range(p.count):
            def vhat_at(pos_row, cell):
                s = dataset.s_idx[batch_idx[pos_row]]
                var = np.exp(params["student_logvar"][s, cell])
                return var if noise.keep_mask[pos_row, cell] else cfg.dropout.alpha

            g = np.sign(p.o_a[k] - p.o_b[k])
            if cfg.calibration_sign == "literal":
                g = -g
            raw = g * (vhat_at(p.pos_a[k], p.cell_a[k]) - vhat_at(p.pos_b[k], p.cell_b[k]))
            terms.append(max(0.0, raw + abs(p.o_a[k] - p.o_b[k])))
        total += cfg.beta * np.mean(terms)
    return total


class TestBatchLoss:
    def setup_case(self, variant, seed=0, with_pairs=False, cfg=None):
        ds = tiny_dataset(seed=seed)
        fn = DiagnosticFunction(variant, mlp_hidden=(6, 4))
        cfg = cfg or TrainConfig(seed=seed)
        store = init_parameters(fn, ds.n_students, ds.n_exercises, ds.n_concepts, default_rng(seed))
        tracker = CorrectnessTracker(ds.n_students, fn.latent_dim(ds.n_concepts))
        if with_pairs:
            rng = default_rng(seed + 1)
            tracker.seen = rng.integers(0, 3, size=tracker.seen.shape)
            tracker.hits = np.minimum(rng.integers(0, 3, size=tracker.seen.shape), tracker.seen)
        batch_idx = np.arange(16)
        noise = draw_batch_noise(
            ds, fn, cfg, batch_idx, tracker,
            substream(seed, "sampling"), substream(seed, "dropout"),
            substream(seed, "pairing") if with_pairs else None,
        )
        return ds, fn, cfg, store, batch_idx, noise

    def test_zero_weights_reduce_to_plain_bce(self):
        cfg = TrainConfig(gamma=0.0, beta=0.0, seed=0)
        ds, fn, cfg, store, batch_idx, noise = self.setup_case("mirt", cfg=cfg)
        breakdown, probs = batch_loss(ds, fn, store, batch_idx, cfg, noise)
        assert breakdown.total == breakdown.prediction
        r = ds.scores[batch_idx]
        want = -np.mean(r * np.log(probs) + (1 - r) * np.log(1 - probs))
        assert breakdown.total == pytest.approx(want, abs=1e-12)
        assert breakdown.kl == 0.0 and breakdown.calibration == 0.0

    def test_forced_coin_flip_ncd_gives_log_two(self):
        ds, fn, cfg, store, batch_idx, noise = self.setup_case("ncd")
        for name in ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2", "mlp_w3", "mlp_b3"):
            store.params[name][:] = 0.0
        breakdown, probs = batch_loss(ds, fn, store, batch_idx, cfg, noise)
        np.testing.assert_array_equal(probs, np.full(len(batch_idx), 0.5))
        assert breakdown.prediction == pytest.approx(np.log(2.0), abs=1e-9)

    @pytest.mark.parametrize("variant", ["irt", "mirt", "ncd"])
    def test_matches_straight_line_oracle(self, variant):
        ds, fn, cfg, store, batch_idx, noise = self.setup_case(variant, seed=5, with_pairs=True)
        assert noise.pairs is not None and noise.pairs.count > 0
        breakdown, _ = batch_loss(ds, fn, store, batch_idx, cfg, noise)
        want = oracle_total(ds, fn, store, batch_idx, cfg, noise, prior_mean=None)
        assert breakdown.total == pytest.approx(want, abs=1e-10)

    def test_oracle_with_consensus_prior(self):
        from cogdiag.latent import PriorConsensus

        ds, fn, cfg, store, batch_idx, noise = self.setup_case("mirt", seed=2, with_pairs=True)
        prior = PriorConsensus(mean=default_rng(4).normal(size=ds.n_concepts))
        breakdown, _ = batch_loss(ds, fn, store, batch_idx, cfg, noise, prior)
        want = oracle_total(ds, fn, store, batch_idx, cfg, noise, prior_mean=prior.mean)
        assert breakdown.total == pytest.approx(want, abs=1e-10)

    def test_gradients_populated(self):
        ds, fn, cfg, store, batch_idx, noise = self.setup_case("ncd", seed=1)
        batch_loss(ds, fn, store, batch_idx, cfg, noise)
        for name in ("student_mu", "student_logvar", "exercise_diff", "mlp_w1"):
            assert np.any(store.grads[name] != 0.0), name

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_kl_is_named(self):
        ds, fn, cfg, store, batch_idx, noise = self.setup_case("mirt", seed=3)
        store.params["student_mu"][:] = 1e200  # square overflows to inf
        with pytest.raises(NonFiniteLossError, match="kl"):
            batch_loss(ds, fn, store, batch_idx, cfg, noise)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_loss_names_phase_epoch_and_step(self):
        ds = tiny_dataset(seed=3)
        cfg = quick_config(max_epochs=1, pretrain_epochs=3)

        def poison(record):
            # after phase one's first epoch the means overflow the KL square
            trainer.store.params["student_mu"][:] = 1e200

        trainer = Trainer(ds, DiagnosticFunction("mirt"), cfg, on_epoch=poison)
        with pytest.raises(NonFiniteLossError, match=r"^phase 1, epoch 1, step 0: kl loss"):
            trainer.train()

    def test_non_finite_gradient_names_phase_epoch_and_step(self, monkeypatch):
        from cogdiag import training
        from cogdiag.numerics import NonFiniteGradientError

        real_step = training.adam_step
        calls = []

        def adam_step(store, cfg, lazy=False):
            calls.append(None)
            if len(calls) == 3:
                store.grads["exercise_diff"][:] = np.nan
            real_step(store, cfg, lazy=lazy)

        monkeypatch.setattr(training, "adam_step", adam_step)
        trainer = Trainer(tiny_dataset(seed=3), DiagnosticFunction("mirt"), quick_config())
        with pytest.raises(
            NonFiniteGradientError,
            match=r"^phase 1, epoch 0, step 2: non-finite gradient for parameter 'exercise_diff'",
        ):
            trainer.train()

    def test_full_objective_gradients(self):
        ds = tiny_dataset(seed=9, students=8, exercises=12, concepts=3, per_student=6)
        fn = DiagnosticFunction("ncd", mlp_hidden=(4, 3))
        cfg = TrainConfig(seed=9)
        store = init_parameters(fn, ds.n_students, ds.n_exercises, ds.n_concepts, default_rng(9))
        tracker = CorrectnessTracker(ds.n_students, ds.n_concepts)
        tracker.seen[:] = 2
        tracker.hits[:] = default_rng(10).integers(0, 3, size=tracker.seen.shape)
        batch_idx = np.arange(8)
        noise = draw_batch_noise(
            ds, fn, cfg, batch_idx, tracker,
            substream(9, "sampling"), substream(9, "dropout"), substream(9, "pairing"),
        )

        def objective(s):
            total, _, _ = build_batch_graph(ds, fn, s, batch_idx, cfg, noise, None)
            return total

        assert grad_check(objective, store) < 1e-4

    def test_cell_layout_irt_uses_single_slot(self):
        ds = tiny_dataset(seed=0)
        ptr, idx = DiagnosticFunction("irt").cells(ds)
        np.testing.assert_array_equal(ptr, np.arange(ds.n_exercises + 1))
        np.testing.assert_array_equal(idx, np.zeros(ds.n_exercises))
        ptr, idx = DiagnosticFunction("mirt").cells(ds)
        assert ptr is ds.concept_ptr and idx is ds.concept_idx

    def test_dropout_disabled_keeps_raw_variance(self):
        cfg = TrainConfig(dropout=DropoutConfig(enabled=False), seed=0)
        ds, fn, cfg, store, batch_idx, noise = self.setup_case("mirt", cfg=cfg)
        assert noise.keep_mask.all()


class TestTrainer:
    def test_loss_decreases_on_toy(self):
        ds = tiny_dataset(seed=4)
        trainer = Trainer(ds, DiagnosticFunction("mirt"), quick_config(max_epochs=6, pretrain_epochs=4))
        trainer.train()
        first = trainer.history[0].prediction
        last = trainer.history[-1].prediction
        assert last < first

    def test_phases_recorded_in_order(self):
        ds = tiny_dataset(seed=4)
        trainer = Trainer(ds, DiagnosticFunction("mirt"), quick_config())
        trainer.train()
        phases = [rec.phase for rec in trainer.history]
        assert phases == [1, 1, 2, 2]
        epochs = [rec.epoch for rec in trainer.history]
        assert epochs == [0, 1, 2, 3]

    def test_zero_epochs_returns_initialization(self):
        ds = tiny_dataset(seed=8)
        fn = DiagnosticFunction("mirt")
        cfg = quick_config(max_epochs=0, pretrain_epochs=0, seed=5)
        ck = Trainer(ds, fn, cfg).train()
        expected = init_parameters(
            fn, ds.n_students, ds.n_exercises, ds.n_concepts, substream(5, "init")
        )
        for name, arr in expected.params.items():
            np.testing.assert_array_equal(ck.params[name], arr)
        np.testing.assert_array_equal(
            ck.consensus_mean, expected.params["student_mu"].mean(axis=0)
        )
        assert ck.best_epoch == -1
        assert ck.val_metrics == {}

    def test_tracker_counts_only_phase_two(self):
        ds = tiny_dataset(seed=4)
        fn = DiagnosticFunction("mirt")
        trainer = Trainer(ds, fn, quick_config(max_epochs=2, pretrain_epochs=3))
        trainer.train()
        per_epoch = np.diff(ds.concept_ptr)[ds.e_idx[trainer.splits.train]].sum()
        assert trainer.tracker.seen.sum() == 2 * per_epoch

    def test_consensus_frozen_after_phase_one(self):
        ds = tiny_dataset(seed=4)
        trainer = Trainer(ds, DiagnosticFunction("mirt"), quick_config())
        trainer.train()
        assert trainer.prior is not None
        # prior must NOT equal the final posterior mean average; it was
        # frozen before phase two moved the means
        final_mean = trainer.store.params["student_mu"].mean(axis=0)
        assert not np.allclose(trainer.prior.mean, final_mean)

    def test_deterministic_and_seed_sensitive(self):
        ds = tiny_dataset(seed=6)
        fn = DiagnosticFunction("ncd", mlp_hidden=(6, 4))
        ck_a = Trainer(ds, fn, quick_config(seed=21)).train()
        ck_b = Trainer(ds, fn, quick_config(seed=21)).train()
        for name in ck_a.params:
            np.testing.assert_array_equal(ck_a.params[name], ck_b.params[name])
        ck_c = Trainer(ds, fn, quick_config(seed=22)).train()
        assert any(
            not np.array_equal(ck_a.params[name], ck_c.params[name]) for name in ck_a.params
        )

    def test_early_stopping_cuts_the_run_short(self):
        rng = default_rng(0)
        cohort = planted_cohort(n_students=20, n_exercises=30, n_concepts=3, per_student=15, seed=2)
        # coin-flip labels: validation AUC is noise, patience 1 should fire fast
        logs = [
            type(log)(log.student_id, log.exercise_id, int(rng.random() < 0.5))
            for log in cohort.logs
        ]
        ds = build_dataset(logs, cohort.q_pairs, min_logs=1)
        cfg = quick_config(max_epochs=30, pretrain_epochs=0, patience=1, seed=1)
        trainer = Trainer(ds, DiagnosticFunction("mirt"), cfg)
        trainer.train()
        assert len(trainer.history) < 30

    def test_lazy_and_dense_adam_agree_without_dropout_reuse(self):
        # same seed, same data: lazy row updates must not change results
        # when every step touches disjoint moment state identically
        ds = tiny_dataset(seed=3, students=10, exercises=15, concepts=3, per_student=8)
        fn = DiagnosticFunction("mirt")
        cfg_lazy = quick_config(max_epochs=1, pretrain_epochs=1, seed=2, lazy_adam=True)
        cfg_dense = quick_config(max_epochs=1, pretrain_epochs=1, seed=2, lazy_adam=False)
        ck_lazy = Trainer(ds, fn, cfg_lazy).train()
        ck_dense = Trainer(ds, fn, cfg_dense).train()
        # a student seen in only one batch per epoch has identical moments
        # either way; overall parameters stay close (stale-moment drift only)
        for name in ("student_mu", "exercise_diff"):
            np.testing.assert_allclose(
                ck_lazy.params[name], ck_dense.params[name], atol=5e-3
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(gamma=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(calibration_sign="sideways")
        with pytest.raises(ValueError):
            TrainConfig(seed=-1)
