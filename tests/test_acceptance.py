"""Acceptance gate: ten end-to-end guarantees, one test per criterion.

Each test prints a single ``criterion N (...): PASS`` line (visible with
``pytest -s``) and is named so that ``pytest -v`` shows one line per
criterion either way.  Criterion 9 needs the real Assist2009 dataset and
is skipped with instructions when the files are absent.
"""

import csv
import os
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.random import default_rng

from cogdiag import tape
from cogdiag.checkpoint import load_checkpoint, save_checkpoint
from cogdiag.cli import main
from cogdiag.data import (
    SplitSpec,
    build_dataset,
    load_logs,
    load_qmatrix,
    split_per_student,
)
from cogdiag.diagnostics import DiagnosticFunction, init_parameters
from cogdiag.inference import concept_interaction_counts, evaluate_probs, evaluate_store
from cogdiag.latent import STANDARD_PRIOR, PriorConsensus, kl_consensus, variance_from_logvar
from cogdiag.metrics import acc, auc, calibration, rmse, spearman
from cogdiag.numerics import grad_check
from cogdiag.seeding import substream
from cogdiag.synth import planted_cohort, write_cohort_csv
from cogdiag.training import (
    CorrectnessTracker,
    TrainConfig,
    Trainer,
    batch_loss,
    build_batch_graph,
    calibration_pair_loss,
    draw_batch_noise,
)


def report(n, label, detail=""):
    suffix = f" — {detail}" if detail else ""
    print(f"criterion {n} ({label}): PASS{suffix}")


# ----------------------------------------------------------------------
# shared heavy fixture: the synthetic recovery run used by criteria 5-7
# ----------------------------------------------------------------------

RECOVERY_SHAPE = dict(
    n_students=200, n_exercises=400, n_concepts=10, per_student=80,
    seed=0, concept_skew=6.0,
)
RECOVERY_TRAIN = dict(
    gamma=1e-4, beta=0.1, learning_rate=0.002, batch_size=32,
    max_epochs=40, pretrain_epochs=20, patience=10, seed=0,
)


@pytest.fixture(scope="module")
def recovery_run():
    t0 = time.monotonic()
    cohort = planted_cohort(**RECOVERY_SHAPE)
    ds = build_dataset(cohort.logs, cohort.q_pairs, min_logs=1)

    trainer = Trainer(ds, DiagnosticFunction("mirt"), TrainConfig(**RECOVERY_TRAIN))
    ck = trainer.train()

    cfg0 = TrainConfig(**{**RECOVERY_TRAIN, "beta": 0.0})
    trainer0 = Trainer(ds, DiagnosticFunction("mirt"), cfg0)
    trainer0.train()

    return {
        "cohort": cohort,
        "dataset": ds,
        "trainer": trainer,
        "checkpoint": ck,
        "trainer_beta0": trainer0,
        "elapsed": time.monotonic() - t0,
    }


# ----------------------------------------------------------------------
# criterion 1: closed-form KL terms match Monte-Carlo estimates
# ----------------------------------------------------------------------

def mc_kl(mean, variance, prior_mean, n_samples, rng):
    """Sample-average estimate of KL(q || p) with a unit-variance prior.

    Antithetic pairs (±ε) cancel the odd-moment noise, keeping the
    estimator's standard error well under the 1e-2 gate at 10^6 samples.
    """
    eps = rng.standard_normal((n_samples // 2, mean.size))
    z = np.concatenate([mean + np.sqrt(variance) * eps, mean - np.sqrt(variance) * eps])
    log_q = -0.5 * np.sum(np.log(2 * np.pi * variance) + (z - mean) ** 2 / variance, axis=1)
    log_p = -0.5 * np.sum(np.log(2 * np.pi) + (z - prior_mean) ** 2, axis=1)
    return float(np.mean(log_q - log_p))


def test_criterion_01_kl_matches_monte_carlo():
    t0 = time.monotonic()
    rng = default_rng(123)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 6))
        mean = rng.normal(0.0, 0.8, size=d)
        variance = np.exp(rng.uniform(-1.0, 0.5, size=d))
        prior = rng.normal(0.0, 0.5, size=d)

        closed_std = float(kl_consensus(mean, variance, STANDARD_PRIOR)[0])
        closed_con = float(kl_consensus(mean, variance, PriorConsensus(prior))[0])
        est_std = mc_kl(mean, variance, np.zeros(d), 1_000_000, rng)
        est_con = mc_kl(mean, variance, prior, 1_000_000, rng)

        worst = max(worst, abs(closed_std - est_std), abs(closed_con - est_con))
        assert abs(closed_std - est_std) < 1e-2
        assert abs(closed_con - est_con) < 1e-2
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    report(1, "KL correctness", f"worst |closed - MC| {worst:.2e} over 20 cases, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# criterion 2: analytic gradients of the full objective
# ----------------------------------------------------------------------

def test_criterion_02_gradient_fidelity():
    t0 = time.monotonic()
    worst = 0.0
    for variant in ("irt", "mirt", "ncd"):
        for rep in range(20):
            seed = hash((variant, rep)) % (2**31)
            cohort = planted_cohort(
                n_students=8, n_exercises=12, n_concepts=3, per_student=8, seed=seed
            )
            ds = build_dataset(cohort.logs, cohort.q_pairs, min_logs=1)
            fn = DiagnosticFunction(variant, mlp_hidden=(4, 3))
            cfg = TrainConfig(seed=seed % 1000, batch_size=8)
            store = init_parameters(
                fn, ds.n_students, ds.n_exercises, ds.n_concepts, default_rng(seed)
            )
            tracker = CorrectnessTracker(ds.n_students, fn.latent_dim(ds.n_concepts))
            tracker.seen[:] = 2
            tracker.hits[:] = default_rng(seed + 1).integers(0, 3, size=tracker.seen.shape)
            batch_idx = np.arange(8)
            noise = draw_batch_noise(
                ds, fn.cells(ds), cfg, batch_idx, tracker,
                substream(seed % 1000, "sampling"),
                substream(seed % 1000, "dropout"),
                substream(seed % 1000, "pairing"),
            )

            def objective(s, backward):
                total, breakdown, _ = build_batch_graph(ds, fn, s, batch_idx, cfg, noise, None)
                if backward:
                    tape.backprop(total)
                return breakdown.total

            err = grad_check(objective, store, h=1e-5)
            worst = max(worst, err)
            assert err < 1e-4, f"{variant} rep {rep}: {err}"
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    report(2, "gradient fidelity", f"max rel err {worst:.2e} over 60 batches, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# criterion 3: pairwise hinge matches a straight-line implementation
# ----------------------------------------------------------------------

def straight_line_hinge(va, vb, oa, ob, mode):
    direction = 0.0 if oa == ob else (1.0 if oa > ob else -1.0)
    if mode == "literal":
        direction = -direction
    value = direction * (va - vb) + abs(oa - ob)
    return value if value > 0.0 else 0.0


def test_criterion_03_calibration_loss_oracle():
    rng = default_rng(7)
    for case in range(1000):
        va, vb = rng.uniform(0.0, 3.0, size=2)
        oa, ob = rng.integers(0, 9, size=2) / 8.0  # quantized so ties happen
        for mode in ("consistent", "literal"):
            got = float(calibration_pair_loss(np.array(va), np.array(vb), oa, ob, mode)[0])
            want = straight_line_hinge(va, vb, oa, ob, mode)
            assert abs(got - want) < 1e-12, (case, mode)
            swapped = float(calibration_pair_loss(np.array(vb), np.array(va), ob, oa, mode)[0])
            assert swapped == got, (case, mode)
            if oa == ob:
                assert got == 0.0
    report(3, "calibration-loss oracle", "1000 cases x 2 modes, ties exact, swap-symmetric")


# ----------------------------------------------------------------------
# criterion 4: metrics against independent brute-force loops
# ----------------------------------------------------------------------

def brute_metrics(probs, labels, bins=10):
    n = len(probs)
    hits = sum(1 for p, r in zip(probs, labels) if (1 if p >= 0.5 else 0) == r)
    b_acc = hits / n
    b_rmse = (sum((p - r) ** 2 for p, r in zip(probs, labels)) / n) ** 0.5
    pos = [p for p, r in zip(probs, labels) if r == 1]
    neg = [p for p, r in zip(probs, labels) if r == 0]
    wins = sum(1.0 if pp > pn else (0.5 if pp == pn else 0.0) for pp in pos for pn in neg)
    b_auc = wins / (len(pos) * len(neg))
    edges = [(k / bins, (k + 1) / bins) for k in range(bins)]
    ece_sum, mce, counted = 0.0, 0.0, 0
    for lo, hi in edges:
        members = [
            (p, r) for p, r in zip(probs, labels)
            if (lo < p <= hi) or (lo == 0.0 and p == 0.0)
        ]
        if not members:
            continue
        correct = sum(1 for _, r in members if r == 1)
        gap = abs(
            correct / len(members) - sum(p for p, _ in members) / len(members)
        )
        ece_sum += len(members) * gap
        mce = max(mce, gap)
        counted += len(members)
    return b_acc, b_rmse, b_auc, ece_sum / counted, mce


def test_criterion_04_metric_oracles():
    rng = default_rng(99)
    probs = np.round(rng.random(500), 3)  # quantized: AUC tie handling matters
    labels = (rng.random(500) < 0.5).astype(float)
    labels[0], labels[1] = 1.0, 0.0  # both classes present
    b_acc, b_rmse, b_auc, b_ece, b_mce = brute_metrics(list(probs), list(labels))
    rep = calibration(probs, labels, bins=10)
    assert abs(acc(probs, labels) - b_acc) < 1e-10
    assert abs(rmse(probs, labels) - b_rmse) < 1e-10
    assert abs(auc(probs, labels) - b_auc) < 1e-10
    assert abs(rep.ece - b_ece) < 1e-10
    assert abs(rep.mce - b_mce) < 1e-10

    total = 0
    while total < 10_000:
        n = int(rng.integers(2, 200))
        p = rng.random(n)
        r = (rng.random(n) < p).astype(float)
        rep = calibration(p, r, bins=int(rng.integers(1, 20)))
        assert rep.ece <= rep.mce + 1e-15
        total += n
    report(4, "metric oracle equivalence", "500-case brute force < 1e-10; ECE <= MCE on 10k inputs")


# ----------------------------------------------------------------------
# criteria 5-7: the shared synthetic recovery run
# ----------------------------------------------------------------------

def test_criterion_05_synthetic_ability_recovery(recovery_run):
    cohort = recovery_run["cohort"]
    ds = recovery_run["dataset"]
    ck = recovery_run["checkpoint"]
    rows = [ds.student_ids.index(f"s{i:04d}") for i in range(RECOVERY_SHAPE["n_students"])]
    col_of = {cid: k for k, cid in enumerate(ds.concept_ids)}
    mastery = 1.0 / (1.0 + np.exp(-ck.params["student_mu"][rows]))
    per_concept = [
        spearman(mastery[:, col_of[f"c{k:02d}"]], cohort.abilities[:, k])
        for k in range(RECOVERY_SHAPE["n_concepts"])
    ]
    mean_rho = float(np.mean(per_concept))
    assert mean_rho >= 0.5, per_concept
    assert recovery_run["elapsed"] < 300
    report(5, "synthetic ability recovery",
           f"mean per-concept spearman {mean_rho:.3f} >= 0.5, run {recovery_run['elapsed']:.0f}s")


def test_criterion_06_uncertainty_shrinks_with_evidence(recovery_run):
    ds = recovery_run["dataset"]
    trainer = recovery_run["trainer"]
    counts = concept_interaction_counts(ds, trainer.splits.train, trainer.fn)
    variance = variance_from_logvar(trainer.store.params["student_logvar"])  # as diagnose reads it
    rich = variance[counts >= 20]
    sparse = variance[counts <= 2]
    assert rich.size > 0 and sparse.size > 0
    assert rich.mean() < sparse.mean()
    report(6, "uncertainty-evidence monotonicity",
           f"mean var {rich.mean():.3f} ({rich.size} cells >=20 obs) < "
           f"{sparse.mean():.3f} ({sparse.size} cells <=2 obs)")


def test_criterion_07_calibration_ordering(recovery_run):
    def tracker_variance_corr(trainer):
        s, c, o = trainer.tracker.observed_cells()
        variance = variance_from_logvar(trainer.store.params["student_logvar"])
        return spearman(o, variance[s, c])

    corr_full = tracker_variance_corr(recovery_run["trainer"])
    corr_beta0 = tracker_variance_corr(recovery_run["trainer_beta0"])
    assert corr_full <= -0.2
    assert abs(corr_beta0) < abs(corr_full)
    report(7, "calibration ordering",
           f"spearman(o, var) {corr_full:.3f} <= -0.2; |{corr_beta0:.3f}| smaller without the hinge")


# ----------------------------------------------------------------------
# criterion 8: degenerate-setting reductions
# ----------------------------------------------------------------------

def test_criterion_08_reduction_checks(tmp_path):
    cohort = planted_cohort(n_students=20, n_exercises=30, n_concepts=4, per_student=15, seed=3)
    ds = build_dataset(cohort.logs, cohort.q_pairs, min_logs=1)
    fn = DiagnosticFunction("mirt")

    # (a) gamma = beta = 0, dropout_keep = 1: batch loss is exactly mean BCE
    cfg = TrainConfig(gamma=0.0, beta=0.0, dropout_keep=1.0, seed=1)
    store = init_parameters(fn, ds.n_students, ds.n_exercises, ds.n_concepts, default_rng(1))
    batch_idx = np.arange(16)
    tracker = CorrectnessTracker(ds.n_students, fn.latent_dim(ds.n_concepts))
    noise = draw_batch_noise(
        ds, fn.cells(ds), cfg, batch_idx, tracker,
        substream(1, "sampling"), substream(1, "dropout"), substream(1, "pairing"),
    )
    breakdown, probs = batch_loss(ds, fn, store, batch_idx, cfg, noise)
    r = ds.scores[batch_idx]
    bce = -np.mean(r * np.log(probs) + (1 - r) * np.log(1 - probs))
    assert abs(breakdown.total - bce) < 1e-12

    # (b) zero epochs: checkpoint is the initialization plus the consensus mean
    cfg0 = TrainConfig(max_epochs=0, pretrain_epochs=0, seed=6)
    ck0 = Trainer(ds, fn, cfg0).train()
    fresh = init_parameters(fn, ds.n_students, ds.n_exercises, ds.n_concepts, substream(6, "init"))
    for name, arr in fresh.params.items():
        np.testing.assert_array_equal(ck0.params[name], arr)
    np.testing.assert_array_equal(ck0.consensus_mean, fresh.params["student_mu"].mean(axis=0))

    # (c) fixed seed: retraining bit-identically reproduces the checkpoint file
    cfg1 = TrainConfig(max_epochs=2, pretrain_epochs=2, batch_size=16, seed=9)
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(Trainer(ds, fn, cfg1).train(), path_a)
    save_checkpoint(Trainer(ds, fn, cfg1).train(), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    report(8, "reduction checks", "plain-BCE collapse, zero-epoch identity, bit-identical reruns")


# ----------------------------------------------------------------------
# criterion 9: real-data benchmark (needs the Assist2009 files)
# ----------------------------------------------------------------------

def assist2009_dir():
    root = Path(os.environ.get("COGDIAG_ASSIST2009_DIR", "data/assist2009"))
    if (root / "logs.csv").exists() and (root / "qmatrix.csv").exists():
        return root
    return None


def test_criterion_09_real_data_benchmark():
    root = assist2009_dir()
    if root is None:
        pytest.skip(
            "criterion 9 SKIP: Assist2009 files not found (this sandbox has no "
            "internet access). Download the public skill-builder CSV, run "
            "scripts/prepare_assist2009.py to produce logs.csv/qmatrix.csv, and "
            "point COGDIAG_ASSIST2009_DIR at the output directory."
        )
    logs = load_logs(root / "logs.csv")
    q_pairs = load_qmatrix(root / "qmatrix.csv")
    ds = build_dataset(logs, q_pairs, min_logs=15)
    cfg = TrainConfig(
        gamma=1e-4, beta=0.1, learning_rate=0.002, batch_size=32,
        max_epochs=30, pretrain_epochs=15, patience=10, seed=0,
        train_fraction=0.7, val_fraction=0.1,
    )
    trainer = Trainer(ds, DiagnosticFunction("ncd"), cfg)
    trainer.train()
    rep = evaluate_store(trainer.store, trainer.fn, ds, trainer.splits.test, bins=10)
    assert rep.auc >= 0.73, rep.auc
    assert rep.ece <= 0.035, rep.ece
    report(9, "real-data benchmark", f"test AUC {rep.auc:.4f} >= 0.73, ECE {rep.ece:.4f} <= 0.035")


# ----------------------------------------------------------------------
# criterion 10: pipeline integrity
# ----------------------------------------------------------------------

def test_criterion_10_pipeline_integrity(tmp_path, capsys):
    # (a) checkpoint save -> load -> save byte identity
    cohort = planted_cohort(n_students=25, n_exercises=30, n_concepts=4, per_student=20, seed=8)
    ds = build_dataset(cohort.logs, cohort.q_pairs, min_logs=1)
    ck = Trainer(
        ds, DiagnosticFunction("mirt"),
        TrainConfig(max_epochs=2, pretrain_epochs=2, batch_size=16, seed=4),
    ).train()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_checkpoint(ck, first)
    save_checkpoint(load_checkpoint(first), second)
    assert first.read_bytes() == second.read_bytes()

    # (b) splits partition the interaction set for 50 seeds
    for seed in range(50):
        splits = split_per_student(ds, SplitSpec(seed=seed))
        merged = np.sort(np.concatenate([splits.train, splits.val, splits.test]))
        np.testing.assert_array_equal(merged, np.arange(ds.n_interactions))

    # (c) the eval command's ECE equals a recomputation from its own CSV
    logs, qmatrix = tmp_path / "logs.csv", tmp_path / "q.csv"
    write_cohort_csv(cohort, logs, qmatrix)
    out_dir = tmp_path / "run"
    config = tmp_path / "run.cfg"
    config.write_text(
        f"logs = {logs}\nqmatrix = {qmatrix}\noutput_dir = {out_dir}\n"
        "variant = mirt\nmin_logs = 1\nbatch_size = 16\n"
        "max_epochs = 2\npretrain_epochs = 2\nseed = 4\n"
    )
    assert main(["train", "--config", str(config)]) == 0
    preds = tmp_path / "preds.csv"
    assert main([
        "eval", "--checkpoint", str(out_dir / "checkpoint.json"),
        "--split", "test", "--out", str(preds),
    ]) == 0
    stdout = capsys.readouterr().out
    printed_ece = next(l.split()[1] for l in stdout.splitlines() if l.startswith("ECE"))
    with open(preds, newline="") as fh:
        rows = list(csv.DictReader(fh))
    probs = [float(row["prob"]) for row in rows]
    labels = [int(row["label"]) for row in rows]
    # the command scores the six-decimal strings it publishes, so running
    # its scoring on the parsed CSV reproduces its ECE exactly ...
    command_ece = evaluate_probs(probs, labels, bins=10).ece
    assert f"{command_ece:.6f}" == printed_ece
    # ... and an independent brute-force recomputation agrees within 1e-9
    *_, brute_ece, _ = brute_metrics(probs, labels, bins=10)
    assert abs(command_ece - brute_ece) < 1e-9
    report(10, "pipeline integrity",
           "byte-identical checkpoints, 50-seed split partition, CSV-consistent ECE")
