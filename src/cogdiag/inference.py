"""Deterministic prediction, evaluation, and per-student diagnosis.

Inference never samples: mastery is read off as sigmoid of the
posterior mean and the raw (undropped) variance serves as the
confidence readout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint, CheckpointError, diagnostic_from_checkpoint, store_from_checkpoint
from .data import Dataset, cell_runs
from .diagnostics import (
    EXERCISE_DIFF,
    EXERCISE_DISC,
    DiagnosticFunction,
    mlp_layers,
    predict_irt,
    predict_mirt,
    predict_ncd,
)
from .latent import STUDENT_LOGVAR, STUDENT_MEAN
from .metrics import BinReport, acc, auc, calibration, rmse
from .numerics import ParameterStore, stable_sigmoid


def predict_split(
    store: ParameterStore,
    fn: DiagnosticFunction,
    dataset: Dataset,
    indices: np.ndarray,
    chunk: int = 8192,
) -> np.ndarray:
    """Correctness probabilities for the given interaction positions."""
    indices = np.asarray(indices, dtype=np.int64)
    theta_all = stable_sigmoid(store.params[STUDENT_MEAN])
    diff_all = stable_sigmoid(store.params[EXERCISE_DIFF])
    disc_all = stable_sigmoid(store.params[EXERCISE_DISC])
    layers = mlp_layers(store, as_nodes=False) if fn.variant == "ncd" else None

    out = np.empty(len(indices))
    for lo in range(0, len(indices), chunk):
        part = indices[lo : lo + chunk]
        theta = theta_all[dataset.s_idx[part]]
        diff = diff_all[dataset.e_idx[part]]
        if fn.variant == "irt":
            probs = predict_irt(
                theta, diff, disc_all[dataset.e_idx[part]], fn.irt_scale
            ).reshape(-1)
        elif fn.variant == "mirt":
            probs = predict_mirt(theta, diff, dataset.dense_q[dataset.e_idx[part]])
        else:
            probs = predict_ncd(
                theta,
                diff,
                disc_all[dataset.e_idx[part]],
                dataset.dense_q[dataset.e_idx[part]],
                layers,
            )
        out[lo : lo + len(part)] = probs
    return out


@dataclass
class EvalReport:
    acc: float
    rmse: float
    auc: float
    ece: float
    mce: float
    n: int
    bin_report: BinReport
    probs: np.ndarray
    labels: np.ndarray


def evaluate_probs(probs: np.ndarray, labels: np.ndarray, bins: int = 10) -> EvalReport:
    report = calibration(probs, labels, bins=bins)
    return EvalReport(
        acc=acc(probs, labels),
        rmse=rmse(probs, labels),
        auc=auc(probs, labels),
        ece=report.ece,
        mce=report.mce,
        n=len(probs),
        bin_report=report,
        probs=np.asarray(probs, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.float64),
    )


def evaluate_store(
    store: ParameterStore,
    fn: DiagnosticFunction,
    dataset: Dataset,
    indices: np.ndarray,
    bins: int = 10,
) -> EvalReport:
    probs = predict_split(store, fn, dataset, indices)
    return evaluate_probs(probs, dataset.scores[np.asarray(indices, dtype=np.int64)], bins=bins)


def evaluate(ck: Checkpoint, dataset: Dataset, indices: np.ndarray, bins: int = 10) -> EvalReport:
    """Evaluate a saved checkpoint on interaction positions of ``dataset``."""
    check_dataset_matches(ck, dataset)
    return evaluate_store(store_from_checkpoint(ck), diagnostic_from_checkpoint(ck), dataset, indices, bins)


def check_dataset_matches(ck: Checkpoint, dataset: Dataset) -> None:
    """The id maps baked into a checkpoint must equal the dataset's exactly."""
    for kind, saved, current in (
        ("student", ck.student_ids, dataset.student_ids),
        ("exercise", ck.exercise_ids, dataset.exercise_ids),
        ("concept", ck.concept_ids, dataset.concept_ids),
    ):
        if saved != current:
            raise CheckpointError(
                f"{kind} ids disagree between checkpoint and data "
                f"({len(saved)} saved vs {len(current)} current); "
                "the data files are not the ones this checkpoint was trained on"
            )


def concept_interaction_counts(
    dataset: Dataset, indices: np.ndarray, fn: DiagnosticFunction
) -> np.ndarray:
    """(students, cells) count of interactions touching each tracker cell.

    Cells follow the diagnostic function's latent layout: one shared
    column for IRT, one per concept otherwise.
    """
    indices = np.asarray(indices, dtype=np.int64)
    cells, sizes = cell_runs(*fn.cells(dataset), dataset.e_idx[indices])
    k = fn.latent_dim(dataset.n_concepts)
    flat_cells = np.repeat(dataset.s_idx[indices], sizes) * k + cells
    return np.bincount(flat_cells, minlength=dataset.n_students * k).reshape(-1, k)


@dataclass
class ConceptDiagnosis:
    concept_id: str
    mastery: float       # sigmoid of the posterior mean
    sigma: float         # posterior standard deviation
    interactions: int    # training interactions touching this cell
    rank: int            # 1 = most confident (smallest sigma)


@dataclass
class DiagnosisReport:
    student_id: str
    rows: list[ConceptDiagnosis]  # sorted by rank


def diagnose(ck: Checkpoint, student_id: str) -> DiagnosisReport:
    """Per-concept mastery and confidence for one student.

    Everything comes from the checkpoint: the student's row of posterior
    means and variances, and the training interactions counted per cell
    when the checkpoint was written.
    """
    try:
        s = ck.student_ids.index(student_id)
    except ValueError:
        raise KeyError(f"unknown student id {student_id!r}") from None
    mu = ck.params[STUDENT_MEAN][s]
    sigma = np.sqrt(np.exp(ck.params[STUDENT_LOGVAR][s]))
    counts = ck.train_counts[s]
    labels = ["overall"] if ck.variant == "irt" else ck.concept_ids
    order = np.argsort(sigma, kind="stable")
    rank = np.empty(len(sigma), dtype=np.int64)
    rank[order] = np.arange(1, len(sigma) + 1)
    rows = [
        ConceptDiagnosis(
            concept_id=labels[k],
            mastery=float(stable_sigmoid(mu[k])),
            sigma=float(sigma[k]),
            interactions=int(counts[k]),
            rank=int(rank[k]),
        )
        for k in range(len(sigma))
    ]
    rows.sort(key=lambda row: row.rank)
    return DiagnosisReport(student_id=student_id, rows=rows)
