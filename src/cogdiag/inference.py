"""Deterministic prediction, evaluation, and per-student diagnosis.

Inference never samples: mastery is read off as sigmoid of the
posterior mean and the raw (undropped) variance serves as the
confidence readout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint, CheckpointError
from .data import Dataset, cell_runs
from .diagnostics import EXERCISE_DIFF, EXERCISE_DISC, MLP_PARAMS, DiagnosticFunction
from .latent import STUDENT_LOGVAR, STUDENT_MEAN, variance_from_logvar
from .metrics import BinReport, acc, auc, calibration, rmse
from .numerics import ParameterStore, stable_sigmoid


# bytes of the widest float64 array one block forms.  It bounds memory,
# not time: a zero-epoch ncd eval raised peak RSS by 3.56-3.66x its
# checkpoint's size, against 12.4x with the split as one block, and CPU
# time measured the same at every block size
BLOCK_BYTES = 1 << 20


def _finite(name: str, values: np.ndarray) -> np.ndarray:
    """``values`` read from ``name``, unless one is nan or inf; serving checks only what it reads."""
    if not np.isfinite(values).all():
        raise CheckpointError(f"{name} holds a non-finite value")
    return values


def predict_split(
    model: ParameterStore | Checkpoint,
    fn: DiagnosticFunction,
    dataset: Dataset,
    indices: np.ndarray,
) -> np.ndarray:
    """Correctness probabilities for the given interaction positions.

    ``model`` is read for its ``params`` alone, so a training store and
    a loaded checkpoint serve alike.

    Rows go through the head a block at a time.  A block holds as many
    rows as keep the widest (rows, width) array the head forms within
    ``BLOCK_BYTES``: the width is the latent size, or for ncd the widest
    of it and the hidden layers.  That gives 256 rows at ncd's 512-wide
    layer, while irt and mirt keep large blocks.

    The student means are squashed once, whole, since a split reads each
    student many times.  The exercise tables can be far larger than what
    a split reads of them, so each block squashes only the rows it
    gathers, and no whole-table copy of them is made.

    Blocks move time and memory, not bits.  BLAS kernels step through
    rows 4 to 16 at a time and sum the leftover rows differently, so the
    block is a multiple of 64 rows: every row then sits where one whole
    call would put it.  A tail shorter than a block joins the block
    before it, since a one-row matmul takes the matrix-vector path.
    """
    indices = np.asarray(indices, dtype=np.int64)
    theta_all = stable_sigmoid(_finite(STUDENT_MEAN, model.params[STUDENT_MEAN]))
    diff, disc = model.params[EXERCISE_DIFF], model.params[EXERCISE_DISC]
    for name in MLP_PARAMS if fn.variant == "ncd" else ():  # ncd's head, read whole
        _finite(name, model.params[name])
    width = max([theta_all.shape[1], *(fn.mlp_hidden if fn.variant == "ncd" else ())])
    block = max(64, BLOCK_BYTES // (8 * width) // 64 * 64)

    n = len(indices)
    out = np.empty(n)
    lo = 0
    for hi in [*range(block, n - block + 1, block), n]:
        part = indices[lo:hi]
        theta, e = theta_all[dataset.s_idx[part]], dataset.e_idx[part]
        out[lo:hi] = fn.predict(
            theta, stable_sigmoid(_finite(EXERCISE_DIFF, diff[e])),
            stable_sigmoid(_finite(EXERCISE_DISC, disc[e])), fn.q_rows(dataset, e), model,
        )[0]
        lo = hi
    return out


@dataclass
class EvalReport(BinReport):
    """A split's calibration bins, ECE and MCE, with its ACC, RMSE and AUC over ``n`` rows."""

    acc: float
    rmse: float
    auc: float
    n: int


def evaluate_probs(probs: np.ndarray, labels: np.ndarray, bins: int) -> EvalReport:
    return EvalReport(
        **vars(calibration(probs, labels, bins=bins)),
        acc=acc(probs, labels),
        rmse=rmse(probs, labels),
        auc=auc(probs, labels),
        n=len(probs),
    )


def evaluate_store(
    model: ParameterStore | Checkpoint,
    fn: DiagnosticFunction,
    dataset: Dataset,
    indices: np.ndarray,
    bins: int,
) -> EvalReport:
    probs = predict_split(model, fn, dataset, indices)
    return evaluate_probs(probs, dataset.scores[np.asarray(indices, dtype=np.int64)], bins=bins)


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


def mastery_and_sigma(ck: Checkpoint, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Mastery (sigmoid of the posterior mean) and sigma of the students at ``rows``, read alone."""
    mastery = stable_sigmoid(_finite(STUDENT_MEAN, ck.params[STUDENT_MEAN][rows]))
    sigma = np.sqrt(variance_from_logvar(ck.params[STUDENT_LOGVAR][rows]))
    return mastery, _finite(STUDENT_LOGVAR, sigma)  # the clip takes an inf, not a nan


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
    mastery, sigma = mastery_and_sigma(ck, s)
    counts = ck.train_counts[s]
    labels = ck.fn.cell_labels(ck.concept_ids)
    rows = [
        ConceptDiagnosis(
            concept_id=labels[k],
            mastery=float(mastery[k]),
            sigma=float(sigma[k]),
            interactions=int(counts[k]),
            rank=rank,
        )
        for rank, k in enumerate(np.argsort(sigma, kind="stable").tolist(), start=1)
    ]
    return DiagnosisReport(student_id=student_id, rows=rows)
