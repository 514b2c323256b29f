"""Checkpoint serialization: one deterministic JSON file.

Arrays travel as base64 of their little-endian float64 bytes, keys are
sorted, separators fixed, nan/inf rejected.  Saving the same checkpoint
twice therefore produces byte-identical files, and load -> save is the
identity on bytes.  No pickling, so checkpoints are safe to share.

A checkpoint carries everything ``diagnose`` and ``export-ability``
print, including each student's training-evidence counts, so serving
those needs no data files.  Files are replaced atomically: a crash
while saving leaves the previous file, never a truncated one.
"""

from __future__ import annotations

import base64
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diagnostics import DiagnosticFunction, parameter_layout
from .latent import STUDENT_MEAN
from .numerics import ParameterStore

FORMAT_VERSION = 2


class CheckpointError(RuntimeError):
    """Unreadable, wrong-version, or internally inconsistent checkpoint."""


@dataclass
class Checkpoint:
    variant: str
    irt_scale: float
    mlp_hidden: tuple[int, ...]
    params: dict[str, np.ndarray]
    consensus_mean: np.ndarray | None
    student_ids: list[str]
    exercise_ids: list[str]
    concept_ids: list[str]
    run_config: dict
    best_epoch: int
    # training-split interactions per (student, latent cell): one column
    # for irt, one per concept otherwise
    train_counts: np.ndarray
    val_metrics: dict[str, float] = field(default_factory=dict)
    format_version: int = FORMAT_VERSION


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _decode_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return arr.reshape(obj["shape"])


def _decode_counts(obj: dict, shape: tuple[int, int]) -> np.ndarray:
    counts = _decode_array(obj)
    if counts.shape != shape:
        raise ValueError(f"train_counts has shape {counts.shape}, expected {shape}")
    whole = np.isfinite(counts) & (counts >= 0) & (counts == np.floor(counts))
    if not whole.all():
        raise ValueError("train_counts holds a value that is not a nonnegative integer")
    return counts.astype(np.int64)


@contextmanager
def atomic_write(path):
    """Open ``path`` for writing text; readers see the old file or the whole new one.

    The text goes to a temporary file in the same directory, which
    replaces ``path`` only once the block has finished; if anything fails
    first, the temporary file is deleted and ``path`` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(ck: Checkpoint, path) -> None:
    doc = {
        "format_version": ck.format_version,
        "variant": ck.variant,
        "irt_scale": ck.irt_scale,
        "mlp_hidden": list(ck.mlp_hidden),
        "params": {name: _encode_array(arr) for name, arr in ck.params.items()},
        "consensus_mean": None if ck.consensus_mean is None else _encode_array(ck.consensus_mean),
        "student_ids": ck.student_ids,
        "exercise_ids": ck.exercise_ids,
        "concept_ids": ck.concept_ids,
        "run_config": ck.run_config,
        "best_epoch": ck.best_epoch,
        "train_counts": _encode_array(ck.train_counts),
        "val_metrics": ck.val_metrics,
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    with atomic_write(path) as fh:
        fh.write(text)
        fh.write("\n")


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, encoding="ascii") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format_version {version!r}, this build reads only "
            f"format_version {FORMAT_VERSION}; retrain with `cogdiag train` to write one"
        )
    try:
        fn = DiagnosticFunction(doc["variant"], doc["irt_scale"], tuple(doc["mlp_hidden"]))
        sizes = (len(doc["student_ids"]), len(doc["exercise_ids"]), len(doc["concept_ids"]))
        layout = {name: shape for name, shape, _ in parameter_layout(fn, *sizes)}
        params = {name: _decode_array(obj) for name, obj in doc["params"].items()}
        shapes = {name: arr.shape for name, arr in params.items()}
        if shapes != layout:
            raise ValueError(f"parameter shapes {shapes} differ from the layout {layout}")
        consensus = None if doc["consensus_mean"] is None else _decode_array(doc["consensus_mean"])
        if consensus is not None and consensus.shape != layout[STUDENT_MEAN][1:]:
            raise ValueError(
                f"consensus_mean has shape {consensus.shape}, expected {layout[STUDENT_MEAN][1:]}"
            )
        return Checkpoint(
            variant=doc["variant"],
            irt_scale=doc["irt_scale"],
            mlp_hidden=tuple(doc["mlp_hidden"]),
            params=params,
            consensus_mean=consensus,
            student_ids=doc["student_ids"],
            exercise_ids=doc["exercise_ids"],
            concept_ids=doc["concept_ids"],
            run_config=doc["run_config"],
            best_epoch=doc["best_epoch"],
            train_counts=_decode_counts(doc["train_counts"], layout[STUDENT_MEAN]),
            val_metrics=doc["val_metrics"],
            format_version=version,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} is malformed: {exc}") from exc


def diagnostic_from_checkpoint(ck: Checkpoint) -> DiagnosticFunction:
    return DiagnosticFunction(
        variant=ck.variant, irt_scale=ck.irt_scale, mlp_hidden=tuple(ck.mlp_hidden)
    )


def store_from_checkpoint(ck: Checkpoint) -> ParameterStore:
    """Rebuild a parameter store (fresh optimizer state) from saved arrays."""
    store = ParameterStore()
    sizes = (len(ck.student_ids), len(ck.exercise_ids), len(ck.concept_ids))
    for name, _, row_sparse in parameter_layout(diagnostic_from_checkpoint(ck), *sizes):
        store.add(name, ck.params[name], row_sparse=row_sparse)
    return store
