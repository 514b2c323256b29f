"""Checkpoint serialization: a JSON header line, then the raw arrays.

Line 1 is deterministic JSON (keys sorted, separators fixed, nan/inf
rejected) holding everything but the array payloads, plus the ordered
``arrays`` list of ``[name, shape]``; ``head -1`` prints it.  The
little-endian float64 bytes of those arrays follow, in that order, and
loading reads them with one ``np.fromfile``.  Saving the same
checkpoint twice gives byte-identical files, and load -> save is the
identity on bytes.  No pickling, so checkpoints are safe to share.

A checkpoint carries everything ``diagnose`` and ``export-ability``
print, including each student's training-evidence counts, so serving
those needs no data files and reads none of the exercise-side bytes.
Files are replaced atomically: a crash while saving leaves the previous
file, never a truncated one.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diagnostics import DiagnosticFunction, parameter_layout
from .latent import STUDENT_LOGVAR, STUDENT_MEAN

FORMAT_VERSION = 4


class CheckpointError(RuntimeError):
    """Unreadable, wrong-version, or internally inconsistent checkpoint."""


@dataclass
class Checkpoint:
    """A trained model as saved: serving reads its ``params`` like a store's."""

    fn: DiagnosticFunction
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


def _read_arrays(fh, entries, wanted=None) -> tuple[dict[str, tuple], dict[str, np.ndarray]]:
    """The header's ``arrays``: every shape, and the arrays named in ``wanted`` (None: all).

    The arrays are views into one ``np.fromfile`` of the span from the
    first wanted array to the last; the bytes around it are not read.
    """
    if not isinstance(entries, list):
        raise ValueError("arrays is not a list")
    for entry in entries:
        if not (
            isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list)
            and all(type(n) is int and n >= 0 for n in entry[1])  # a bool is no dimension
        ):
            raise ValueError(f"arrays entry {entry!r} is not [name, list of nonnegative ints]")
    shapes = {name: tuple(shape) for name, shape in entries}
    if len(shapes) != len(entries):
        raise ValueError("arrays repeats a name")
    sizes = [math.prod(shape) for _, shape in entries]
    expected, found = 8 * sum(sizes), os.fstat(fh.fileno()).st_size - fh.tell()
    if found != expected:
        raise ValueError(f"the header's arrays take {expected} bytes, {found} follow it")
    read = [i for i, (name, _) in enumerate(entries) if wanted is None or name in wanted]
    if not read:
        return shapes, {}
    first, last = read[0], read[-1] + 1
    fh.seek(8 * sum(sizes[:first]), os.SEEK_CUR)
    flat = np.fromfile(fh, dtype="<f8", count=sum(sizes[first:last])).astype(np.float64, copy=False)
    arrays, at = {}, 0
    for (name, shape), size in zip(entries[first:last], sizes[first:last]):
        if wanted is None or name in wanted:
            arrays[name] = flat[at : at + size].reshape(shape)
        at += size
    return shapes, arrays


def _whole_counts(counts: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if counts.shape != shape:
        raise ValueError(f"train_counts has shape {counts.shape}, expected {shape}")
    whole = np.isfinite(counts) & (counts >= 0) & (counts == np.floor(counts))
    if not whole.all():
        raise ValueError("train_counts holds a value that is not a nonnegative integer")
    return counts.astype(np.int64)


def atomic_write(path, content: str | bytes) -> None:
    """Write ``content`` to ``path``; readers see the old file or the whole new one.

    A str is written as UTF-8.  The bytes go to a temporary file in the
    same directory, which replaces ``path`` once complete; if anything
    fails first, the temporary file is deleted and ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    if isinstance(content, str):
        content = content.encode("utf-8")
    try:
        with open(tmp, "wb") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(ck: Checkpoint, path) -> None:
    arrays = [(name, ck.params[name]) for name in sorted(ck.params)]
    if ck.consensus_mean is not None:
        arrays.append(("consensus_mean", ck.consensus_mean))
    arrays.append(("train_counts", ck.train_counts))
    arrays = [(name, np.ascontiguousarray(arr, dtype="<f8")) for name, arr in arrays]
    doc = {
        "format_version": FORMAT_VERSION,
        "variant": ck.fn.variant,
        "mlp_hidden": list(ck.fn.mlp_hidden),
        "arrays": [[name, list(arr.shape)] for name, arr in arrays],
        "student_ids": ck.student_ids,
        "exercise_ids": ck.exercise_ids,
        "concept_ids": ck.concept_ids,
        "run_config": ck.run_config,
        "best_epoch": ck.best_epoch,
        "val_metrics": ck.val_metrics,
    }
    header = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    # arrays join as their raw buffers, with no tobytes() copy each
    atomic_write(path, b"".join([header.encode("ascii"), b"\n", *(arr for _, arr in arrays)]))


def load_checkpoint(path, students_only: bool = False) -> Checkpoint:
    """Read and check a checkpoint.

    With ``students_only`` the exercise and MLP arrays are checked
    against the header but not read, and ``params`` holds just the
    student means and log-variances: all that ``diagnose`` and
    ``export-ability`` print.  Their cost then follows the cohort, not
    the exercise bank.
    """
    def reject(token):  # json.loads would accept NaN and Infinity
        raise ValueError(f"{token} is not a number")

    wanted = {STUDENT_MEAN, STUDENT_LOGVAR, "consensus_mean", "train_counts"} if students_only else None
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.readline().decode("ascii"), parse_constant=reject)
            if not isinstance(doc, dict):
                raise ValueError(f"the header is a {type(doc).__name__}, not a JSON object")
            version = doc.get("format_version")
            if version != FORMAT_VERSION:
                raise CheckpointError(
                    f"checkpoint {path} has format_version {version!r}, this build reads only "
                    f"format_version {FORMAT_VERSION}; retrain with `cogdiag train` to write one"
                )
            shapes, arrays = _read_arrays(fh, doc["arrays"], wanted)
        run_config = doc["run_config"]
        if not isinstance(run_config, dict):
            raise ValueError(f"run_config is not a JSON object (got {type(run_config).__name__})")
        fn = DiagnosticFunction(doc["variant"], tuple(doc["mlp_hidden"]))
        sizes = (len(doc["student_ids"]), len(doc["exercise_ids"]), len(doc["concept_ids"]))
        layout = {name: shape for name, shape, _ in parameter_layout(fn, *sizes)}
        consensus = arrays.pop("consensus_mean", None)
        counts = _whole_counts(arrays.pop("train_counts"), layout[STUDENT_MEAN])
        shapes.pop("consensus_mean", None)
        shapes.pop("train_counts")
        if shapes != layout:
            raise ValueError(f"parameter shapes {shapes} differ from the layout {layout}")
        if consensus is not None and consensus.shape != layout[STUDENT_MEAN][1:]:
            raise ValueError(
                f"consensus_mean has shape {consensus.shape}, expected {layout[STUDENT_MEAN][1:]}"
            )
        return Checkpoint(
            fn=fn,
            params=arrays,
            consensus_mean=consensus,
            student_ids=doc["student_ids"],
            exercise_ids=doc["exercise_ids"],
            concept_ids=doc["concept_ids"],
            run_config=run_config,
            best_epoch=doc["best_epoch"],
            train_counts=counts,
            val_metrics=doc["val_metrics"],
        )
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise CheckpointError(f"checkpoint {path} is malformed: {exc}") from exc

