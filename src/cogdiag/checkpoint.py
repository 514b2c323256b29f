"""Checkpoint serialization: a JSON header line, then the raw arrays.

Line 1 is deterministic JSON (keys sorted, separators fixed, nan/inf
rejected) holding everything but the array payloads, plus the ordered
``arrays`` list of ``[name, shape]``; ``head -1`` prints it.  Spaces pad
the line so that the little-endian float64 bytes of those arrays, which
follow in that order, start on an 8-byte boundary.  Loading maps the
file and hands out the arrays as views of the map, so pages a command
never touches are never read.  Saving the same checkpoint twice gives
byte-identical files, and load -> save is the identity on bytes.  No
pickling, so checkpoints are safe to share.

A checkpoint carries everything ``diagnose`` and ``export-ability``
print, including each student's training-evidence counts, so serving
those needs no data files.  Files are replaced atomically: a crash
while saving leaves the previous file, never a truncated one, and
arrays loaded from the old file keep their values.
"""

from __future__ import annotations

import json
import math
import mmap
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diagnostics import DiagnosticFunction, parameter_layout
from .latent import STUDENT_MEAN

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


def _read_arrays(fh, entries) -> dict[str, np.ndarray]:
    """The header's ``arrays``, read from ``fh`` positioned just after line 1.

    Each array is a view of one private (copy-on-write) map of the file:
    the OS reads only the pages a caller touches, writes to the arrays
    never reach the file, and the map, with the file descriptor it
    holds, lives until the last of the arrays is freed.
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
    if len({name for name, _ in entries}) != len(entries):
        raise ValueError("arrays repeats a name")
    sizes = [math.prod(shape) for _, shape in entries]
    start = fh.tell()
    expected, found = 8 * sum(sizes), os.fstat(fh.fileno()).st_size - start
    if found != expected:
        raise ValueError(f"the header's arrays take {expected} bytes, {found} follow it")
    mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
    flat = np.frombuffer(mapped, dtype="<f8", offset=start, count=sum(sizes))
    flat = flat.astype(np.float64, copy=False)  # a copy only on a big-endian host
    parts = np.split(flat, np.cumsum(sizes[:-1], dtype=np.int64))
    return {name: part.reshape(shape) for (name, shape), part in zip(entries, parts)}


def _whole_counts(counts: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if counts.shape != shape:
        raise ValueError(f"train_counts has shape {counts.shape}, expected {shape}")
    whole = np.isfinite(counts) & (counts >= 0) & (counts == np.floor(counts))
    if not whole.all():
        raise ValueError("train_counts holds a value that is not a nonnegative integer")
    return counts.astype(np.int64)


def atomic_write(path, content) -> None:
    """Write ``content`` to ``path``; readers see the old file or the whole new one.

    ``content`` is a str, written as UTF-8, or an iterable of
    bytes-like buffers written one after another, so a caller with
    several large buffers never joins them into a copy.  The
    bytes go to a temporary file in the same directory, which replaces
    ``path`` once complete; if anything fails first, the iterable
    included, the temporary file is deleted and ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    if isinstance(content, str):
        content = [content.encode("utf-8")]
    try:
        with open(tmp, "wb") as fh:
            for part in content:
                fh.write(part)
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
    header += " " * (-(len(header) + 1) % 8)  # the arrays start 8-byte aligned
    # each array is written from its own buffer: no tobytes() copy, no joined file image
    atomic_write(path, [header.encode("ascii"), b"\n", *(arr for _, arr in arrays)])


def load_checkpoint(path) -> Checkpoint:
    """Read and check a checkpoint; its arrays are views of a private map of the file."""
    def finite(text):  # json.loads would accept NaN and Infinity, and read 1e999 as inf
        if not math.isfinite(value := float(text)):
            raise ValueError(f"{text} is not a finite number")
        return value

    try:
        with open(path, "rb") as fh:
            line = fh.readline().decode("ascii")
            doc = json.loads(line, parse_constant=finite, parse_float=finite)
            if not isinstance(doc, dict):
                raise ValueError(f"the header is a {type(doc).__name__}, not a JSON object")
            version = doc.get("format_version")
            if version != FORMAT_VERSION:
                raise CheckpointError(
                    f"checkpoint {path} has format_version {version!r}, this build reads only "
                    f"format_version {FORMAT_VERSION}; retrain with `cogdiag train` to write one"
                )
            arrays = _read_arrays(fh, doc["arrays"])
        run_config = doc["run_config"]
        if not isinstance(run_config, dict):
            raise ValueError(f"run_config is not a JSON object (got {type(run_config).__name__})")
        fn = DiagnosticFunction(doc["variant"], tuple(doc["mlp_hidden"]))
        for key in ("student_ids", "exercise_ids", "concept_ids"):
            try:
                if not isinstance(doc[key], list):
                    raise TypeError
                "".join(doc[key])  # one pass in C: fails at the first id that is not a string
            except TypeError:
                raise ValueError(f"{key} is not a list of strings") from None
        sizes = (len(doc["student_ids"]), len(doc["exercise_ids"]), len(doc["concept_ids"]))
        layout = {name: shape for name, shape, _ in parameter_layout(fn, *sizes)}
        consensus = arrays.pop("consensus_mean", None)
        counts = _whole_counts(arrays.pop("train_counts"), layout[STUDENT_MEAN])
        shapes = {name: arr.shape for name, arr in arrays.items()}
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

