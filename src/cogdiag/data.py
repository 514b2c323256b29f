"""Response logs, Q-matrix, dataset indexing, splitting, batching.

File formats are plain CSV.  Response logs carry one interaction per
row (``student_id,exercise_id,score`` with score 0 or 1); the Q-matrix
carries one (exercise, concept) pair per row.  Ids are opaque strings
and get mapped to dense indices in first-appearance order, which makes
every downstream artifact reproducible from the input files alone.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .seeding import substream


class DataFormatError(ValueError):
    """A data file failed to parse; the message names the file and line."""


class DataValidationError(ValueError):
    """Files parsed but are mutually inconsistent (e.g. exercise lacks concepts)."""


@dataclass(frozen=True, slots=True)
class ResponseLog:
    student_id: str
    exercise_id: str
    score: int


LOG_HEADER = ["student_id", "exercise_id", "score"]
QMATRIX_HEADER = ["exercise_id", "concept_id"]


def _read_rows(path, expected_header):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return iter(())
        header = [h.strip() for h in header]
        if header != expected_header:
            raise DataFormatError(
                f"{path}: expected header {','.join(expected_header)!r}, got {','.join(header)!r}"
            )
        yield from ((lineno, row) for lineno, row in enumerate(reader, start=2))


def load_logs(path) -> list[ResponseLog]:
    """Parse a response-log CSV. Malformed rows raise with their line number."""
    logs = []
    for lineno, row in _read_rows(path, LOG_HEADER):
        if len(row) != 3:
            raise DataFormatError(f"{path} line {lineno}: expected 3 fields, got {len(row)}")
        sid, eid, raw_score = row
        sid = sid.strip()
        eid = eid.strip()
        raw_score = raw_score.strip()
        if not sid or not eid:
            raise DataFormatError(f"{path} line {lineno}: empty id field")
        if raw_score == "1":
            score = 1
        elif raw_score == "0":
            score = 0
        else:
            raise DataFormatError(f"{path} line {lineno}: score must be 0 or 1, got {raw_score!r}")
        logs.append(ResponseLog(sid, eid, score))
    return logs


def load_qmatrix(path) -> list[tuple[str, str]]:
    """Parse Q-matrix pairs, dropping duplicates but keeping first-seen order."""
    pairs = []
    seen = set()
    for lineno, row in _read_rows(path, QMATRIX_HEADER):
        if len(row) != 2:
            raise DataFormatError(f"{path} line {lineno}: expected 2 fields, got {len(row)}")
        eid, cid = (f.strip() for f in row)
        if not eid or not cid:
            raise DataFormatError(f"{path} line {lineno}: empty id field")
        if (eid, cid) not in seen:
            seen.add((eid, cid))
            pairs.append((eid, cid))
    return pairs


def filter_students(logs: list[ResponseLog], min_logs: int = 15) -> list[ResponseLog]:
    """Drop all logs of students with fewer than ``min_logs`` interactions.

    A single pass over the original counts, so the operation is
    idempotent: filtering the result again changes nothing.
    """
    if min_logs < 1:
        raise ValueError(f"min_logs must be at least 1, got {min_logs}")
    counts = Counter(log.student_id for log in logs)
    return [log for log in logs if counts[log.student_id] >= min_logs]


@dataclass
class Dataset:
    """Indexed interactions plus the concept structure of every exercise."""

    student_ids: list[str]
    exercise_ids: list[str]
    concept_ids: list[str]
    s_idx: np.ndarray   # (n,) student index per interaction
    e_idx: np.ndarray   # (n,) exercise index per interaction
    scores: np.ndarray  # (n,) float64 in {0.0, 1.0}
    concepts_of: list[np.ndarray] = field(repr=False)  # per exercise

    @property
    def n_interactions(self) -> int:
        return len(self.s_idx)

    @property
    def n_students(self) -> int:
        return len(self.student_ids)

    @property
    def n_exercises(self) -> int:
        return len(self.exercise_ids)

    @property
    def n_concepts(self) -> int:
        return len(self.concept_ids)

    @cached_property
    def dense_q(self) -> np.ndarray:
        """(n_exercises, n_concepts) float64 0/1 incidence matrix."""
        q = np.zeros((self.n_exercises, self.n_concepts))
        for j, concepts in enumerate(self.concepts_of):
            q[j, concepts] = 1.0
        return q

    def student_index(self, student_id: str) -> int:
        try:
            return self.student_ids.index(student_id)
        except ValueError:
            raise KeyError(f"unknown student id {student_id!r}") from None


def build_dataset(
    logs: list[ResponseLog], q_pairs: list[tuple[str, str]], min_logs: int = 15
) -> Dataset:
    """Filter sparse students, then index everything densely.

    Exercises present only in the Q-matrix are dropped; exercises present
    in the retained logs but absent from the Q-matrix are an error.
    Concepts are numbered by first appearance among retained exercises,
    scanning the Q-matrix in file order.  A repeated (exercise, concept)
    pair counts once, as :func:`load_qmatrix` already ensures for files.
    """
    kept = filter_students(logs, min_logs)
    if not kept:
        raise DataValidationError(
            f"no students survive the min_logs={min_logs} filter ({len(logs)} logs in)"
        )

    students: dict[str, int] = {}
    exercises: dict[str, int] = {}
    for log in kept:
        if log.student_id not in students:
            students[log.student_id] = len(students)
        if log.exercise_id not in exercises:
            exercises[log.exercise_id] = len(exercises)

    concepts: dict[str, int] = {}
    concept_lists: dict[int, list[int]] = {j: [] for j in range(len(exercises))}
    for eid, cid in dict.fromkeys(q_pairs):
        j = exercises.get(eid)
        if j is None:
            continue
        if cid not in concepts:
            concepts[cid] = len(concepts)
        concept_lists[j].append(concepts[cid])

    missing = [eid for eid, j in exercises.items() if not concept_lists[j]]
    if missing:
        shown = ", ".join(repr(e) for e in missing[:5])
        raise DataValidationError(
            f"{len(missing)} exercise(s) have no Q-matrix concepts (e.g. {shown})"
        )

    return Dataset(
        student_ids=list(students),
        exercise_ids=list(exercises),
        concept_ids=list(concepts),
        s_idx=np.array([students[log.student_id] for log in kept], dtype=np.int64),
        e_idx=np.array([exercises[log.exercise_id] for log in kept], dtype=np.int64),
        scores=np.array([log.score for log in kept], dtype=np.float64),
        concepts_of=[np.array(concept_lists[j], dtype=np.int64) for j in range(len(exercises))],
    )


@dataclass
class SplitSpec:
    train_fraction: float = 0.7
    val_fraction: float = 0.1
    seed: int = 0
    preserve_order: bool = False  # keep each student's interactions in file order

    def __post_init__(self):
        problems = []
        if not (0 < self.train_fraction < 1):
            problems.append(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if not (0 < self.val_fraction < 1):
            problems.append(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if not problems and not (self.train_fraction + self.val_fraction < 1):
            problems.append("train_fraction + val_fraction must leave room for a test share")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class Splits:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def split_per_student(dataset: Dataset, spec: SplitSpec) -> Splits:
    """Partition interaction positions per student.

    Each student contributes floor(n * train_fraction) to train,
    max(1, floor(n * val_fraction)) to validation, the remainder to
    test.  When the remainder is empty and train can spare one, one
    interaction moves from train to test so every student with enough
    data is represented everywhere.
    """
    rng = substream(spec.seed, "split")
    # A stable sort keeps each student's positions in file order, which is
    # what the permutation below consumes.
    grouped = np.argsort(dataset.s_idx, kind="stable").astype(np.int64, copy=False)
    sizes = np.bincount(dataset.s_idx)
    ends = np.cumsum(sizes)

    train, val, test = [], [], []
    for s in np.flatnonzero(sizes).tolist():
        positions = grouped[ends[s] - sizes[s] : ends[s]]
        if not spec.preserve_order:
            positions = rng.permutation(positions)
        n = len(positions)
        n_train = int(np.floor(n * spec.train_fraction))
        n_val = max(1, int(np.floor(n * spec.val_fraction)))
        if n_train + n_val > n:
            raise DataValidationError(
                f"student index {s} has too few interactions ({n}) to split"
            )
        n_test = n - n_train - n_val
        if n_test == 0 and n_train >= 2:
            n_train -= 1
            n_test = 1
        train.append(positions[:n_train])
        val.append(positions[n_train : n_train + n_val])
        test.append(positions[n_train + n_val :])

    return Splits(train=np.concatenate(train), val=np.concatenate(val), test=np.concatenate(test))


def batches(indices: np.ndarray, batch_size: int, rng: np.random.Generator):
    """Yield one epoch of shuffled batches over ``indices``.

    Full batches of ``batch_size``, with any remainder folded into the
    last one, so no batch is ever smaller than ``batch_size`` (unless
    the whole split is).  100 indices at size 32 gives 32, 32, 36.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    perm = rng.permutation(np.asarray(indices, dtype=np.int64))
    n = len(perm)
    if n == 0:
        return
    n_full = n // batch_size
    if n_full <= 1:
        yield perm
        return
    for k in range(n_full - 1):
        yield perm[k * batch_size : (k + 1) * batch_size]
    yield perm[(n_full - 1) * batch_size :]
