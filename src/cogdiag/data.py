"""Response logs, Q-matrix, dataset indexing, splitting, batching.

File formats are plain CSV.  Response logs carry one interaction per
row (``student_id,exercise_id,score`` with score 0 or 1); the Q-matrix
carries one (exercise, concept) pair per row.  Ids are opaque strings
and get mapped to dense indices in first-appearance order, which makes
every downstream artifact reproducible from the input files alone.

Files are read into columns, not into an object per row: every check
and every index runs over a whole column at once, and only a failed
check goes back to find the first offending row.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from operator import attrgetter, itemgetter
from pathlib import Path

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


@dataclass(eq=False, slots=True)
class LogColumns:
    """Response logs as parallel columns; ``logs[i]`` is the i-th :class:`ResponseLog`."""

    student_ids: list[str]
    exercise_ids: list[str]
    scores: np.ndarray  # (n,) float64 in {0.0, 1.0}

    @classmethod
    def of(cls, logs) -> LogColumns:
        """``logs`` itself if it is columns already, else the columns of a sequence of records."""
        if isinstance(logs, cls):
            return logs
        return cls(
            list(map(attrgetter("student_id"), logs)),
            list(map(attrgetter("exercise_id"), logs)),
            np.array(list(map(attrgetter("score"), logs)), dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self.student_ids)

    def __getitem__(self, i: int) -> ResponseLog:
        return ResponseLog(self.student_ids[i], self.exercise_ids[i], int(self.scores[i]))


LOG_HEADER = ["student_id", "exercise_id", "score"]
QMATRIX_HEADER = ["exercise_id", "concept_id"]


def _bad_utf8_line(path) -> int:
    """The line of the first byte of ``path`` that is not valid UTF-8."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return raw.count(b"\n", 0, exc.start) + 1
    return 1


def _read_columns(path, header: list[str]) -> tuple[list[list[str]], list[tuple[int, str]]]:
    """Stripped field columns of the rows after ``header``, and their problems.

    Columns cover the rows before the first one whose field count is
    wrong.  Problems are (row index, message): that row, if any, and the
    first empty field of each ``*_id`` column.  The reader's rows are
    appended to one flat list as they stream past, and the running
    length after each row tells every row's field count without keeping
    a list per row.
    """
    flat: list[str] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            got = [h.strip() for h in next(reader, header)]
            if got != header:
                raise DataFormatError(
                    f"{path}: expected header {','.join(header)!r}, got {','.join(got)!r}"
                )
            ends = np.fromiter(map(len, map(flat.__iadd__, reader)), dtype=np.int64)
    except csv.Error as exc:
        raise DataFormatError(f"{path} line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        line = _bad_utf8_line(path)
        raise DataFormatError(f"{path} line {line}: not valid UTF-8 ({exc.reason})") from None
    width = len(header)
    counts = np.diff(ends, prepend=0)
    bad = np.flatnonzero(counts != width)
    problems = []
    n_ok = len(counts)
    if len(bad):
        n_ok = int(bad[0])
        problems.append((n_ok, f"expected {width} fields, got {counts[n_ok]}"))
    columns = [list(map(str.strip, flat[k : width * n_ok : width])) for k in range(width)]
    for name, col in zip(header, columns):
        if name.endswith("_id") and "" in col:
            problems.append((col.index(""), "empty id field"))
    return columns, problems


def _row_line(path, index: int) -> int:
    """The line of ``path`` on which data row ``index`` starts.

    Re-reads the file up to that row: a quoted field may span lines, so
    only the reader's own line count places a row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for _ in range(index + 1):  # the header, then the rows before ``index``
            next(reader)
        return reader.line_num + 1


def _raise_first(path, problems: list[tuple[int, str]]) -> None:
    """Raise the problem of the earliest row; on one row, the first one found."""
    if problems:
        index, message = min(problems, key=itemgetter(0))
        raise DataFormatError(f"{path} line {_row_line(path, index)}: {message}")


def load_logs(path) -> LogColumns:
    """Parse a response-log CSV. Malformed rows raise with their line number."""
    (sids, eids, scores), problems = _read_columns(path, LOG_HEADER)
    if not set(scores) <= {"0", "1"}:
        i = next(i for i, s in enumerate(scores) if s not in ("0", "1"))
        problems.append((i, f"score must be 0 or 1, got {scores[i]!r}"))
    _raise_first(path, problems)
    # every score is "0" or "1" here, so its one ASCII byte minus b"0" is its value
    digits = np.frombuffer("".join(scores).encode("ascii"), dtype=np.uint8)
    return LogColumns(sids, eids, (digits - ord("0")).astype(np.float64))


def load_qmatrix(path) -> list[tuple[str, str]]:
    """Parse Q-matrix pairs, dropping duplicates but keeping first-seen order."""
    (eids, cids), problems = _read_columns(path, QMATRIX_HEADER)
    _raise_first(path, problems)
    return list(dict.fromkeys(zip(eids, cids)))


@dataclass
class Dataset:
    """Indexed interactions plus the concept structure of every exercise.

    Exercise ``j``'s concepts are ``concept_idx[concept_ptr[j]:concept_ptr[j + 1]]`` (CSR).
    """

    student_ids: list[str]
    exercise_ids: list[str]
    concept_ids: list[str]
    s_idx: np.ndarray   # (n,) student index per interaction
    e_idx: np.ndarray   # (n,) exercise index per interaction
    scores: np.ndarray  # (n,) float64 in {0.0, 1.0}
    concept_ptr: np.ndarray = field(repr=False)  # (n_exercises + 1,)
    concept_idx: np.ndarray = field(repr=False)  # in Q-matrix order

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
        q[np.repeat(np.arange(self.n_exercises), np.diff(self.concept_ptr)), self.concept_idx] = 1.0
        return q

    def student_index(self, student_id: str) -> int:
        try:
            return self.student_ids.index(student_id)
        except ValueError:
            raise KeyError(f"unknown student id {student_id!r}") from None


def _first_seen_index(ids: list[str]) -> tuple[dict[str, int], np.ndarray]:
    """Number ids by first appearance: (id -> number, each entry's number as int64)."""
    first = dict.fromkeys(ids)
    index = dict(zip(first, range(len(first))))
    return index, np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))


def build_dataset(
    logs: LogColumns | list[ResponseLog], q_pairs: list[tuple[str, str]], min_logs: int = 15
) -> Dataset:
    """Filter sparse students, then index everything densely.

    Every score must be 0 or 1, in whatever form the logs arrive.
    Students with fewer than ``min_logs`` logs are dropped in one pass
    over the original counts, so the filter is idempotent.  Exercises
    present only in the Q-matrix are dropped; exercises present in the
    retained logs but absent from the Q-matrix are an error.  Concepts
    are numbered by first appearance among retained exercises, scanning
    the Q-matrix in file order.  A repeated (exercise, concept) pair
    counts once, as :func:`load_qmatrix` already ensures for files.
    """
    if min_logs < 1:
        raise ValueError(f"min_logs must be at least 1, got {min_logs}")
    logs = LogColumns.of(logs)
    sids, eids, scores = logs.student_ids, logs.exercise_ids, logs.scores
    bad = np.flatnonzero((scores != 0.0) & (scores != 1.0))
    if len(bad):
        i = int(bad[0])
        raise DataValidationError(f"log {i}: score must be 0 or 1, got {scores[i]:g}")
    counts = Counter(sids)
    if min(counts.values(), default=0) < min_logs:
        keep = list(map(min_logs.__le__, map(counts.__getitem__, sids)))
        sids, eids = list(compress(sids, keep)), list(compress(eids, keep))
        scores = scores[np.array(keep, dtype=bool)]
    if not sids:
        raise DataValidationError(
            f"no students survive the min_logs={min_logs} filter ({len(logs)} logs in)"
        )

    students, s_idx = _first_seen_index(sids)
    exercises, e_idx = _first_seen_index(eids)

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
        s_idx=s_idx,
        e_idx=e_idx,
        scores=np.array(scores, dtype=np.float64),
        concept_ptr=np.cumsum([0] + [len(c) for c in concept_lists.values()], dtype=np.int64),
        concept_idx=np.array([k for c in concept_lists.values() for k in c], dtype=np.int64),
    )


def cell_runs(ptr: np.ndarray, idx: np.ndarray, rows: np.ndarray):
    """The CSR runs ``idx[ptr[r]:ptr[r + 1]]`` of ``rows``, laid end to end.

    Returns (cells, run lengths).  One gather does it: a row's run starts
    at ``ptr[r]`` in ``idx``, so shifting one arange over all runs by
    (that start - the run's start in the output) reads every run at once.
    """
    starts = ptr[rows]
    sizes = ptr[rows + 1] - starts
    ends = np.cumsum(sizes)
    return idx[np.repeat(starts - ends + sizes, sizes) + np.arange(ends[-1] if len(ends) else 0)], sizes


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
