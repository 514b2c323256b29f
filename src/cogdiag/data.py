"""Response logs, Q-matrix, dataset indexing, splitting, batching.

File formats are plain CSV.  Response logs carry one interaction per
row (``student_id,exercise_id,score`` with score 0 or 1); the Q-matrix
carries one (exercise, concept) pair per row.  Ids are opaque strings
and get mapped to dense indices in first-appearance order, which makes
every downstream artifact reproducible from the input files alone.

Files are read into columns, not into an object per row: every check
and every index runs over a whole column at once, and only a failed
check goes back, in the text already read, to find the first offending
row.  A log file's two id columns are then coded against tables of
their distinct ids, so no string per row outlives the load.

A file is read once, on every path: one read of its bytes and one
UTF-8 decode (a leading byte-order mark is dropped).  A file that is not
UTF-8 is rejected at the line of its first bad byte, whatever else it
holds.  A plain file, with no quote, no NUL, one line ending throughout
(LF or CRLF), the right comma count on every line and no empty id, is
split on its commas in one ``str.split``; every CSV that
``synth.write_cohort_csv`` and ``scripts/prepare_assist2009.py`` write is
plain unless an id needs quoting.  Any other file, and every malformed
one, goes through ``csv.reader`` over the decoded text, so the reader
alone words every other error and numbers every line.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count, repeat
from operator import itemgetter
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
    """Response logs as coded columns; ``logs[i]`` is the i-th :class:`ResponseLog`.

    ``student_ids`` and ``exercise_ids`` hold each distinct id once, in
    the order of its first log, and ``students`` and ``exercises`` code
    each log's ids as positions in them, so no log holds a string of its
    own.  :meth:`from_rows` codes per-log ids.
    """

    student_ids: list[str]
    exercise_ids: list[str]
    students: np.ndarray   # (n,) int64 position in student_ids
    exercises: np.ndarray  # (n,) int64 position in exercise_ids
    scores: np.ndarray     # (n,) float64 in {0.0, 1.0}

    @classmethod
    def from_rows(cls, student_ids: list[str], exercise_ids: list[str], scores) -> LogColumns:
        """The columns of per-log ids, each table in first-seen order."""
        students, s_codes = _first_seen_index(student_ids)
        exercises, e_codes = _first_seen_index(exercise_ids)
        return cls(students, exercises, s_codes, e_codes, scores)

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, i: int) -> ResponseLog:
        return ResponseLog(self.student_ids[self.students[i]], self.exercise_ids[self.exercises[i]],
                           int(self.scores[i]))


LOG_HEADER = ["student_id", "exercise_id", "score"]
QMATRIX_HEADER = ["exercise_id", "concept_id"]


def _read_columns(path, header: list[str]) -> list[list[str]]:
    """Stripped field columns of the rows after ``header``; a malformed file raises.

    The file is read and decoded once.  Bytes that are not UTF-8 raise at
    the line of the first bad one.  A plain file is then split whole
    (:func:`_split_plain`); any other goes through ``csv.reader`` over
    the same text.  Every ``*_id`` field must be non-empty and every
    ``score`` 0 or 1; the earliest row that breaks a rule, or has the
    wrong field count, raises with its line.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.start indexes exc.object, the bytes after any byte-order mark;
        # lines break at \n, \r and \r\n, as csv.reader counts them
        body, end = exc.object, exc.start
        breaks = body.count(b"\n", 0, end) + body.count(b"\r", 0, end) - body.count(b"\r\n", 0, end)
        raise DataFormatError(f"{path} line {breaks + 1}: not valid UTF-8 ({exc.reason})") from None
    columns, problems = _split_plain(raw, text, header), []
    if columns is None:
        columns, problems = _reader_columns(path, text, header)
    if "score" in header:
        scores = columns[header.index("score")]
        if not set(scores) <= {"0", "1"}:
            i = next(i for i, s in enumerate(scores) if s not in ("0", "1"))
            problems.append((i, f"score must be 0 or 1, got {scores[i]!r}"))
    if problems:  # the earliest row's; on one row, the first found
        index, message = min(problems, key=itemgetter(0))
        raise DataFormatError(f"{path} line {_row_line(text, index)}: {message}")
    return columns


# What ``str.strip`` removes from ASCII text, line breaks aside
_ASCII_PADDING = " \t\x0b\x0c\x1c\x1d\x1e\x1f"


def _split_plain(raw: bytes, text: str, header: list[str]) -> list[list[str]] | None:
    """The columns of ``text`` split on its commas, or None where ``csv.reader`` could differ.

    ``text`` is ``raw`` decoded.  The split serves a file without quotes
    or NULs, with one line ending throughout (``\\n`` or ``\\r\\n``), the
    expected header, ``len(header) - 1`` commas on every line (so no blank
    line), no line longer than ``csv.field_size_limit()`` and no empty
    id: there every line is one row and every comma a field break, so
    ``csv.reader`` would read the same fields.  Any other file is left
    to the reader, which words every error of the file's layout.
    """
    width = len(header)
    if not text or '"' in text or "\0" in text:
        return None
    eol = "\r\n" if "\r" in text else "\n"
    if [h.strip() for h in text.partition(eol)[0].split(",")] != header:
        return None
    if not _one_row_per_line(raw, width, eol):
        return None
    flat = text.replace(eol, ",").split(",")
    stop = len(flat) - len(flat) % width  # a final line ending leaves one "" past the rows
    columns = [flat[k:stop:width] for k in range(width, 2 * width)]
    # non-ASCII text may hold any Unicode space, so it is always stripped
    if not text.isascii() or any(c in text for c in _ASCII_PADDING):
        columns = [list(map(str.strip, col)) for col in columns]
    if any(name.endswith("_id") and not all(col) for name, col in zip(header, columns)):
        return None  # an empty id, which the reader's path reports
    return columns


def _one_row_per_line(raw: bytes, width: int, eol: str) -> bool:
    """Whether each line of ``raw`` holds ``width - 1`` commas and ends in ``eol``.

    The last line may end the file instead, and no line may be longer
    than ``csv.field_size_limit()``.
    """
    b = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    if eol == "\r\n" and not (
        np.count_nonzero(b == ord("\r")) == len(ends) and (b[ends - 1] == ord("\r")).all()
    ):
        return False  # a lone \r, or a line ending in \n alone
    if b[-1] != ord("\n"):
        ends = np.append(ends, len(b))  # the last line has no line ending
    starts = np.concatenate(([-1], ends[:-1]))  # the line ending before each line
    commas = np.flatnonzero(b == ord(","))
    if len(commas) != (width - 1) * len(ends):
        return False
    # with the count right, a line whose block of commas lies inside it holds exactly its own
    commas = commas.reshape(len(ends), width - 1)
    if (commas[:, 0] < starts).any() or (commas[:, -1] > ends).any():
        return False
    # in bytes, never fewer than the characters csv.reader counts
    return bool((ends - starts - 1).max() <= csv.field_size_limit())


def _reader_columns(path, text: str, header: list[str]) -> tuple[list[list[str]], list[tuple[int, str]]]:
    """The columns of ``text`` read by ``csv.reader``, and their problems.

    Columns cover the rows before the first one whose field count is
    wrong.  Problems are (row index, message): that row, if any, and the
    first empty field of each ``*_id`` column.  The reader's rows are
    appended to one flat list as they stream past, and the running
    length after each row tells every row's field count without keeping
    a list per row.
    """
    flat: list[str] = []
    try:
        reader = csv.reader(io.StringIO(text, newline=""))
        got = [h.strip() for h in next(reader, header)]
        if got != header:
            raise DataFormatError(
                f"{path}: expected header {','.join(header)!r}, got {','.join(got)!r}"
            )
        ends = np.fromiter(map(len, map(flat.__iadd__, reader)), dtype=np.int64)
    except csv.Error as exc:
        raise DataFormatError(f"{path} line {reader.line_num}: {exc}") from None
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


def _row_line(text: str, index: int) -> int:
    """The line of ``text`` on which data row ``index`` starts.

    A quoted field may span lines, so only the reader's own line count
    places a row.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    for _ in range(index + 1):  # the header, then the rows before ``index``
        next(reader)
    return reader.line_num + 1


def csv_fields(ids: list[str]) -> list[str]:
    """``ids`` as CSV fields: any that holds a comma, quote or line break quoted RFC 4180-style.

    The same field ``csv.writer`` writes, in a row of more than one.
    """
    joined = "\x00".join(ids)  # one scan of all ids, so plain ones pass as they are
    if not any(c in joined for c in ',"\r\n'):
        return ids
    return [
        '"' + i.replace('"', '""') + '"' if any(c in i for c in ',"\r\n') else i for i in ids
    ]


def load_logs(path) -> LogColumns:
    """Parse a response-log CSV. Malformed rows raise with their line number."""
    sids, eids, scores = _read_columns(path, LOG_HEADER)
    # every score is "0" or "1" here, so its one ASCII byte minus b"0" is its value
    digits = np.frombuffer("".join(scores).encode("ascii"), dtype=np.uint8)
    return LogColumns.from_rows(sids, eids, (digits - ord("0")).astype(np.float64))


def load_qmatrix(path) -> list[tuple[str, str]]:
    """Parse Q-matrix pairs, dropping duplicates but keeping first-seen order."""
    eids, cids = _read_columns(path, QMATRIX_HEADER)
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


def _first_seen_index(ids: list[str]) -> tuple[list[str], np.ndarray]:
    """Number ids by first appearance: (the distinct ids in order, each entry's number as int64).

    One pass over the dict tells each entry the position at which its id
    first appeared.
    """
    first_at: dict[str, int] = {}
    at = np.fromiter(map(first_at.setdefault, ids, count()), dtype=np.int64, count=len(ids))
    return list(first_at), _ranked(at)


def first_seen_codes(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Renumber ``codes``, ints in ``[0, n)``, by first appearance.

    Returns (the codes that occur, in that order; each entry's new number
    as int64), from integer work alone.
    """
    first_at = np.full(n, len(codes), dtype=np.int64)
    np.minimum.at(first_at, codes, np.arange(len(codes)))
    at = first_at[codes]
    return codes[at == np.arange(len(codes))], _ranked(at)


def _ranked(at: np.ndarray) -> np.ndarray:
    """Each entry's id number, from ``at``, the position where its id first appears.

    Ranking those first positions numbers the ids by first appearance.
    """
    return (np.cumsum(at == np.arange(len(at)), dtype=np.int64) - 1)[at]


def _fresh_copies(ids) -> list[str]:
    """Each id as a new string object equal to it, lone surrogates included."""
    return [i.encode("utf-8", "surrogatepass").decode("utf-8", "surrogatepass") for i in ids]


def build_dataset(logs: LogColumns, q_pairs: list[tuple[str, str]], min_logs: int) -> Dataset:
    """Filter sparse students, then index everything densely.

    ``logs`` are columns, as :func:`load_logs` and ``synth.planted_cohort``
    return them, and every score must be 0 or 1.
    Students with fewer than ``min_logs`` logs are dropped in one pass
    over the original counts, so the filter is idempotent.  The filter
    and the numbering run on the logs' codes; only the distinct ids of
    their tables are looked up.  Exercises present only in the Q-matrix
    are dropped; exercises present in the retained logs but absent from
    the Q-matrix are an error.  Concepts are numbered by first appearance
    among retained exercises, scanning the Q-matrix in file order.  A
    repeated (exercise, concept) pair counts once, as :func:`load_qmatrix`
    already ensures for files.
    """
    if min_logs < 1:
        raise ValueError(f"min_logs must be at least 1, got {min_logs}")
    s_codes, e_codes, scores = logs.students, logs.exercises, logs.scores
    bad = np.flatnonzero((scores != 0.0) & (scores != 1.0))
    if len(bad):
        i = int(bad[0])
        raise DataValidationError(f"log {i}: score must be 0 or 1, got {scores[i]:g}")
    keep = (np.bincount(s_codes, minlength=len(logs.student_ids)) >= min_logs)[s_codes]
    if not keep.all():
        s_codes, e_codes, scores = s_codes[keep], e_codes[keep], scores[keep]
    in_order, s_idx = first_seen_codes(s_codes, len(logs.student_ids))
    students = list(map(logs.student_ids.__getitem__, in_order.tolist()))
    if not students:
        raise DataValidationError(
            f"no students survive the min_logs={min_logs} filter ({len(logs)} logs in)"
        )
    in_order, e_idx = first_seen_codes(e_codes, len(logs.exercise_ids))
    exercises = dict(zip(map(logs.exercise_ids.__getitem__, in_order.tolist()), count()))

    pairs = dict.fromkeys(q_pairs)
    q_e = np.fromiter(map(exercises.get, map(itemgetter(0), pairs), repeat(-1)),
                      dtype=np.int64, count=len(pairs))
    retained = q_e >= 0
    concepts, q_c = _first_seen_index(list(compress(map(itemgetter(1), pairs), retained.tolist())))
    q_e = q_e[retained]
    sizes = np.bincount(q_e, minlength=len(exercises))
    missing = np.flatnonzero(sizes == 0)
    if len(missing):
        exercise_ids = list(exercises)
        shown = ", ".join(repr(exercise_ids[j]) for j in missing[:5])
        raise DataValidationError(
            f"{len(missing)} exercise(s) have no Q-matrix concepts (e.g. {shown})"
        )

    # The ids are copied out of the input.  Each id in a loaded table is a
    # small string allocated among the hundreds of thousands the file's rows
    # were split into, so holding it would keep those strings' allocator
    # arenas resident (tens of MB on an ASSIST-size file) after they are freed.
    return Dataset(
        student_ids=_fresh_copies(students),
        exercise_ids=_fresh_copies(exercises),
        concept_ids=_fresh_copies(concepts),
        s_idx=s_idx,
        e_idx=e_idx,
        scores=np.array(scores, dtype=np.float64),
        concept_ptr=np.concatenate(([0], np.cumsum(sizes))),
        # a stable sort keeps each exercise's concepts in Q-matrix order
        concept_idx=q_c[np.argsort(q_e, kind="stable")],
    )


def cell_runs(ptr: np.ndarray, idx: np.ndarray, rows: np.ndarray):
    """The CSR runs ``idx[ptr[r]:ptr[r + 1]]`` of ``rows``, laid end to end.

    Returns (cells, run lengths).  One gather does it: a row's run starts
    at ``ptr[r]`` in ``idx``, so shifting one arange over all runs by
    (that start - the run's start in the output) reads every run at once.
    """
    starts = ptr[rows]
    sizes = ptr[rows + 1] - starts
    ends = sizes.cumsum()
    return idx[(starts - ends + sizes).repeat(sizes) + np.arange(ends[-1] if len(ends) else 0)], sizes


@dataclass
class SplitSpec:
    train_fraction: float = 0.7
    val_fraction: float = 0.1
    seed: int = 0

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
