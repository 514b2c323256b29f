"""Log parsing, filtering, indexing, splitting, batching."""

import builtins
import contextlib
import csv
import importlib.util
import io
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from cogdiag.data import (
    LOG_HEADER,
    QMATRIX_HEADER,
    DataFormatError,
    DataValidationError,
    LogColumns,
    ResponseLog,
    SplitSpec,
    batches,
    build_dataset,
    load_logs,
    load_qmatrix,
    split_per_student,
)
from cogdiag.seeding import substream
from cogdiag.synth import planted_cohort, write_cohort_csv


def write(path, text):
    path.write_text(text)
    return path


def rows_of(logs):
    """The logs one row at a time, as code outside the package reads them."""
    return [logs[i] for i in range(len(logs))]


UTF8_BOM = b"\xef\xbb\xbf"
DATASET_ARRAYS = ("s_idx", "e_idx", "scores", "concept_ptr", "concept_idx")


def assert_same_dataset(got, want):
    assert (got.student_ids, got.exercise_ids, got.concept_ids) == (
        want.student_ids, want.exercise_ids, want.concept_ids
    )
    for name in DATASET_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.fixture
def logs_csv(tmp_path):
    return write(
        tmp_path / "logs.csv",
        "student_id,exercise_id,score\n"
        "s1,e1,1\n"
        "s1,e2,0\n"
        "s2,e1,1\n"
        "s2,e3,1\n"
        "s1,e3,0\n",
    )


@pytest.fixture
def q_csv(tmp_path):
    return write(
        tmp_path / "q.csv",
        "exercise_id,concept_id\n"
        "e1,c_add\n"
        "e2,c_add\n"
        "e2,c_sub\n"
        "e3,c_mul\n",
    )


# (test id suffix, byte-order mark, rows after the header, line of the first bad byte)
UNDECODABLE_BODIES = [
    ("", b"", b"s1,e1,1\n" * 3 + b"s\xff,e1,1\n", 5),
    # the bad byte wins over an earlier csv error, however far apart the two lie
    ("-after-a-long-field", b"", b"s1,e1,1\n" + b"y" * 200_000 + b",e1,1\ns\xff,e1,1\n", 4),
    ("-2000-rows-after-a-long-field", b"",
     b"s1,e1,1\n" + b"y" * 200_000 + b",e1,1\n" + b"s1,e1,1\n" * 2000 + b"s\xff,e1,1\n", 2004),
    # the line is counted after the mark, as the decoder reports the byte's position
    ("-after-a-byte-order-mark", UTF8_BOM, b"s1,e1,1\ns\xff,e1,1\n", 3),
    # lines break at \r and \r\n too, as csv.reader numbers every other error
    ("-after-cr-only-lines", b"", b"s1,e1,1\r" * 2 + b"s\xff,e1,1\r", 4),
    ("-after-crlf-lines", b"", b"s1,e1,1\r\n" * 2 + b"s\xff,e1,1\r\n", 4),
]


class TestLoading:
    def test_load_logs(self, logs_csv):
        logs = load_logs(logs_csv)
        assert len(logs) == 5
        assert logs[0] == ResponseLog("s1", "e1", 1)
        assert logs[4].score == 0

    def test_empty_file_is_empty_list(self, tmp_path):
        assert len(load_logs(write(tmp_path / "empty.csv", "student_id,exercise_id,score\n"))) == 0

    def test_header_checked(self, tmp_path):
        bad = write(tmp_path / "bad.csv", "a,b,c\ns1,e1,1\n")
        with pytest.raises(DataFormatError, match="header"):
            load_logs(bad)

    def test_bad_score_names_line(self, tmp_path):
        bad = write(tmp_path / "bad.csv", "student_id,exercise_id,score\ns1,e1,1\ns1,e2,2\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_logs(bad)

    def test_wrong_field_count_names_line(self, tmp_path):
        bad = write(tmp_path / "bad.csv", "student_id,exercise_id,score\ns1,e1\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_logs(bad)

    def test_qmatrix_dedupes_preserving_order(self, tmp_path):
        q = write(
            tmp_path / "q.csv",
            "exercise_id,concept_id\ne1,c2\ne1,c1\ne1,c2\n",
        )
        assert load_qmatrix(q) == [("e1", "c2"), ("e1", "c1")]

    @pytest.mark.parametrize(
        "body, message",
        [
            ("s1,e1,1\ns1,e2,0\ns1,e1,2\ns2,e1,1\ns2,e2\n", "line 4: score must be 0 or 1, got '2'"),
            ("s1,e1,1\ns1,e2,0\ns1,e1\ns2,e1,1\ns2,e2,2\n", "line 4: expected 3 fields, got 2"),
            ("s1,e1,1\n ,e2,0\ns1,e1,1\ns2,e1,x\n", "line 3: empty id field"),
            ("s1,e1,1\ns1,e2,x\ns1, ,1\n", "line 3: score must be 0 or 1, got 'x'"),
            ("s1,e1,1\ns1,,x\n", "line 3: empty id field"),
            ("s1,e1,1\n\ns2,e1,0\n", "line 3: expected 3 fields, got 0"),
            ("s1,e1,1\ns1,e1,1,0\ns1,,1\n", "line 3: expected 3 fields, got 4"),
            ('"s\n1",e1,1\ns2,e1,7\n', "line 4: score must be 0 or 1, got '7'"),
        ],
        ids=["score-before-short-row", "short-row-before-score", "empty-id-before-score",
             "score-before-empty-id", "empty-id-and-score-on-one-row", "blank-line",
             "long-row-before-empty-id", "row-after-a-multiline-field"],
    )
    def test_first_bad_row_in_file_order_wins(self, tmp_path, body, message):
        bad = write(tmp_path / "bad.csv", "student_id,exercise_id,score\n" + body)
        with pytest.raises(DataFormatError) as excinfo:
            load_logs(bad)
        assert str(excinfo.value) == f"{bad} {message}"

    def test_qmatrix_first_bad_row_wins(self, tmp_path):
        bad = write(tmp_path / "q.csv", "exercise_id,concept_id\ne1,c1\ne2,c1,c2\n,c3\n")
        with pytest.raises(DataFormatError) as excinfo:
            load_qmatrix(bad)
        assert str(excinfo.value) == f"{bad} line 3: expected 2 fields, got 3"

    def test_qmatrix_row_after_a_multiline_field_names_its_line(self, tmp_path):
        bad = write(tmp_path / "q.csv", 'exercise_id,concept_id\n"e\n1",c1\ne2,\n')
        with pytest.raises(DataFormatError) as excinfo:
            load_qmatrix(bad)
        assert str(excinfo.value) == f"{bad} line 4: empty id field"

    def test_byte_order_mark_is_skipped(self, logs_csv, q_csv, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with one
        marked = {}
        for path in (logs_csv, q_csv):
            marked[path] = tmp_path / f"bom-{path.name}"
            marked[path].write_bytes(UTF8_BOM + path.read_bytes())
        assert_same_dataset(
            build_dataset(load_logs(marked[logs_csv]), load_qmatrix(marked[q_csv]), min_logs=1),
            build_dataset(load_logs(logs_csv), load_qmatrix(q_csv), min_logs=1),
        )

    @pytest.mark.parametrize(
        "load, text, message",
        [
            (load_logs, 'student_id,exercise_id,score\n"s\n1",e1,1\ns2,e1,7\n',
             "line 4: score must be 0 or 1, got '7'"),
            (load_qmatrix, 'exercise_id,concept_id\n"e\n1",c1\ne2,\n', "line 4: empty id field"),
        ],
        ids=["logs", "qmatrix"],
    )
    def test_bad_row_after_a_byte_order_mark_names_its_line(self, tmp_path, load, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(UTF8_BOM + text.encode("utf-8"))
        with pytest.raises(DataFormatError) as excinfo:
            load(bad)
        assert str(excinfo.value) == f"{bad} {message}"

    def test_header_only_qmatrix_is_empty(self, tmp_path):
        assert load_qmatrix(write(tmp_path / "q.csv", "exercise_id,concept_id\n")) == []

    @pytest.mark.parametrize("load, header", [(load_logs, "student_id,exercise_id,score\n"),
                                              (load_qmatrix, "exercise_id,concept_id\n")],
                             ids=["logs", "qmatrix"])
    def test_oversized_field_names_file_and_line(self, tmp_path, load, header):
        width = header.count(",") + 1
        row = ",".join(["x"] * width) + "\n"
        long_row = ",".join(["y" * 200_000] + ["x"] * (width - 1)) + "\n"
        bad = write(tmp_path / "big.csv", header + row + long_row + row)
        with pytest.raises(DataFormatError) as excinfo:
            load(bad)
        assert str(excinfo.value) == f"{bad} line 3: field larger than field limit (131072)"

    @pytest.mark.parametrize(
        "load, data, line",
        [pytest.param(load, bom + header + body, line, id=name + suffix)
         for name, load, header in (("logs", load_logs, b"student_id,exercise_id,score\n"),
                                    ("qmatrix", load_qmatrix, b"exercise_id,concept_id\n"))
         for suffix, bom, body, line in UNDECODABLE_BODIES],
    )
    def test_undecodable_byte_names_file_and_line(self, tmp_path, load, data, line):
        bad = tmp_path / "bytes.csv"
        bad.write_bytes(data)
        with pytest.raises(DataFormatError) as excinfo:
            load(bad)
        assert str(excinfo.value) == f"{bad} line {line}: not valid UTF-8 (invalid start byte)"

    @pytest.mark.parametrize(
        "load, data",
        [
            (load_logs, b"student_id,exercise_id,score\ns1,e1,1\ns1,e2,0\n"),
            (load_logs, b'student_id,exercise_id,score\n"s1",e1,1\n'),
            (load_logs, b"student_id,exercise_id,score\ns1,e1,1\ns1,e2,2\n"),
            (load_logs, b"student_id,exercise_id,score\ns1,e1,1\ns\xff,e2,0\n"),
            (load_qmatrix, b"exercise_id,concept_id\ne1,c1\ne2,\n"),
            (load_qmatrix, b"exercise_id,concept_id\ne1,c1\ne\xff,c1\n"),
        ],
        ids=["plain", "quoted", "bad-score", "undecodable", "qmatrix-empty-id",
             "qmatrix-undecodable"],
    )
    def test_a_load_opens_its_file_once(self, tmp_path, monkeypatch, load, data):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        # Path.read_bytes opens through io.open, a bare open() through builtins
        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        with contextlib.suppress(DataFormatError):
            load(path)
        assert opened == [path]


LOG_LINE = "student_id,exercise_id,score"


class TestFilesTheSplitDeclines:
    """Files a comma split could misread load, or fail, exactly as ``csv.reader`` has them."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (LOG_LINE + "\r\ns1,e1,1\rs2,e1,2\r\n", "line 3: score must be 0 or 1, got '2'"),
            (LOG_LINE + "\ns1,e1,1\rs2,e1,2\n", "line 3: score must be 0 or 1, got '2'"),
            (LOG_LINE + "\r\ns1,e1,1\ns2,e1,2\r\n", "line 3: score must be 0 or 1, got '2'"),
            (LOG_LINE + "\r\ns1,e1,1\r\n\r\ns2,e1,0\r\n", "line 3: expected 3 fields, got 0"),
            (LOG_LINE + "\n\n", "line 2: expected 3 fields, got 0"),
            (LOG_LINE + "\r\ns1,e1,1\r\n\r\n", "line 3: expected 3 fields, got 0"),
            (LOG_LINE + "\ns1,e1,1\ns1,e2\n", "line 3: expected 3 fields, got 2"),
            (LOG_LINE + "\ns1,e1,1\ns1,e2,0,1\n", "line 3: expected 3 fields, got 4"),
            (LOG_LINE + "\ns1,e1,1\ns1,e2\ns1,e2,0,1\n", "line 3: expected 3 fields, got 2"),
            (LOG_LINE + "\ns1,e1,1\ns1,e2", "line 3: expected 3 fields, got 2"),
            (LOG_LINE + "\r\ns1,e1,1\r\n,e2,0\r\n", "line 3: empty id field"),
            (LOG_LINE + "\r\ns1,e1,1\r\ns1, ,0\r\n", "line 3: empty id field"),
            (LOG_LINE + "\r\ns1,e1,1\r\ns1,e2,x\r\n", "line 3: score must be 0 or 1, got 'x'"),
            ("student,exercise_id,score\r\ns1,e1,1\r\n",
             ": expected header 'student_id,exercise_id,score', got 'student,exercise_id,score'"),
            ("student_id,exercise_id\r\ns1,e1\r\n",
             ": expected header 'student_id,exercise_id,score', got 'student_id,exercise_id'"),
        ],
        ids=["lone-cr", "lone-cr-in-an-lf-file", "mixed-endings", "blank-line", "blank-line-after-header",
             "trailing-blank-line", "two-fields", "four-fields", "two-then-four-fields",
             "short-last-line", "empty-id", "blank-id", "bad-score", "bad-header", "short-header"],
    )
    def test_exact_message(self, tmp_path, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(text.encode("utf-8"))
        with pytest.raises(DataFormatError) as excinfo:
            load_logs(bad)
        assert str(excinfo.value) == f"{bad}{'' if message[0] == ':' else ' '}{message}"

    @pytest.mark.parametrize("load, header", [(load_logs, LOG_HEADER), (load_qmatrix, QMATRIX_HEADER)],
                             ids=["logs", "qmatrix"])
    def test_oversized_line_of_short_fields_loads(self, tmp_path, load, header):
        # longer than csv.field_size_limit() but no field is: the reader takes it
        fields = ["x" * 100_000, "1"] if load is load_qmatrix else ["x" * 100_000, "y" * 100_000, "1"]
        path = tmp_path / "long.csv"
        path.write_text(",".join(header) + "\n" + ",".join(fields) + "\n")
        assert len(load(path)) == 1

    @pytest.mark.parametrize(
        "body", ["s1,e1,1\rs2,e1,0\r", "s\x001,e1,1\ns2,e\x00,0\n", "s1,e1,1\r\ns2,e1,0\n"],
        ids=["lone-cr", "nul", "mixed-endings"],
    )
    def test_loads_as_the_reader_reads_it(self, tmp_path, body):
        path = tmp_path / "logs.csv"
        path.write_bytes((LOG_LINE + "\n" + body).encode("utf-8"))
        try:
            want = reader_columns(path, LOG_HEADER)
        except csv.Error as exc:  # a csv module that rejects NUL: so must the loader
            with pytest.raises(DataFormatError, match=str(exc)):
                load_logs(path)
            return
        got = rows_of(load_logs(path))
        assert [[r.student_id for r in got], [r.exercise_id for r in got],
                [str(r.score) for r in got]] == want


def load_script(name):
    """Import ``scripts/<name>.py`` as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPlainFilesSkipTheReader:
    """The CSVs cogdiag's own tools write take the comma split, never ``csv.reader``."""

    @pytest.fixture
    def cohort_files(self, tmp_path):
        cohort = planted_cohort(n_students=12, n_exercises=30, n_concepts=4, per_student=10, seed=2)
        write_cohort_csv(cohort, tmp_path / "logs.csv", tmp_path / "qmatrix.csv")
        return cohort, tmp_path / "logs.csv", tmp_path / "qmatrix.csv"

    @pytest.fixture
    def no_reader(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader was called")

        return lambda: monkeypatch.setattr(csv, "reader", refuse)

    @pytest.mark.parametrize("eol", ["\r\n", "\n"], ids=["crlf", "lf"])
    def test_cohort_csvs(self, cohort_files, no_reader, eol):
        cohort, logs_path, q_path = cohort_files
        assert logs_path.read_bytes().count(b"\r\n") == len(cohort.logs) + 1  # as written
        for path in (logs_path, q_path):
            path.write_bytes(path.read_bytes().replace(b"\r\n", eol.encode()))
        no_reader()
        logs = load_logs(logs_path)
        assert rows_of(logs) == rows_of(cohort.logs)
        assert (logs.student_ids, logs.exercise_ids) == (cohort.logs.student_ids, cohort.logs.exercise_ids)
        np.testing.assert_array_equal(logs.scores, cohort.logs.scores)
        assert load_qmatrix(q_path) == cohort.q_pairs

    def test_prepared_assist_files(self, tmp_path, no_reader, capsys):
        # four students with 7 first attempts each, and one with 2 that the filter drops
        raw = tmp_path / "skill_builder_data.csv"
        rows = [(order, 70000 + order % 4, 3000 + order % 7, 10 + order % 3, order % 2)
                for order in range(1, 60)] + [(60, 70009, 3000, 10, 1), (61, 70009, 3001, 11, 0)]
        raw.write_text("order_id,user_id,problem_id,skill_id,correct\n"
                       + "".join(",".join(map(str, row)) + "\n" for row in rows), encoding="latin-1")
        prepare = load_script("prepare_assist2009").main
        assert prepare([str(raw), "--out", str(tmp_path / "out"), "--min-logs", "5"]) == 0
        # the printed counts are those of the dataset the files make
        printed = {line.split()[0]: int(line.split()[1])
                   for line in capsys.readouterr().out.splitlines() if line.startswith("  ")}
        dataset = build_dataset(load_logs(tmp_path / "out" / "logs.csv"),
                                load_qmatrix(tmp_path / "out" / "qmatrix.csv"), min_logs=5)
        assert printed == {"students": dataset.n_students, "exercises": dataset.n_exercises,
                           "concepts": dataset.n_concepts, "logs": dataset.n_interactions}
        assert printed == {"students": 4, "exercises": 7, "concepts": 3, "logs": 28}
        with open(tmp_path / "out" / "logs.csv", newline="") as fh:
            want_logs = list(csv.reader(fh))[1:]
        with open(tmp_path / "out" / "qmatrix.csv", newline="") as fh:
            want_q = [tuple(row) for row in list(csv.reader(fh))[1:]]
        no_reader()
        logs = load_logs(tmp_path / "out" / "logs.csv")
        assert [[r.student_id, r.exercise_id, str(r.score)] for r in rows_of(logs)] == want_logs
        assert load_qmatrix(tmp_path / "out" / "qmatrix.csv") == want_q

    def test_assist_script_exits_one_when_no_student_reaches_min_logs(self, tmp_path, capsys):
        raw = tmp_path / "skill_builder_data.csv"
        raw.write_text("order_id,user_id,problem_id,skill_id,correct\n1,7,30,10,1\n2,7,31,11,0\n",
                       encoding="latin-1")
        assert load_script("prepare_assist2009").main([str(raw), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: no students survive the min_logs=15 filter (2 logs in)\n"

    def test_a_quoted_id_loads_through_the_reader(self, cohort_files, monkeypatch):
        cohort, logs_path, _ = cohort_files
        logs_path.write_bytes(logs_path.read_bytes() + b'"s,1",e0001,1\r\n')
        calls, reader = [], csv.reader
        monkeypatch.setattr(csv, "reader", lambda lines: calls.append(lines) or reader(lines))
        logs = load_logs(logs_path)
        assert len(calls) == 1
        assert [r.student_id for r in rows_of(logs)] == [r.student_id for r in rows_of(cohort.logs)] + ["s,1"]
        assert logs.scores[-1] == 1.0


class TestRowContract:
    """What code outside the package reads of a ``LogColumns``.

    perfbench indexes ``logs[pos]`` with numpy positions and iterates the
    logs; ``scripts/artifact_digest.py`` serves ``logs.student_ids[0]`` as
    the first row's student.
    """

    @pytest.mark.parametrize("source", ["split", "reader", "planted_cohort"])
    def test_rows_and_first_seen_tables(self, tmp_path, monkeypatch, source):
        cohort = planted_cohort(n_students=12, n_exercises=30, n_concepts=4, per_student=10, seed=2)
        path = tmp_path / "logs.csv"
        write_cohort_csv(cohort, path, tmp_path / "qmatrix.csv")
        if source == "reader":  # a quoted id, as its own first row, sends the file to csv.reader
            header, body = path.read_bytes().split(b"\r\n", 1)
            path.write_bytes(header + b'\r\n"s,1",e0029,1\r\n' + body)
        sids, eids, scores = reader_columns(path, LOG_HEADER)
        want = [ResponseLog(s, e, int(v)) for s, e, v in zip(sids, eids, scores)]
        calls, reader = [], csv.reader
        monkeypatch.setattr(csv, "reader", lambda lines: calls.append(lines) or reader(lines))
        logs = cohort.logs if source == "planted_cohort" else load_logs(path)
        assert len(calls) == (source == "reader")
        assert len(logs) == len(want)
        assert [logs[np.int64(i)] for i in range(len(logs))] == want
        assert list(logs) == want  # iteration stops at the end, on IndexError
        with pytest.raises(IndexError):
            logs[len(logs)]
        assert logs.student_ids == list(dict.fromkeys(sids))
        assert logs.exercise_ids == list(dict.fromkeys(eids))
        assert logs.student_ids[0] == want[0].student_id


def columns_of(ds):
    """The logs a dataset indexes, in file order."""
    return LogColumns.from_rows([ds.student_ids[s] for s in ds.s_idx],
                                [ds.exercise_ids[e] for e in ds.e_idx], ds.scores)


class TestFilterStudents:
    """``build_dataset``'s ``min_logs`` filter, applied before any indexing."""

    def logs(self, counts):
        sids = [sid for sid, n in counts.items() for _ in range(n)]
        eids = [f"e{k}" for n in counts.values() for k in range(n)]
        return LogColumns.from_rows(sids, eids, np.ones(len(sids)))

    def q_pairs(self, logs):
        return [(eid, "c") for eid in logs.exercise_ids]

    def test_threshold(self):
        logs = self.logs({"a": 15, "b": 14})
        kept = columns_of(build_dataset(logs, self.q_pairs(logs), min_logs=15))
        assert set(kept.student_ids) == {"a"}
        assert len(kept) == 15

    def test_idempotent(self):
        logs = self.logs({"a": 20, "b": 3, "c": 16})
        once = build_dataset(logs, self.q_pairs(logs), min_logs=15)
        twice = build_dataset(columns_of(once), self.q_pairs(logs), min_logs=15)
        assert_same_dataset(twice, once)

    def test_min_logs_one_keeps_everything(self):
        logs = self.logs({"a": 1, "b": 2})
        assert list(columns_of(build_dataset(logs, self.q_pairs(logs), min_logs=1))) == list(logs)

    def test_rejects_nonpositive_threshold(self):
        logs = self.logs({"a": 1})
        with pytest.raises(ValueError, match="min_logs must be at least 1, got 0"):
            build_dataset(logs, self.q_pairs(logs), min_logs=0)


class TestBuildDataset:
    def test_first_appearance_indexing(self, logs_csv, q_csv):
        ds = build_dataset(load_logs(logs_csv), load_qmatrix(q_csv), min_logs=1)
        assert ds.student_ids == ["s1", "s2"]
        assert ds.exercise_ids == ["e1", "e2", "e3"]
        assert ds.concept_ids == ["c_add", "c_sub", "c_mul"]
        np.testing.assert_array_equal(ds.s_idx, [0, 0, 1, 1, 0])
        np.testing.assert_array_equal(ds.e_idx, [0, 1, 0, 2, 2])
        np.testing.assert_array_equal(ds.scores, [1, 0, 1, 1, 0])

    def test_dense_q(self, logs_csv, q_csv):
        ds = build_dataset(load_logs(logs_csv), load_qmatrix(q_csv), min_logs=1)
        expected = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1]], dtype=np.float64)
        np.testing.assert_array_equal(ds.dense_q, expected)

    def test_filter_applied_before_indexing(self, q_csv):
        logs = LogColumns.from_rows(["rare"] + ["busy"] * 5, ["e1"] * 6, np.ones(6))
        ds = build_dataset(logs, load_qmatrix(q_csv), min_logs=2)
        assert ds.student_ids == ["busy"]
        assert ds.exercise_ids == ["e1"]
        # concepts attached only to dropped exercises disappear with them
        assert ds.concept_ids == ["c_add"]

    def test_exercise_without_concepts_rejected(self, logs_csv, tmp_path):
        q = write(tmp_path / "q.csv", "exercise_id,concept_id\ne1,c1\ne2,c1\n")
        with pytest.raises(DataValidationError, match="e3"):
            build_dataset(load_logs(logs_csv), load_qmatrix(q), min_logs=1)

    def test_everything_filtered_rejected(self, logs_csv, q_csv):
        with pytest.raises(DataValidationError, match="min_logs"):
            build_dataset(load_logs(logs_csv), load_qmatrix(q_csv), min_logs=100)

    @pytest.mark.parametrize("bad, shown", [(2, "2"), (0.5, "0.5"), (-1.0, "-1"), (float("nan"), "nan")])
    def test_scores_must_be_zero_or_one_in_any_form(self, bad, shown):
        pairs = [("e", "c"), ("f", "c")]
        good = LogColumns.from_rows(["s"] * 3, ["e", "f", "e"], np.array([0.0, 1.0, 1.0]))
        np.testing.assert_array_equal(build_dataset(good, pairs, min_logs=1).scores, [0, 1, 1])
        logs = LogColumns.from_rows(["s"] * 5, ["e", "f", "e", "f", "e"],
                                    np.array([0.0, 1.0, 1.0, bad, 3.0]))
        with pytest.raises(DataValidationError, match=rf"^log 3: score must be 0 or 1, got {shown}$"):
            build_dataset(logs, pairs, min_logs=1)

    def test_repeated_qmatrix_pairs_count_once(self):
        logs = LogColumns.from_rows(["s1", "s1"], ["e", "f"], np.array([1.0, 0.0]))
        pairs = [("e", "c"), ("f", "d"), ("e", "c"), ("e", "d"), ("f", "d")]
        ds = build_dataset(logs, pairs, min_logs=1)
        assert ds.concept_ids == ["c", "d"]
        np.testing.assert_array_equal(ds.concept_ptr, [0, 2, 3])
        np.testing.assert_array_equal(ds.concept_idx, [0, 1, 1])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), min_logs=st.integers(1, 4))
    def test_codes_in_any_order_index_like_their_rows(self, data, min_logs):
        # tables out of first-seen order, with ids no log uses, index as the rows they code
        n_students, n_exercises = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 25))
        logs = LogColumns(
            [f"s{k}" for k in range(n_students)], [f"e{k}" for k in range(n_exercises)],
            np.array(data.draw(st.lists(st.integers(0, n_students - 1), min_size=n, max_size=n))),
            np.array(data.draw(st.lists(st.integers(0, n_exercises - 1), min_size=n, max_size=n))),
            np.ones(n),
        )
        rows = rows_of(logs)
        recoded = LogColumns.from_rows([r.student_id for r in rows], [r.exercise_id for r in rows],
                                       np.ones(n))
        pairs = [(f"e{k}", "c") for k in range(n_exercises)]
        try:
            want = build_dataset(recoded, pairs, min_logs=min_logs)
        except DataValidationError:
            with pytest.raises(DataValidationError, match="min_logs"):
                build_dataset(logs, pairs, min_logs=min_logs)
            return
        assert_same_dataset(build_dataset(logs, pairs, min_logs=min_logs), want)

    def test_ids_are_equal_copies_not_the_input_strings(self):
        # ids taken straight from a parsed file would each pin an
        # allocator arena of the freed log columns; the dataset holds
        # copies.  Lone surrogates and surrogate pairs survive the copy.
        sids = ["stu-a", "stu-\ud800", "stu-b", "stu-a", "stu-\U0001f600"]
        eids = ["ex-1", "ex-\udfff\ud83d", "ex-1", "ex-\u00e9t\u00e9", "ex-1"]
        pairs = [("ex-1", "con-x"), ("ex-\udfff\ud83d", "con-\ud83d\ude00"),
                 ("ex-\u00e9t\u00e9", "con-x"), ("ex-unused", "con-y")]
        ds = build_dataset(LogColumns.from_rows(sids, eids, np.ones(5)), pairs, min_logs=1)
        assert ds.student_ids == ["stu-a", "stu-\ud800", "stu-b", "stu-\U0001f600"]
        assert ds.exercise_ids == ["ex-1", "ex-\udfff\ud83d", "ex-\u00e9t\u00e9"]
        assert ds.concept_ids == ["con-x", "con-\ud83d\ude00"]
        assert [len(c) for c in ds.concept_ids] == [5, 6]  # the pair stays two code points
        given = {id(i) for i in [*sids, *eids, *(i for pair in pairs for i in pair)]}
        held = [*ds.student_ids, *ds.exercise_ids, *ds.concept_ids]
        assert not given & {id(i) for i in held}


def first_seen_oracle(records, pairs, min_logs):
    """Brute-force indexing: count, filter, then number ids by scanning lists."""
    counts = {}
    for r in records:
        counts[r.student_id] = counts.get(r.student_id, 0) + 1
    kept = [r for r in records if counts[r.student_id] >= min_logs]
    students, exercises, concepts, seen = [], [], [], []
    for r in kept:
        if r.student_id not in students:
            students.append(r.student_id)
        if r.exercise_id not in exercises:
            exercises.append(r.exercise_id)
    per_exercise = [[] for _ in exercises]
    for eid, cid in pairs:
        if (eid, cid) in seen or eid not in exercises:
            continue
        seen.append((eid, cid))
        if cid not in concepts:
            concepts.append(cid)
        per_exercise[exercises.index(eid)].append(concepts.index(cid))
    return {
        "student_ids": students,
        "exercise_ids": exercises,
        "concept_ids": concepts,
        "s_idx": [students.index(r.student_id) for r in kept],
        "e_idx": [exercises.index(r.exercise_id) for r in kept],
        "scores": [float(r.score) for r in kept],
        "concept_ptr": np.cumsum([0] + [len(c) for c in per_exercise]),
        "concept_idx": [k for c in per_exercise for k in c],
    }


# ids a CSV writer leaves bare (inner spaces and tabs, a non-ASCII letter), or must
# quote: commas, quotes, embedded line breaks (csv.writer quotes a \r only when its
# line terminator holds one)
ID_ALPHABETS = {"\n": ["ab x\té", 'ab,"\n x'], "\r\n": ["ab x\té", 'ab,"\n\r x']}
padding = st.sampled_from(["", " ", "  ", "\t", "\xa0"])


@st.composite
def csv_cohorts(draw):
    """(records, pairs, log rows, Q-matrix rows, file layout (eol, final eol, BOM))."""
    layout = draw(st.tuples(st.sampled_from(["\n", "\r\n"]), st.booleans(), st.booleans()))
    alphabet = draw(st.sampled_from(ID_ALPHABETS[layout[0]]))
    core_ids = st.text(alphabet=alphabet, min_size=1, max_size=4).filter(lambda t: t == t.strip())
    students = draw(st.lists(core_ids, min_size=1, max_size=5, unique=True))
    exercises = draw(st.lists(core_ids, min_size=1, max_size=5, unique=True))
    concepts = draw(st.lists(core_ids, min_size=1, max_size=3, unique=True))
    n = draw(st.integers(1, 30))
    records = LogColumns.from_rows(
        draw(st.lists(st.sampled_from(students), min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from(exercises), min_size=n, max_size=n)),
        np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.float64),
    )
    # every exercise gets a concept, then extra and repeated pairs in random order
    pairs = [(e, draw(st.sampled_from(concepts))) for e in exercises]
    pairs += draw(st.lists(st.tuples(st.sampled_from(exercises), st.sampled_from(concepts)),
                           max_size=8))
    pairs = draw(st.permutations(pairs))
    pad = lambda text: draw(padding) + text + draw(padding)  # noqa: E731
    log_rows = [[pad(r.student_id), pad(r.exercise_id), pad(str(r.score))] for r in records]
    q_rows = [[pad(e), pad(c)] for e, c in pairs]
    return records, pairs, log_rows, q_rows, layout


def write_rows(path, header, rows, eol="\r\n", final_eol=True, bom=False):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=eol)
    writer.writerow(header)
    writer.writerows(rows)
    text = out.getvalue() if final_eol else out.getvalue()[: -len(eol)]
    path.write_bytes((UTF8_BOM if bom else b"") + text.encode("utf-8"))
    return path


def reader_columns(path, header):
    """Reference: ``csv.reader`` over the whole file, every field stripped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [[field.strip() for field in row] for row in csv.reader(fh)]
    assert rows[0] == header
    return [[row[k] for row in rows[1:]] for k in range(len(header))]



class TestColumnarIngestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(csv_cohorts())
    def test_files_load_and_index_like_the_records(self, cohort):
        records, pairs, log_rows, q_rows, (eol, final_eol, bom) = cohort
        with tempfile.TemporaryDirectory() as tmp:
            log_path = write_rows(Path(tmp) / "logs.csv", LOG_HEADER, log_rows, eol, final_eol, bom)
            q_path = write_rows(Path(tmp) / "q.csv", QMATRIX_HEADER, q_rows, eol, final_eol, bom)
            logs, q_pairs = load_logs(log_path), load_qmatrix(q_path)
            sids, eids, scores = reader_columns(log_path, LOG_HEADER)
            q_eids, q_cids = reader_columns(q_path, QMATRIX_HEADER)
        got = rows_of(logs)
        assert ([r.student_id for r in got], [r.exercise_id for r in got]) == (sids, eids)
        np.testing.assert_array_equal(logs.scores, np.array(scores, dtype=np.float64))
        assert q_pairs == list(dict.fromkeys(zip(q_eids, q_cids)))
        assert len(logs) == len(records)
        assert list(logs) == list(records)
        assert q_pairs == list(dict.fromkeys(pairs))

        counts = sorted(Counter(r.student_id for r in records).values())
        # 1 keeps everyone; the largest count drops everyone below it; one past it drops all
        for min_logs in sorted({1, 2, counts[len(counts) // 2], counts[-1], counts[-1] + 1}):
            want = first_seen_oracle(records, pairs, min_logs)
            if not want["student_ids"]:
                for source in (logs, records):
                    with pytest.raises(DataValidationError, match="min_logs"):
                        build_dataset(source, q_pairs, min_logs=min_logs)
                continue
            from_file = build_dataset(logs, q_pairs, min_logs=min_logs)
            assert_same_dataset(from_file, build_dataset(records, q_pairs, min_logs=min_logs))
            assert (from_file.student_ids, from_file.exercise_ids, from_file.concept_ids) == (
                want["student_ids"], want["exercise_ids"], want["concept_ids"]
            )
            for name in DATASET_ARRAYS:
                np.testing.assert_array_equal(getattr(from_file, name), want[name], err_msg=name)


def toy_dataset(per_student, n_exercises=50):
    """Dataset with the given per-student interaction counts."""
    sids = [sid for sid, n in per_student.items() for _ in range(n)]
    k = np.arange(len(sids))
    logs = LogColumns.from_rows(sids, [f"e{j}" for j in k % n_exercises], (k % 2).astype(np.float64))
    q = [(f"e{j}", f"c{j % 5}") for j in range(n_exercises)]
    return build_dataset(logs, q, min_logs=1)


class TestSplit:
    def test_partition(self):
        ds = toy_dataset({"a": 20, "b": 33, "c": 15})
        sp = split_per_student(ds, SplitSpec(seed=3))
        merged = np.sort(np.concatenate([sp.train, sp.val, sp.test]))
        np.testing.assert_array_equal(merged, np.arange(ds.n_interactions))

    def test_counts_follow_floor_rules(self):
        ds = toy_dataset({"a": 20})
        sp = split_per_student(ds, SplitSpec(seed=0))
        # floor(20 * 0.7) = 14, max(1, floor(20 * 0.1)) = 2, remainder 4
        assert (len(sp.train), len(sp.val), len(sp.test)) == (14, 2, 4)

    def test_tiny_student_rebalances_into_test(self):
        ds = toy_dataset({"a": 3})
        sp = split_per_student(ds, SplitSpec(seed=0))
        # floor(2.1)=2 train, 1 val, 0 test -> one moves train -> test
        assert (len(sp.train), len(sp.val), len(sp.test)) == (1, 1, 1)

    def test_every_student_in_every_split(self):
        ds = toy_dataset({"a": 16, "b": 17, "c": 18, "d": 19})
        sp = split_per_student(ds, SplitSpec(seed=7))
        for part in (sp.train, sp.val, sp.test):
            assert set(ds.s_idx[part]) == {0, 1, 2, 3}

    def test_seed_changes_membership_not_sizes(self):
        ds = toy_dataset({"a": 20, "b": 25})
        sp1 = split_per_student(ds, SplitSpec(seed=1))
        sp2 = split_per_student(ds, SplitSpec(seed=2))
        assert len(sp1.train) == len(sp2.train)
        assert not np.array_equal(np.sort(sp1.train), np.sort(sp2.train))

    def test_deterministic_given_seed(self):
        ds = toy_dataset({"a": 20, "b": 25})
        sp1 = split_per_student(ds, SplitSpec(seed=5))
        sp2 = split_per_student(ds, SplitSpec(seed=5))
        np.testing.assert_array_equal(sp1.train, sp2.train)
        np.testing.assert_array_equal(sp1.test, sp2.test)

    def test_custom_fractions(self):
        ds = toy_dataset({"a": 4})
        sp = split_per_student(ds, SplitSpec(train_fraction=0.5, val_fraction=0.25, seed=0))
        assert (len(sp.train), len(sp.val), len(sp.test)) == (2, 1, 1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=0.0)
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=0.9, val_fraction=0.2)


def dict_grouped_split(dataset, spec):
    """Reference: group positions per student with a dict, one position at a time."""
    rng = substream(spec.seed, "split")
    by_student = {}
    for pos, s in enumerate(dataset.s_idx):
        by_student.setdefault(int(s), []).append(pos)
    train, val, test = [], [], []
    for s in sorted(by_student):
        positions = rng.permutation(np.array(by_student[s], dtype=np.int64))
        n = len(positions)
        n_train = int(np.floor(n * spec.train_fraction))
        n_val = max(1, int(np.floor(n * spec.val_fraction)))
        n_test = n - n_train - n_val
        if n_test == 0 and n_train >= 2:
            n_train -= 1
        train.extend(positions[:n_train])
        val.extend(positions[n_train : n_train + n_val])
        test.extend(positions[n_train + n_val :])
    return [np.array(part, dtype=np.int64) for part in (train, val, test)]


def interleaved_dataset(seed=0):
    """Students whose logs alternate through the file, one with only three logs."""
    rng = default_rng(seed)
    owners = np.repeat(np.arange(6), [40, 300, 3, 120, 75, 260])
    owners = owners[rng.permutation(len(owners))]
    k = np.arange(len(owners))
    logs = LogColumns.from_rows([f"s{o}" for o in owners], [f"e{j}" for j in k % 37],
                                (k % 2).astype(np.float64))
    q = [(f"e{j}", f"c{j % 4}") for j in range(37)]
    return build_dataset(logs, q, min_logs=1)


class TestSplitReference:
    @pytest.mark.parametrize("seed", [0, 1, 9])
    def test_matches_dict_grouping_bit_for_bit(self, seed):
        ds = interleaved_dataset(seed)
        spec = SplitSpec(seed=seed)
        got = split_per_student(ds, spec)
        for part, want in zip((got.train, got.val, got.test), dict_grouped_split(ds, spec)):
            assert part.dtype == np.int64
            np.testing.assert_array_equal(part, want)


class TestBatches:
    def sizes(self, n, bs, seed=0):
        rng = default_rng(seed)
        return [len(b) for b in batches(np.arange(n), bs, rng)]

    def test_remainder_folds_into_last(self):
        assert self.sizes(100, 32) == [32, 32, 36]

    def test_exact_fit(self):
        assert self.sizes(32, 32) == [32]
        assert self.sizes(64, 32) == [32, 32]

    def test_single_extra_goes_to_the_only_batch(self):
        assert self.sizes(33, 32) == [33]

    def test_small_split_is_one_batch(self):
        assert self.sizes(20, 32) == [20]

    def test_covers_exactly_once(self):
        rng = default_rng(11)
        out = np.concatenate(list(batches(np.arange(75), 32, rng)))
        np.testing.assert_array_equal(np.sort(out), np.arange(75))

    def test_shuffles(self):
        rng = default_rng(1)
        first = next(batches(np.arange(100), 32, rng))
        assert not np.array_equal(first, np.arange(32))

    def test_empty_yields_nothing(self):
        assert self.sizes(0, 32) == []

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(batches(np.arange(5), 0, default_rng(0)))
