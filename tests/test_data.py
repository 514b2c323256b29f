"""Log parsing, filtering, indexing, splitting, batching."""

import csv
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


def write(path, text):
    path.write_text(text)
    return path


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

    @pytest.mark.parametrize("load, header", [(load_logs, b"student_id,exercise_id,score\n"),
                                              (load_qmatrix, b"exercise_id,concept_id\n")],
                             ids=["logs", "qmatrix"])
    def test_undecodable_byte_names_file_and_line(self, tmp_path, load, header):
        bad = tmp_path / "bytes.csv"
        bad.write_bytes(header + b"s1,e1,1\n" * 3 + b"s\xff,e1,1\n")
        with pytest.raises(DataFormatError) as excinfo:
            load(bad)
        assert str(excinfo.value) == f"{bad} line 5: not valid UTF-8 (invalid start byte)"


def columns_of(ds):
    """The logs a dataset indexes, in file order."""
    return LogColumns([ds.student_ids[s] for s in ds.s_idx],
                      [ds.exercise_ids[e] for e in ds.e_idx], ds.scores)


class TestFilterStudents:
    """``build_dataset``'s ``min_logs`` filter, applied before any indexing."""

    def logs(self, counts):
        sids = [sid for sid, n in counts.items() for _ in range(n)]
        eids = [f"e{k}" for n in counts.values() for k in range(n)]
        return LogColumns(sids, eids, np.ones(len(sids)))

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
        logs = LogColumns(["rare"] + ["busy"] * 5, ["e1"] * 6, np.ones(6))
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
        good = LogColumns(["s"] * 3, ["e", "f", "e"], np.array([0.0, 1.0, 1.0]))
        np.testing.assert_array_equal(build_dataset(good, pairs, min_logs=1).scores, [0, 1, 1])
        logs = LogColumns(["s"] * 5, ["e", "f", "e", "f", "e"], np.array([0.0, 1.0, 1.0, bad, 3.0]))
        with pytest.raises(DataValidationError, match=rf"^log 3: score must be 0 or 1, got {shown}$"):
            build_dataset(logs, pairs, min_logs=1)

    def test_repeated_qmatrix_pairs_count_once(self):
        logs = LogColumns(["s1", "s1"], ["e", "f"], np.array([1.0, 0.0]))
        pairs = [("e", "c"), ("f", "d"), ("e", "c"), ("e", "d"), ("f", "d")]
        ds = build_dataset(logs, pairs, min_logs=1)
        assert ds.concept_ids == ["c", "d"]
        np.testing.assert_array_equal(ds.concept_ptr, [0, 2, 3])
        np.testing.assert_array_equal(ds.concept_idx, [0, 1, 1])

    def test_student_index_lookup(self, logs_csv, q_csv):
        ds = build_dataset(load_logs(logs_csv), load_qmatrix(q_csv), min_logs=1)
        assert ds.student_index("s2") == 1
        with pytest.raises(KeyError):
            ds.student_index("nobody")


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


# ids a CSV writer must quote: commas, quotes, embedded line breaks, inner spaces
core_ids = st.text(alphabet='ab,"\n\r x', min_size=1, max_size=4).filter(lambda t: t == t.strip())
padding = st.sampled_from(["", " ", "  "])


@st.composite
def csv_cohorts(draw):
    students = draw(st.lists(core_ids, min_size=1, max_size=5, unique=True))
    exercises = draw(st.lists(core_ids, min_size=1, max_size=5, unique=True))
    concepts = draw(st.lists(core_ids, min_size=1, max_size=3, unique=True))
    n = draw(st.integers(1, 30))
    records = LogColumns(
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
    return records, pairs, log_rows, q_rows


def write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


class TestColumnarIngestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(csv_cohorts())
    def test_files_load_and_index_like_the_records(self, cohort):
        records, pairs, log_rows, q_rows = cohort
        with tempfile.TemporaryDirectory() as tmp:
            logs = load_logs(write_rows(Path(tmp) / "logs.csv", LOG_HEADER, log_rows))
            q_pairs = load_qmatrix(write_rows(Path(tmp) / "q.csv", QMATRIX_HEADER, q_rows))
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
    logs = LogColumns(sids, [f"e{j}" for j in k % n_exercises], (k % 2).astype(np.float64))
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
    logs = LogColumns([f"s{o}" for o in owners], [f"e{j}" for j in k % 37], (k % 2).astype(np.float64))
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
