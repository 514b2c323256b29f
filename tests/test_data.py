"""Log parsing, filtering, indexing, splitting, batching."""

import numpy as np
import pytest
from numpy.random import default_rng

from cogdiag.data import (
    DataFormatError,
    DataValidationError,
    ResponseLog,
    SplitSpec,
    batches,
    build_dataset,
    filter_students,
    load_logs,
    load_qmatrix,
    split_per_student,
)
from cogdiag.seeding import substream


def write(path, text):
    path.write_text(text)
    return path


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
        assert load_logs(write(tmp_path / "empty.csv", "student_id,exercise_id,score\n")) == []

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


class TestFilterStudents:
    def logs(self, counts):
        out = []
        for sid, n in counts.items():
            out.extend(ResponseLog(sid, f"e{k}", 1) for k in range(n))
        return out

    def test_threshold(self):
        logs = self.logs({"a": 15, "b": 14})
        kept = filter_students(logs, min_logs=15)
        assert {log.student_id for log in kept} == {"a"}
        assert len(kept) == 15

    def test_idempotent(self):
        logs = self.logs({"a": 20, "b": 3, "c": 16})
        once = filter_students(logs, min_logs=15)
        assert filter_students(once, min_logs=15) == once

    def test_min_logs_one_keeps_everything(self):
        logs = self.logs({"a": 1, "b": 2})
        assert filter_students(logs, min_logs=1) == logs

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            filter_students([], min_logs=0)


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
        logs = [ResponseLog("rare", "e1", 1)] + [
            ResponseLog("busy", "e1", 1) for _ in range(5)
        ]
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

    def test_student_index_lookup(self, logs_csv, q_csv):
        ds = build_dataset(load_logs(logs_csv), load_qmatrix(q_csv), min_logs=1)
        assert ds.student_index("s2") == 1
        with pytest.raises(KeyError):
            ds.student_index("nobody")


def toy_dataset(per_student, n_exercises=50):
    """Dataset with the given per-student interaction counts."""
    logs = []
    k = 0
    for sid, n in per_student.items():
        for _ in range(n):
            logs.append(ResponseLog(sid, f"e{k % n_exercises}", k % 2))
            k += 1
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

    def test_preserve_order_keeps_file_order(self):
        ds = toy_dataset({"a": 10})
        sp = split_per_student(ds, SplitSpec(seed=0, preserve_order=True))
        np.testing.assert_array_equal(sp.train, np.arange(7))
        np.testing.assert_array_equal(sp.val, [7])
        np.testing.assert_array_equal(sp.test, [8, 9])

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
        positions = np.array(by_student[s], dtype=np.int64)
        if not spec.preserve_order:
            positions = rng.permutation(positions)
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
    logs = [ResponseLog(f"s{o}", f"e{k % 37}", k % 2) for k, o in enumerate(owners)]
    q = [(f"e{j}", f"c{j % 4}") for j in range(37)]
    return build_dataset(logs, q, min_logs=1)


class TestSplitReference:
    @pytest.mark.parametrize("preserve_order", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 9])
    def test_matches_dict_grouping_bit_for_bit(self, preserve_order, seed):
        ds = interleaved_dataset(seed)
        spec = SplitSpec(seed=seed, preserve_order=preserve_order)
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
