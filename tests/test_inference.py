"""Checkpoint round-trips, evaluation, and per-student diagnosis."""

import base64
import json
import math
import mmap
import os

import numpy as np
import pytest

from cogdiag.checkpoint import (
    Checkpoint,
    CheckpointError,
    FORMAT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from cogdiag.cli import main
from cogdiag.data import LogColumns, build_dataset
from cogdiag.diagnostics import DiagnosticFunction
from cogdiag.inference import (
    BLOCK_BYTES,
    check_dataset_matches,
    concept_interaction_counts,
    diagnose,
    evaluate_store,
    predict_split,
)
from cogdiag.numerics import adam_step
from cogdiag.synth import planted_cohort
from cogdiag.training import TrainConfig, Trainer


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def toy_dataset(seed=1):
    cohort = planted_cohort(
        n_students=25, n_exercises=30, n_concepts=4, per_student=18, seed=seed
    )
    return build_dataset(cohort.logs, cohort.q_pairs, min_logs=1)


def concepts_of(ds, j):
    """Exercise ``j``'s concepts, read from the dataset's CSR layout."""
    return ds.concept_idx[ds.concept_ptr[j] : ds.concept_ptr[j + 1]]


def trained_checkpoint(ds, variant="mirt", seed=3, mlp_hidden=(6, 4)):
    cfg = TrainConfig(max_epochs=2, pretrain_epochs=2, seed=seed, batch_size=16)
    trainer = Trainer(ds, DiagnosticFunction(variant, mlp_hidden=mlp_hidden), cfg)
    return trainer, trainer.train()


def hand_built_checkpoint(ds, mu_by_student):
    """IRT checkpoint with hand-set abilities and neutral exercises."""
    params = {
        "student_mu": np.array(mu_by_student, dtype=np.float64).reshape(-1, 1),
        "student_logvar": np.zeros((ds.n_students, 1)),
        "exercise_diff": np.zeros((ds.n_exercises, 1)),  # sigmoid -> 0.5
        "exercise_disc": np.full((ds.n_exercises, 1), 3.0),  # sigmoid -> ~0.95
    }
    return Checkpoint(
        fn=DiagnosticFunction("irt"),
        params=params,
        consensus_mean=None,
        student_ids=list(ds.student_ids),
        exercise_ids=list(ds.exercise_ids),
        concept_ids=list(ds.concept_ids),
        run_config={},
        best_epoch=0,
        train_counts=np.zeros((ds.n_students, 1), dtype=np.int64),
        val_metrics={},
    )


def one_line_checkpoint(ck, version):
    """A format 1 or 2 file: one JSON line, arrays as base64 of their float64 bytes.

    Those formats recorded the irt head's scale, which format 4 dropped.
    """

    def encode(arr):
        arr = np.ascontiguousarray(arr, dtype="<f8")
        return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode("ascii")}

    doc = {
        "format_version": version, "variant": ck.fn.variant, "irt_scale": 1.702,
        "mlp_hidden": list(ck.fn.mlp_hidden),
        "params": {name: encode(arr) for name, arr in ck.params.items()},
        "consensus_mean": None if ck.consensus_mean is None else encode(ck.consensus_mean),
        "student_ids": ck.student_ids, "exercise_ids": ck.exercise_ids,
        "concept_ids": ck.concept_ids, "run_config": ck.run_config,
        "best_epoch": ck.best_epoch, "val_metrics": ck.val_metrics,
    }
    if version >= 2:
        doc["train_counts"] = encode(ck.train_counts)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class TestCheckpointIO:
    def test_round_trip_preserves_everything(self, tmp_path):
        ds = toy_dataset()
        _, ck = trained_checkpoint(ds, "ncd")
        path = tmp_path / "ck.json"
        save_checkpoint(ck, path)
        back = load_checkpoint(path)
        assert back.fn == ck.fn
        assert back.student_ids == ck.student_ids
        assert back.best_epoch == ck.best_epoch
        for name, arr in ck.params.items():
            np.testing.assert_array_equal(back.params[name], arr)
        np.testing.assert_array_equal(back.consensus_mean, ck.consensus_mean)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        ds = toy_dataset()
        _, ck = trained_checkpoint(ds)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_checkpoint(ck, a)
        save_checkpoint(load_checkpoint(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_line_then_raw_arrays(self, tmp_path):
        ds = toy_dataset()
        _, ck = trained_checkpoint(ds, "ncd")
        path = tmp_path / "ck.json"
        save_checkpoint(ck, path)
        raw = path.read_bytes()
        line = raw[: raw.index(b"\n") + 1]
        header = json.loads(line)
        assert header["format_version"] == FORMAT_VERSION == 4
        names = [*sorted(ck.params), "consensus_mean", "train_counts"]
        arrays = [*(ck.params[name] for name in sorted(ck.params)), ck.consensus_mean,
                  ck.train_counts]
        assert header["arrays"] == [[name, list(arr.shape)] for name, arr in zip(names, arrays)]
        assert len(raw) == len(line) + 8 * sum(math.prod(shape) for _, shape in header["arrays"])
        flat = np.concatenate([np.ravel(arr).astype(np.float64) for arr in arrays])
        assert raw[len(line) :] == flat.astype("<f8").tobytes()
        for variant in ("irt", "mirt", "ncd"):  # spaces pad line 1: the arrays start aligned
            save_checkpoint(trained_checkpoint(ds, variant)[1], path)
            line = path.read_bytes().partition(b"\n")[0] + b"\n"
            assert len(line) % 8 == 0 and json.loads(line)["format_version"] == FORMAT_VERSION

    def test_unpadded_file_loads_and_saves_padded(self, tmp_path):
        # a v4 file written before line 1 was padded: its arrays start unaligned
        _, ck = trained_checkpoint(toy_dataset(), "ncd")
        path, legacy, again = tmp_path / "ck.json", tmp_path / "legacy.json", tmp_path / "again.json"
        save_checkpoint(ck, path)
        line, _, rest = path.read_bytes().partition(b"\n")
        assert line.endswith(b" ")
        legacy.write_bytes(line.rstrip(b" ") + b"\n" + rest)
        back = load_checkpoint(legacy)
        for name, arr in ck.params.items():
            assert same_bits(back.params[name], arr), name
        assert same_bits(back.consensus_mean, ck.consensus_mean)
        np.testing.assert_array_equal(back.train_counts, ck.train_counts)
        save_checkpoint(back, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("variant", ["irt", "mirt", "ncd"])
    def test_loading_reads_no_array_bytes(self, tmp_path, monkeypatch, variant):
        ds = toy_dataset()
        _, ck = trained_checkpoint(ds, variant)
        path = tmp_path / "ck.json"
        save_checkpoint(ck, path)

        def fromfile(*args, **kwargs):
            raise AssertionError("load_checkpoint read the arrays with np.fromfile")

        monkeypatch.setattr(np, "fromfile", fromfile)
        back = load_checkpoint(path)
        assert sorted(back.params) == sorted(ck.params)
        np.testing.assert_array_equal(back.train_counts, ck.train_counts)
        pairs = [(back.params[name], arr) for name, arr in ck.params.items()]
        if ck.consensus_mean is not None:
            pairs.append((back.consensus_mean, ck.consensus_mean))
        roots = []
        for arr, saved in pairs:  # equal, and aligned views of one map of the file
            np.testing.assert_array_equal(arr, saved)
            assert arr.flags.aligned
            while isinstance(arr, np.ndarray):
                arr = arr.base
            roots.append(arr.obj)  # numpy holds a memoryview of the map
        assert isinstance(roots[0], mmap.mmap) and all(root is roots[0] for root in roots)

    def test_exercise_shapes_checked_for_every_command(self, tmp_path, rewrite_checkpoint, capsys):
        ds = toy_dataset()
        _, ck = trained_checkpoint(ds, "ncd")
        path = tmp_path / "ck.json"
        save_checkpoint(ck, path)
        rewrite_checkpoint(path, path, arrays={"exercise_diff": np.zeros((3, 4))})
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)
        argv = ["diagnose", "--checkpoint", str(path), "--student", ck.student_ids[0],
                "--out", str(tmp_path / "d.csv")]
        assert main(argv) == 1
        assert "malformed" in capsys.readouterr().err

    def test_loaded_arrays_are_private_to_the_process(self, tmp_path):
        ds = toy_dataset()
        _, ck = trained_checkpoint(ds, "mirt")
        _, other = trained_checkpoint(ds, "mirt", seed=4)
        path = tmp_path / "ck.json"
        save_checkpoint(ck, path)
        raw = path.read_bytes()
        back = load_checkpoint(path)
        back.params["student_mu"] += 1.0  # copy-on-write: the file keeps its bytes
        assert path.read_bytes() == raw
        save_checkpoint(other, path)  # renamed over the file the arrays map
        assert not np.array_equal(other.params["exercise_diff"], ck.params["exercise_diff"])
        for name, arr in ck.params.items():
            expected = arr + 1.0 if name == "student_mu" else arr
            np.testing.assert_array_equal(back.params[name], expected)

    def test_loaded_arrays_are_writable_and_train(self, tmp_path):
        ds = toy_dataset()
        trainer, ck = trained_checkpoint(ds, "ncd")
        path = tmp_path / "ck.json"
        save_checkpoint(ck, path)
        back = load_checkpoint(path)
        loaded = [*back.params.values(), back.consensus_mean]
        assert all(arr.flags.writeable for arr in loaded)
        before = [arr.copy() for arr in loaded]
        back.params["student_mu"][-1] += 1.0  # a view of the shared buffer: no neighbour moves
        for arr, old in zip(loaded, before):
            if arr is not back.params["student_mu"]:
                np.testing.assert_array_equal(arr, old)
        store = trainer.store
        store.load_params(back.params)
        for name, value in store.params.items():
            store.accumulate_grad(name, None, np.ones_like(value))
        adam_step(store, 0.002, lazy=True)
        for name, value in store.params.items():
            assert not np.array_equal(value, back.params[name]), name

    def test_unknown_format_version_rejected(self, tmp_path, rewrite_checkpoint):
        ds = toy_dataset()
        _, ck = trained_checkpoint(ds)
        path = tmp_path / "ck.json"
        save_checkpoint(ck, path)
        rewrite_checkpoint(path, path, edit=lambda h: h.update(format_version=FORMAT_VERSION + 1))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_version_1_file_rejected_with_retrain_hint(self, tmp_path):
        self.assert_old_version_rejected(tmp_path, 1)

    def test_version_2_file_rejected_with_retrain_hint(self, tmp_path):
        self.assert_old_version_rejected(tmp_path, 2)

    def test_version_3_file_rejected_with_retrain_hint(self, tmp_path, rewrite_checkpoint):
        # a v3 header recorded the irt head's scale; this build would serve it at IRT_SCALE
        _, ck = trained_checkpoint(toy_dataset(), "irt")
        path = tmp_path / "ck.json"
        save_checkpoint(ck, path)
        rewrite_checkpoint(path, path, edit=lambda h: h.update(format_version=3, irt_scale=3.0))
        self.assert_retrain_hint(path, 3)

    def assert_old_version_rejected(self, tmp_path, version):
        _, ck = trained_checkpoint(toy_dataset())
        path = tmp_path / "ck.json"
        path.write_text(one_line_checkpoint(ck, version))
        self.assert_retrain_hint(path, version)

    def assert_retrain_hint(self, path, version):
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        message = str(err.value)
        assert f"format_version {version}" in message
        assert f"format_version {FORMAT_VERSION}" in message and "retrain" in message

    @pytest.mark.parametrize(
        "counts",
        [np.zeros((3, 4)), np.full((25, 4), -1.0), np.full((25, 4), 0.5)],
        ids=["wrong-shape", "negative", "fraction"],
    )
    def test_malformed_train_counts_rejected(self, tmp_path, rewrite_checkpoint, counts):
        ds = toy_dataset()
        _, ck = trained_checkpoint(ds)
        assert ck.train_counts.shape == (25, 4)
        path = tmp_path / "ck.json"
        save_checkpoint(ck, path)
        rewrite_checkpoint(path, path, arrays={"train_counts": counts})
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)

    @pytest.mark.parametrize("variant", ["irt", "mirt", "ncd"])
    def test_saved_train_counts_match_brute_force(self, tmp_path, variant):
        ds = toy_dataset()
        trainer, ck = trained_checkpoint(ds, variant)
        path = tmp_path / "ck.json"
        save_checkpoint(ck, path)
        counts = load_checkpoint(path).train_counts
        if variant == "irt":
            brute = np.bincount(ds.s_idx[trainer.splits.train], minlength=ds.n_students)[:, None]
        else:
            brute = np.zeros((ds.n_students, ds.n_concepts), dtype=np.int64)
            for pos in trainer.splits.train:
                for c in concepts_of(ds, ds.e_idx[pos]):
                    brute[ds.s_idx[pos], c] += 1
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, brute)

    def test_failed_save_leaves_previous_file(self, tmp_path, monkeypatch):
        ds = toy_dataset()
        _, ck = trained_checkpoint(ds)
        path = tmp_path / "ck.json"
        save_checkpoint(ck, path)
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", crash)
        ck.best_epoch += 1
        with pytest.raises(OSError, match="simulated"):
            save_checkpoint(ck, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ck.json"]

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_field_rejected(self, tmp_path, rewrite_checkpoint):
        ds = toy_dataset()
        _, ck = trained_checkpoint(ds)
        path = tmp_path / "ck.json"
        save_checkpoint(ck, path)
        rewrite_checkpoint(path, path, arrays=dict.fromkeys(ck.params))  # the parameters go
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_store_rejects_unknown_params(self, tmp_path):
        ds = toy_dataset()
        _, ck = trained_checkpoint(ds)
        ck.params["mystery"] = np.zeros(3)
        path = tmp_path / "ck.json"
        save_checkpoint(ck, path)
        # the layout check at load keeps the parameter out of anything served
        with pytest.raises(CheckpointError, match="mystery"):
            load_checkpoint(path)


class TestEvaluation:
    def test_perfectly_separable_students(self):
        ds = toy_dataset()
        # strong students always succeed, weak ones always fail
        strong = {s for i, s in enumerate(ds.student_ids) if i % 2 == 0}
        scores = np.array(
            [1.0 if ds.student_ids[s] in strong else 0.0 for s in ds.s_idx]
        )
        ds = type(ds)(
            student_ids=ds.student_ids,
            exercise_ids=ds.exercise_ids,
            concept_ids=ds.concept_ids,
            s_idx=ds.s_idx,
            e_idx=ds.e_idx,
            scores=scores,
            concept_ptr=ds.concept_ptr,
            concept_idx=ds.concept_idx,
        )
        mu = [3.0 if sid in strong else -3.0 for sid in ds.student_ids]
        ck = hand_built_checkpoint(ds, mu)
        report = evaluate_store(ck, ck.fn, ds, np.arange(ds.n_interactions))
        assert report.acc == 1.0
        assert report.auc == 1.0

    def test_probs_align_with_indices(self):
        ds = toy_dataset()
        _, ck = trained_checkpoint(ds)
        fn = ck.fn
        idx = np.array([5, 0, 17])
        probs = predict_split(ck, fn, ds, idx)
        singles = [predict_split(ck, fn, ds, np.array([i]))[0] for i in idx]
        np.testing.assert_array_equal(probs, singles)

    def test_chunked_prediction_matches_whole(self):
        ds = toy_dataset()
        _, ck = trained_checkpoint(ds, "ncd")
        fn = ck.fn
        idx = np.arange(ds.n_interactions)
        np.testing.assert_array_equal(
            predict_split(ck, fn, ds, idx, chunk=7),
            predict_split(ck, fn, ds, idx, chunk=10_000),
        )

    @pytest.mark.parametrize("variant", ["ncd", "mirt", "irt"])
    def test_default_block_matches_whole_and_single_rows(self, variant):
        # ncd at the paper's 512/256 width; the positions repeat so that
        # every variant spans 2.5 default blocks plus a ragged tail
        ds = toy_dataset()
        _, ck = trained_checkpoint(ds, variant, mlp_hidden=(512, 256))
        fn = ck.fn
        width = {"ncd": 512, "mirt": ds.n_concepts, "irt": 1}[variant]
        block = BLOCK_BYTES // (8 * width) // 64 * 64
        idx = np.resize(np.arange(ds.n_interactions), 5 * block // 2 + 3)
        blocked = predict_split(ck, fn, ds, idx)
        assert same_bits(blocked, predict_split(ck, fn, ds, idx, chunk=len(idx)))

        positions = np.arange(ds.n_interactions)
        whole = predict_split(ck, fn, ds, positions, chunk=len(positions))
        singles = np.array([predict_split(ck, fn, ds, positions[i : i + 1])[0] for i in positions])
        if variant == "ncd":
            # a one-row matmul takes BLAS's matrix-vector path, which may
            # round the last place differently
            np.testing.assert_array_max_ulp(blocked, singles[idx], maxulp=4)
        else:
            assert same_bits(blocked, singles[idx])

        # so a one-row tail must not be served alone: end two blocks on
        # each row whose one-row call rounds differently
        for pos in np.flatnonzero(whole.view(np.int64) != singles.view(np.int64)):
            tailed = np.append(idx[: 2 * block], pos)
            assert same_bits(
                predict_split(ck, fn, ds, tailed),
                predict_split(ck, fn, ds, tailed, chunk=len(tailed)),
            )

    @pytest.mark.parametrize("variant", ["irt", "mirt", "ncd"])
    def test_loaded_checkpoint_serves_the_trained_store_bits(self, tmp_path, variant):
        # the loaded params are views into one read buffer, not the store's
        # own arrays; the head must read the same bits from either
        ds = toy_dataset()
        trainer, ck = trained_checkpoint(ds, variant, mlp_hidden=(512, 256))
        path = tmp_path / "ck.json"
        save_checkpoint(ck, path)
        idx = trainer.splits.test
        served = predict_split(load_checkpoint(path), trainer.fn, ds, idx)
        assert same_bits(served, predict_split(trainer.store, trainer.fn, ds, idx))

    def test_eval_is_deterministic(self):
        ds = toy_dataset()
        _, ck = trained_checkpoint(ds)
        idx = np.arange(0, ds.n_interactions, 3)
        a = evaluate_store(ck, ck.fn, ds, idx)
        b = evaluate_store(ck, ck.fn, ds, idx)
        assert a.acc == b.acc and a.auc == b.auc and a.ece == b.ece

    def test_dataset_mismatch_detected(self):
        ds = toy_dataset()
        _, ck = trained_checkpoint(ds)
        other = toy_dataset(seed=99)
        with pytest.raises(CheckpointError, match="disagree"):
            check_dataset_matches(ck, other)

    def test_evaluate_store_report_fields(self):
        ds = toy_dataset()
        trainer, ck = trained_checkpoint(ds)
        report = evaluate_store(
            trainer.store, trainer.fn, ds, trainer.splits.test, bins=5
        )
        assert report.n == len(trainer.splits.test)
        assert len(report.probs) == report.n
        assert report.bin_report.counts.sum() == report.n
        assert 0.0 <= report.ece <= 1.0


class TestDiagnose:
    def test_counts_match_brute_force(self):
        ds = toy_dataset()
        trainer, ck = trained_checkpoint(ds, "ncd")
        counts = concept_interaction_counts(ds, trainer.splits.train, trainer.fn)
        brute = np.zeros((ds.n_students, ds.n_concepts), dtype=np.int64)
        for pos in trainer.splits.train:
            for c in concepts_of(ds, ds.e_idx[pos]):
                brute[ds.s_idx[pos], c] += 1
        np.testing.assert_array_equal(counts, brute)

    def test_diagnose_counts_match_raw_logs(self):
        cohort = planted_cohort(
            n_students=25, n_exercises=30, n_concepts=4, per_student=18, seed=2
        )
        # s0007's logs are spread through everyone else's; the rest stay grouped
        sids = cohort.logs.student_ids
        spread = [i for i, sid in enumerate(sids) if sid == "s0007"]
        order = [i for i, sid in enumerate(sids) if sid != "s0007"]
        for k, i in enumerate(spread):
            order.insert(k * 23, i)
        logs = LogColumns([sids[i] for i in order],
                          [cohort.logs.exercise_ids[i] for i in order], cohort.logs.scores[order])
        ds = build_dataset(logs, cohort.q_pairs, min_logs=1)
        trainer, ck = trained_checkpoint(ds, "ncd")
        concepts_of_exercise = {}
        for eid, cid in cohort.q_pairs:
            concepts_of_exercise.setdefault(eid, []).append(cid)
        for sid in ("s0007", "s0000", "s0008", "s0024"):
            brute = {cid: 0 for cid in ds.concept_ids}
            for pos in trainer.splits.train:
                if logs[pos].student_id == sid:
                    for cid in concepts_of_exercise[logs[pos].exercise_id]:
                        brute[cid] += 1
            report = diagnose(ck, sid)
            assert {row.concept_id: row.interactions for row in report.rows} == brute
            assert sum(brute.values()) > 0

    def test_irt_counts_collapse_to_one_column(self):
        ds = toy_dataset()
        trainer, _ = trained_checkpoint(ds, "irt")
        counts = concept_interaction_counts(ds, trainer.splits.train, trainer.fn)
        assert counts.shape == (ds.n_students, 1)
        per_student = np.bincount(
            ds.s_idx[trainer.splits.train], minlength=ds.n_students
        )
        np.testing.assert_array_equal(counts[:, 0], per_student)

    def test_rank_one_is_lowest_sigma(self):
        ds = toy_dataset()
        trainer, ck = trained_checkpoint(ds, "mirt")
        report = diagnose(ck, ds.student_ids[0])
        sigmas = [row.sigma for row in report.rows]
        assert sigmas == sorted(sigmas)
        assert [row.rank for row in report.rows] == list(
            range(1, len(sigmas) + 1)
        )

    def test_mastery_is_squashed_posterior_mean(self):
        ds = toy_dataset()
        trainer, ck = trained_checkpoint(ds, "mirt")
        sid = ds.student_ids[3]
        s = ds.student_index(sid)
        report = diagnose(ck, sid)
        by_concept = {row.concept_id: row for row in report.rows}
        for k, cid in enumerate(ds.concept_ids):
            mu = ck.params["student_mu"][s, k]
            var = np.exp(ck.params["student_logvar"][s, k])
            assert by_concept[cid].mastery == pytest.approx(1 / (1 + np.exp(-mu)))
            assert by_concept[cid].sigma == pytest.approx(np.sqrt(var))

    def test_irt_reports_single_overall_row(self):
        ds = toy_dataset()
        trainer, ck = trained_checkpoint(ds, "irt")
        report = diagnose(ck, ds.student_ids[0])
        assert len(report.rows) == 1
        assert report.rows[0].concept_id == "overall"

    def test_unknown_student_raises(self):
        ds = toy_dataset()
        trainer, ck = trained_checkpoint(ds)
        with pytest.raises(KeyError):
            diagnose(ck, "nobody")
