"""End-to-end command-line flows: train, eval, diagnose, exports."""

import csv
import gc
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cogdiag
from cogdiag.checkpoint import load_checkpoint, save_checkpoint
from cogdiag.cli import main
from cogdiag.config import RunConfig
from cogdiag.metrics import acc, auc, calibration, rmse
from cogdiag.synth import planted_cohort, write_cohort_csv


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A trained run on a small synthetic cohort, shared by all CLI tests."""
    root = tmp_path_factory.mktemp("cliws")
    cohort = planted_cohort(
        n_students=30, n_exercises=40, n_concepts=4, per_student=25, seed=11
    )
    logs = root / "logs.csv"
    qmatrix = root / "q.csv"
    write_cohort_csv(cohort, logs, qmatrix)
    out_dir = root / "run"
    config = root / "run.cfg"
    config.write_text(
        f"logs = {logs}\n"
        f"qmatrix = {qmatrix}\n"
        f"output_dir = {out_dir}\n"
        "variant = ncd\n"
        "mlp_hidden1 = 16\n"
        "mlp_hidden2 = 8\n"
        "min_logs = 1\n"
        "batch_size = 16\n"
        "max_epochs = 2\n"
        "pretrain_epochs = 2\n"
        "seed = 5\n"
    )
    code = main(["train", "--config", str(config)])
    assert code == 0
    return {
        "root": root,
        "config": config,
        "out_dir": out_dir,
        "checkpoint": out_dir / "checkpoint.json",
        "n_students": 30,
        "n_concepts": 4,
    }


class TestTrain:
    def test_artifacts_written(self, workspace):
        assert workspace["checkpoint"].exists()
        assert (workspace["out_dir"] / "config_resolved.txt").exists()
        assert (workspace["out_dir"] / "train_log.csv").exists()

    def test_train_log_has_one_row_per_epoch(self, workspace):
        rows = (workspace["out_dir"] / "train_log.csv").read_text().splitlines()
        assert rows[0] == "epoch,phase,loss_pred,loss_kl,loss_cal,loss_total,val_acc,val_auc,val_ece"
        assert len(rows) == 1 + 4  # two pretrain epochs + two joint epochs
        phases = [r.split(",")[1] for r in rows[1:]]
        assert phases == ["1", "1", "2", "2"]

    def test_resolved_config_parses_back(self, workspace):
        from cogdiag.config import parse_config_file

        cfg = parse_config_file(workspace["out_dir"] / "config_resolved.txt")
        assert cfg.variant == "ncd"
        assert cfg.seed == 5

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_invalid_config_lists_every_problem(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("variant = dkt\nseed = soon\nwat = 1\n")
        assert main(["train", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "wat" in err
        # once the file parses, every semantic problem is reported together
        bad.write_text("variant = dkt\nbins = 0\n")
        assert main(["train", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "'logs'" in err and "variant" in err and "bins" in err

    @pytest.mark.parametrize(
        "line, key",
        [
            ("learning_rate = nan", "learning_rate"),
            ("variant = irt\ndropout_alpha = nan", "dropout_alpha"),
            ("gamma = nan", "gamma"),
            ("beta = inf", "beta"),
            ("val_fraction = inf", "val_fraction"),
            ("pretrain_epochs = -7", "pretrain_epochs"),
        ],
    )
    def test_non_finite_and_below_sentinel_values_are_usage_errors(
        self, tmp_path, capsys, line, key
    ):
        cohort = planted_cohort(n_students=12, n_exercises=20, n_concepts=3, per_student=15, seed=4)
        logs, qmatrix = tmp_path / "logs.csv", tmp_path / "qmatrix.csv"
        write_cohort_csv(cohort, logs, qmatrix)
        config = tmp_path / "run.cfg"
        config.write_text(
            f"logs = {logs}\nqmatrix = {qmatrix}\noutput_dir = {tmp_path / 'run'}\n"
            f"min_logs = 1\nmax_epochs = 1\n{line}\n"
        )
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert key in err and "unknown key" not in err
        assert not (tmp_path / "run").exists()

    def test_progress_lines_printed(self, workspace, capsys, tmp_path):
        # rerun into a throwaway dir to capture stdout
        text = workspace["config"].read_text().replace(
            str(workspace["out_dir"]), str(tmp_path / "run2")
        )
        cfg2 = tmp_path / "run2.cfg"
        cfg2.write_text(text)
        assert main(["train", "--config", str(cfg2)]) == 0
        out = capsys.readouterr().out
        assert "phase 1" in out and "phase 2" in out
        assert "checkpoint written" in out


class TestEval:
    def run_eval(self, workspace, capsys, split="test", out=None):
        argv = ["eval", "--checkpoint", str(workspace["checkpoint"]), "--split", split]
        if out is not None:
            argv += ["--out", str(out)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    def test_writes_predictions_csv(self, workspace, capsys):
        out = self.run_eval(workspace, capsys)
        path = workspace["out_dir"] / "predictions_test.csv"
        assert path.exists()
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        n = int(next(l for l in out.splitlines() if l.startswith("split")).split()[-1])
        assert len(rows) == n
        for row in rows:
            assert row["label"] in ("0", "1")
            assert 0.0 <= float(row["prob"]) <= 1.0

    def test_printed_metrics_match_csv_recomputation(self, workspace, capsys, tmp_path):
        out_path = tmp_path / "preds.csv"
        stdout = self.run_eval(workspace, capsys, out=out_path)
        printed = {
            line.split()[0]: line.split()[1]
            for line in stdout.splitlines()
            if line.split() and line.split()[0] in ("ACC", "RMSE", "AUC", "ECE", "MCE")
        }
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        probs = [float(r["prob"]) for r in rows]
        labels = [int(r["label"]) for r in rows]
        report = calibration(probs, labels, bins=10)
        assert printed["ACC"] == f"{acc(probs, labels):.6f}"
        assert printed["RMSE"] == f"{rmse(probs, labels):.6f}"
        assert printed["AUC"] == f"{auc(probs, labels):.6f}"
        assert printed["ECE"] == f"{report.ece:.6f}"
        assert printed["MCE"] == f"{report.mce:.6f}"

    def test_deterministic_output(self, workspace, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.run_eval(workspace, capsys, out=a)
        self.run_eval(workspace, capsys, out=b)
        assert a.read_bytes() == b.read_bytes()

    def test_split_selection_changes_rows(self, workspace, capsys, tmp_path):
        val, test = tmp_path / "val.csv", tmp_path / "test.csv"
        self.run_eval(workspace, capsys, split="val", out=val)
        self.run_eval(workspace, capsys, split="test", out=test)
        n_val = len(val.read_text().splitlines())
        n_test = len(test.read_text().splitlines())
        assert n_val != n_test  # val floor(25*0.1)=2/student, test gets the rest

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        assert main(["eval", "--checkpoint", str(tmp_path / "no.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert main(["eval", "--checkpoint", str(bad)]) == 1

    def test_tampered_run_config_is_runtime_error(
        self, workspace, tmp_path, capsys, rewrite_checkpoint
    ):
        bad = tmp_path / "tampered.json"
        rewrite_checkpoint(workspace["checkpoint"], bad, edit=lambda h: h["run_config"].pop("seed"))
        assert main(["eval", "--checkpoint", str(bad)]) == 1

    def test_replaced_data_files_are_runtime_error(
        self, workspace, tmp_path, capsys, rewrite_checkpoint
    ):
        cohort = planted_cohort(
            n_students=30, n_exercises=40, n_concepts=4, per_student=25, seed=12
        )
        logs, qmatrix = tmp_path / "logs.csv", tmp_path / "q.csv"
        write_cohort_csv(cohort, logs, qmatrix)
        moved = tmp_path / "moved.json"
        rewrite_checkpoint(
            workspace["checkpoint"], moved,
            edit=lambda h: h["run_config"].update(logs=str(logs), qmatrix=str(qmatrix)),
        )
        for command in ("eval", "export-reliability"):
            assert main([command, "--checkpoint", str(moved), "--out", str(tmp_path / "o.csv")]) == 1
            assert "disagree" in capsys.readouterr().err


class TestUnreadableDataFiles:
    @pytest.mark.parametrize("which", ["logs", "qmatrix"])
    @pytest.mark.parametrize(
        "damage, reason",
        [
            (b"\xff", "not valid UTF-8"),
            (b"y" * 200_000, "field larger than field limit"),
        ],
        ids=["undecodable-byte", "oversized-field"],
    )
    def test_train_and_eval_exit_one_naming_file_and_line(
        self, workspace, tmp_path, capsys, rewrite_checkpoint, which, damage, reason
    ):
        cohort = planted_cohort(
            n_students=30, n_exercises=40, n_concepts=4, per_student=25, seed=11
        )
        paths = {"logs": tmp_path / "logs.csv", "qmatrix": tmp_path / "q.csv"}
        write_cohort_csv(cohort, paths["logs"], paths["qmatrix"])
        lines = paths[which].read_bytes().splitlines(keepends=True)
        lines[2] = damage + lines[2]
        paths[which].write_bytes(b"".join(lines))
        config = tmp_path / "run.cfg"
        config.write_text(
            workspace["config"].read_text()
            .replace(str(workspace["root"] / "logs.csv"), str(paths["logs"]))
            .replace(str(workspace["root"] / "q.csv"), str(paths["qmatrix"]))
            .replace(str(workspace["out_dir"]), str(tmp_path / "run"))
        )
        moved = tmp_path / "moved.json"
        rewrite_checkpoint(
            workspace["checkpoint"], moved,
            edit=lambda h: h["run_config"].update(logs=str(paths["logs"]), qmatrix=str(paths["qmatrix"])),
        )
        for argv in (["train", "--config", str(config)], ["eval", "--checkpoint", str(moved)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {paths[which]} line 3: {reason}")
        assert not (tmp_path / "run").exists()


class TestMalformedCheckpoint:
    @pytest.mark.parametrize(
        "damage",
        [
            lambda ck: ck.params.update(student_mu=ck.params["student_mu"][:-1]),
            lambda ck: ck.params.update(mystery=np.zeros(3)),
            lambda ck: setattr(ck, "consensus_mean", ck.consensus_mean[:-1]),
        ],
        ids=["short-student-mu", "extra-parameter", "short-consensus"],
    )
    def test_diagnose_and_eval_exit_one(self, workspace, tmp_path, capsys, damage):
        ck = load_checkpoint(workspace["checkpoint"])
        last_student = ck.student_ids[-1]
        damage(ck)
        bad = tmp_path / "bad.json"
        save_checkpoint(ck, bad)
        out = str(tmp_path / "out.csv")
        for argv in (
            ["diagnose", "--checkpoint", str(bad), "--student", last_student, "--out", out],
            ["eval", "--checkpoint", str(bad), "--out", out],
        ):
            assert main(argv) == 1
            assert "malformed" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "key, value", [("gamma", '"abc"'), ("patience", "true"), ("gamma", "1e999")]
    )
    def test_run_config_value_a_config_file_cannot_hold(
        self, workspace, tmp_path, capsys, rewrite_checkpoint, key, value
    ):
        bad = tmp_path / "bad.json"
        rewrite_checkpoint(workspace["checkpoint"], bad,
                           edit=lambda h: h["run_config"].update({key: "@"}), raw=value)
        self.assert_serving_exits_one(bad, "s0000", tmp_path, capsys)

    @pytest.mark.parametrize(
        "field, value",
        [("mlp_hidden", "Infinity"), ("mlp_hidden", "NaN"), ("mlp_hidden", "1e999"),
         ("best_epoch", "NaN"), ("best_epoch", "1e999"), ("val_metrics", "1e999")],
    )
    def test_non_finite_number(self, workspace, tmp_path, capsys, rewrite_checkpoint, field, value):
        def edit(header):  # mlp_hidden: its first entry, the header's number that shapes the head
            if field == "mlp_hidden":
                header[field][0] = "@"
            elif field == "val_metrics":
                header[field]["auc"] = "@"
            else:
                header[field] = "@"

        bad = tmp_path / "bad.json"
        rewrite_checkpoint(workspace["checkpoint"], bad, edit=edit, raw=value)
        self.assert_serving_exits_one(bad, "s0000", tmp_path, capsys)

    def test_non_finite_mlp_width_on_an_irt_head(self, workspace, tmp_path, capsys, rewrite_checkpoint):
        # the irt layout never reads mlp_hidden, so only the header's own check can catch it
        config = tmp_path / "irt.cfg"
        config.write_text(
            workspace["config"].read_text().replace("variant = ncd", "variant = irt")
            .replace(f"output_dir = {workspace['out_dir']}", f"output_dir = {tmp_path / 'irt'}")
        )
        assert main(["train", "--config", str(config)]) == 0
        bad = tmp_path / "bad.json"
        rewrite_checkpoint(tmp_path / "irt" / "checkpoint.json", bad,
                           edit=lambda h: h["mlp_hidden"].__setitem__(0, "@"), raw="1e999")
        self.assert_serving_exits_one(bad, "s0000", tmp_path, capsys, "1e999")

    @pytest.mark.parametrize(
        "key, ids", [("student_ids", "ints"), ("concept_ids", "ints"), ("student_ids", "string")]
    )
    def test_id_list_not_a_list_of_strings(
        self, workspace, tmp_path, capsys, rewrite_checkpoint, key, ids
    ):
        def edit(header):  # as many ids as before, so every array shape still fits
            n = len(header[key])
            header[key] = list(range(n)) if ids == "ints" else "".join(chr(65 + i) for i in range(n))

        bad = tmp_path / "bad.json"
        rewrite_checkpoint(workspace["checkpoint"], bad, edit=edit)
        student = "A" if ids == "string" else "s0000"  # one character is one id of the string
        self.assert_serving_exits_one(bad, student, tmp_path, capsys, key)
        assert main(["export-ability", "--checkpoint", str(bad), "--out", str(tmp_path / "a.csv")]) == 1
        assert f"{key} is not a list of strings" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "run_config", [5, [f.name for f in fields(RunConfig)]], ids=["number", "list-of-keys"]
    )
    def test_run_config_not_an_object(
        self, workspace, tmp_path, capsys, rewrite_checkpoint, run_config
    ):
        bad = tmp_path / "bad.json"
        rewrite_checkpoint(workspace["checkpoint"], bad,
                           edit=lambda h: h.update(run_config=run_config))
        self.assert_serving_exits_one(bad, "s0000", tmp_path, capsys, "run_config")

    def test_older_schema_names_the_keys_and_the_retrain(
        self, workspace, tmp_path, capsys, rewrite_checkpoint
    ):
        # the keys a checkpoint written before their removal still carries
        older = {"kl_dedup": False, "lazy_adam": True, "dropout_enabled": True}
        bad = tmp_path / "older.json"
        rewrite_checkpoint(workspace["checkpoint"], bad, edit=lambda h: h["run_config"].update(older))
        for err in self.serving_errors(bad, "s0000", tmp_path, capsys):
            assert "missing keys: none" in err and "cogdiag train" in err
            for key in older:
                assert key in err

    @pytest.mark.parametrize(
        "edit, named",
        [
            ({"variant": "mirt"}, ["variant='ncd'", "variant='mirt'"]),
            ({"mlp_hidden2": 7}, ["mlp_hidden=(16, 8)", "mlp_hidden=(16, 7)"]),
        ],
        ids=["variant", "mlp-width"],
    )
    def test_run_config_head_disagreeing_with_the_header(
        self, workspace, tmp_path, capsys, rewrite_checkpoint, edit, named
    ):
        # the header names the head, and so does the run_config it was trained from
        bad = tmp_path / "bad.json"
        rewrite_checkpoint(workspace["checkpoint"], bad, edit=lambda h: h["run_config"].update(edit))
        for err in self.serving_errors(bad, "s0000", tmp_path, capsys):
            assert "disagrees" in err
            for value in named:
                assert value in err

    @pytest.mark.parametrize("content", [b"[1]\n", b"\xff{}"], ids=["list", "not-ascii"])
    def test_header_not_an_ascii_json_object(self, tmp_path, capsys, content):
        bad = tmp_path / "x.json"
        bad.write_bytes(content)
        self.assert_serving_exits_one(bad, "s1", tmp_path, capsys)

    def test_cut_anywhere_in_the_arrays(self, workspace, tmp_path, capsys, rewrite_checkpoint):
        raw = workspace["checkpoint"].read_bytes()
        arrays = raw[raw.index(b"\n") + 1 :]
        bad = tmp_path / "bad.json"
        for keep in (0, 1, 7, len(arrays) // 2, len(arrays) - 8, len(arrays) - 1):
            rewrite_checkpoint(workspace["checkpoint"], bad, data=arrays[:keep])
            self.assert_serving_exits_one(bad, "s0000", tmp_path, capsys, "bytes")

    def test_one_trailing_byte(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(workspace["checkpoint"].read_bytes() + b"\0")
        self.assert_serving_exits_one(bad, "s0000", tmp_path, capsys, "bytes")

    @pytest.mark.parametrize(
        "entry, detail",
        [(["student_mu", [31, 4]], "bytes"), (["student_mu", [29, 4]], "bytes"),
         (["student_mu", [-30, -4]], "nonnegative"), (["student_mu", [-1, 4]], "nonnegative"),
         (["student_mu", [30.0, 4]], "nonnegative"), (["student_mu", ["30", 4]], "nonnegative"),
         (["student_mu", [True, 120]], "nonnegative"), (["student_mu", 120], "nonnegative"),
         ([7, [30, 4]], "nonnegative"), (["student_mu", [30, 4], 0], "nonnegative"),
         ("student_mu", "nonnegative")],
        ids=["rows-over-bytes", "rows-under-bytes", "negative-dims", "minus-one", "float-dim",
             "string-dim", "bool-dim", "shape-not-list", "name-not-string", "three-items",
             "not-a-pair"],
    )
    def test_bad_arrays_entry(
        self, workspace, tmp_path, capsys, rewrite_checkpoint, entry, detail
    ):
        def edit(header):
            at = [name for name, _ in header["arrays"]].index("student_mu")
            assert header["arrays"][at][1] == [30, 4]
            header["arrays"][at] = entry

        bad = tmp_path / "bad.json"
        rewrite_checkpoint(workspace["checkpoint"], bad, edit=edit)
        self.assert_serving_exits_one(bad, "s0000", tmp_path, capsys, detail)

    def serving_errors(self, bad, student, tmp_path, capsys):
        """stderr of ``diagnose`` and ``eval`` on ``bad``; each must exit 1 without a traceback."""
        capsys.readouterr()
        out = str(tmp_path / "out.csv")
        errors = []
        for argv in (
            ["diagnose", "--checkpoint", str(bad), "--student", student, "--out", out],
            ["eval", "--checkpoint", str(bad), "--out", out],
        ):
            assert main(argv) == 1
            errors.append(capsys.readouterr().err)
            assert "Traceback" not in errors[-1]
        return errors

    def assert_serving_exits_one(self, bad, student, tmp_path, capsys, detail="malformed"):
        for err in self.serving_errors(bad, student, tmp_path, capsys):
            assert "malformed" in err and detail in err


class TestDiagnose:
    def test_table_sorted_by_rank(self, workspace, capsys):
        code = main([
            "diagnose", "--checkpoint", str(workspace["checkpoint"]), "--student", "s0002",
        ])
        out = capsys.readouterr().out
        assert code == 0
        data_lines = [l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
        assert len(data_lines) == workspace["n_concepts"]
        ranks = [int(l.split()[0]) for l in data_lines]
        assert ranks == [1, 2, 3, 4]
        sigmas = [float(l.split()[3]) for l in data_lines]
        assert sigmas == sorted(sigmas)

    def test_csv_export(self, workspace, capsys, tmp_path):
        out = tmp_path / "diag.csv"
        code = main([
            "diagnose", "--checkpoint", str(workspace["checkpoint"]),
            "--student", "s0002", "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "rank,concept_id,mastery,sigma,interactions"
        assert len(rows) == 1 + workspace["n_concepts"]

    def test_unknown_student_is_runtime_error(self, workspace, capsys):
        code = main([
            "diagnose", "--checkpoint", str(workspace["checkpoint"]), "--student", "ghost",
        ])
        assert code == 1
        assert "ghost" in capsys.readouterr().err


class TestExports:
    def test_ability_row_per_student_concept(self, workspace, capsys, tmp_path):
        out = tmp_path / "ability.csv"
        code = main([
            "export-ability", "--checkpoint", str(workspace["checkpoint"]), "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "student_id,concept_id,mastery,sigma"
        assert len(rows) == 1 + workspace["n_students"] * workspace["n_concepts"]

    def test_reliability_has_row_per_bin(self, workspace, capsys, tmp_path):
        out = tmp_path / "rel.csv"
        code = main([
            "export-reliability", "--checkpoint", str(workspace["checkpoint"]),
            "--split", "test", "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "bin,lo,hi,count,frac_correct,avg_prob,gap"
        assert len(rows) == 1 + 10


class TestIdsThatNeedQuoting:
    def test_every_written_row_parses_back_to_its_ids(self, tmp_path, capsys):
        # a comma, a quote or a line break in student, exercise and concept ids, beside plain ones
        cohort = planted_cohort(n_students=12, n_exercises=20, n_concepts=3, per_student=15, seed=4)
        rename = {"s0000": 'Smith, J "3"', "s0001": "two\nlines", "c00": "fractions, decimals",
                  "c01": 'say "cheese"'}
        rename.update({f"e{j:04d}": f"e{j}, part {j}" for j in range(0, 20, 2)})
        cohort.logs.student_ids = [rename.get(s, s) for s in cohort.logs.student_ids]
        cohort.logs.exercise_ids = [rename.get(e, e) for e in cohort.logs.exercise_ids]
        cohort.q_pairs = [(rename.get(e, e), rename.get(c, c)) for e, c in cohort.q_pairs]
        logs, qmatrix = tmp_path / "logs.csv", tmp_path / "q.csv"
        write_cohort_csv(cohort, logs, qmatrix)
        config = tmp_path / "run.cfg"
        config.write_text(
            f"logs = {logs}\nqmatrix = {qmatrix}\noutput_dir = {tmp_path / 'run'}\n"
            "variant = mirt\nmin_logs = 1\nmax_epochs = 1\npretrain_epochs = 1\n"
        )
        assert main(["train", "--config", str(config)]) == 0
        ck = str(tmp_path / "run" / "checkpoint.json")
        students = set(cohort.logs.student_ids)
        exercises = set(cohort.logs.exercise_ids)
        concepts = {c for _, c in cohort.q_pairs}

        def rows(argv, out):
            assert main([*argv, "--checkpoint", ck, "--out", str(out)]) == 0
            with open(out, newline="", encoding="utf-8") as fh:
                header, *body = csv.reader(fh)
            assert all(len(row) == len(header) for row in body)
            return body

        predictions = rows(["eval"], tmp_path / "p.csv")
        assert {r[0] for r in predictions} == students
        assert {r[1] for r in predictions} <= exercises
        assert {r[1] for r in predictions} & set(rename.values())
        diagnosis = rows(["diagnose", "--student", 'Smith, J "3"'], tmp_path / "d.csv")
        assert {r[1] for r in diagnosis} == concepts
        ability = rows(["export-ability"], tmp_path / "a.csv")
        assert {(r[0], r[1]) for r in ability} == {(s, c) for s in students for c in concepts}


class TestServingWithoutData:
    def test_diagnose_and_export_ability_need_only_the_checkpoint(self, tmp_path, capsys):
        cohort = planted_cohort(n_students=12, n_exercises=20, n_concepts=3, per_student=15, seed=4)
        logs, qmatrix = tmp_path / "logs.csv", tmp_path / "qmatrix.csv"
        write_cohort_csv(cohort, logs, qmatrix)
        config = tmp_path / "run.cfg"
        config.write_text(
            f"logs = {logs}\nqmatrix = {qmatrix}\noutput_dir = {tmp_path / 'run'}\n"
            "variant = mirt\nmin_logs = 1\nmax_epochs = 1\npretrain_epochs = 1\nseed = 2\n"
        )
        assert main(["train", "--config", str(config)]) == 0
        checkpoint = str(tmp_path / "run" / "checkpoint.json")

        def serve(tag):
            diag, ability = tmp_path / f"diag_{tag}.csv", tmp_path / f"ability_{tag}.csv"
            assert main(["diagnose", "--checkpoint", checkpoint, "--student", "s0003",
                         "--out", str(diag)]) == 0
            assert main(["export-ability", "--checkpoint", checkpoint, "--out", str(ability)]) == 0
            return diag.read_bytes(), ability.read_bytes()

        with_data = serve("with")
        logs.unlink()
        qmatrix.unlink()
        assert serve("without") == with_data
        capsys.readouterr()
        assert main(["eval", "--checkpoint", checkpoint]) == 1
        assert str(logs) in capsys.readouterr().err


def open_descriptors() -> int:
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("no /proc/self/fd to count open descriptors")
    return len(os.listdir(fds))


class TestDescriptors:
    # each loaded checkpoint holds its map's descriptor until its arrays are
    # freed; the count before is taken after a collection, so no earlier
    # test's garbage can close a descriptor in between, and the count after
    # is not, so only reference counting may free what a command loaded

    def test_loads_and_serving_close_every_descriptor(self, workspace, tmp_path):
        checkpoint = str(workspace["checkpoint"])
        gc.collect()
        before = open_descriptors()
        for _ in range(50):
            load_checkpoint(checkpoint)
        assert main(["diagnose", "--checkpoint", checkpoint, "--student", "s0000",
                     "--out", str(tmp_path / "d.csv")]) == 0
        assert main(["eval", "--checkpoint", checkpoint, "--out", str(tmp_path / "p.csv")]) == 0
        assert open_descriptors() == before

    def test_a_failed_command_closes_its_checkpoint(self, tmp_path, capsys):
        cohort = planted_cohort(n_students=12, n_exercises=20, n_concepts=3, per_student=15, seed=4)
        logs, qmatrix = tmp_path / "logs.csv", tmp_path / "qmatrix.csv"
        write_cohort_csv(cohort, logs, qmatrix)
        config = tmp_path / "run.cfg"
        config.write_text(
            f"logs = {logs}\nqmatrix = {qmatrix}\noutput_dir = {tmp_path / 'run'}\n"
            "variant = irt\nmin_logs = 1\nmax_epochs = 1\npretrain_epochs = 0\n"
        )
        assert main(["train", "--config", str(config)]) == 0
        logs.unlink()
        gc.collect()
        before = open_descriptors()
        gc.disable()
        try:
            assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json")]) == 1
            assert open_descriptors() == before
        finally:
            gc.enable()
        assert str(logs) in capsys.readouterr().err


class TestParser:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_console_script_installed(self):
        # check the declared script and `python -m cogdiag` against the
        # same src/ this test imported, whether or not it is installed
        src = Path(cogdiag.__file__).resolve().parents[1]
        scripts = declared_scripts(src.parent / "pyproject.toml")
        assert scripts.get("cogdiag") == "cogdiag.cli:main"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        commands = [[sys.executable, "-m", "cogdiag", "--help"]]
        installed = shutil.which("cogdiag")
        if installed:
            commands.append([installed, "--help"])
        for command in commands:
            proc = subprocess.run(command, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert "train" in proc.stdout and "export-reliability" in proc.stdout


def declared_scripts(pyproject):
    """The ``[project.scripts]`` table of ``pyproject``.

    Python 3.10 has no ``tomllib``; there the section is read as text.
    """
    text = pyproject.read_text()
    try:
        import tomllib
    except ModuleNotFoundError:
        section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        return dict(re.findall(r'^\s*([\w.-]+)\s*=\s*"([^"]*)"', section, re.M))
    return tomllib.loads(text)["project"]["scripts"]
