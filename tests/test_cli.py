"""End-to-end command-line flows: train, eval, diagnose, exports."""

import argparse
import csv
import gc
import math
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
from cogdiag.cli import build_parser, main
from cogdiag.config import KEY_TYPES, RunConfig
from cogdiag.data import build_dataset, load_logs, load_qmatrix
from cogdiag.diagnostics import DiagnosticFunction
from cogdiag.inference import diagnose
from cogdiag.metrics import acc, auc, calibration, format_reliability_csv, rmse
from cogdiag.synth import planted_cohort, write_cohort_csv
from cogdiag.training import TrainConfig, Trainer


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

    def write_run(self, tmp_path, logs, qmatrix, settings):
        """A mirt run config on the given log and Q-matrix rows, with min_logs = 1."""
        (tmp_path / "logs.csv").write_text("student_id,exercise_id,score\n" + logs)
        (tmp_path / "q.csv").write_text("exercise_id,concept_id\n" + qmatrix)
        config = tmp_path / "run.cfg"
        config.write_text(
            f"logs = {tmp_path / 'logs.csv'}\nqmatrix = {tmp_path / 'q.csv'}\n"
            f"output_dir = {tmp_path / 'run'}\nvariant = mirt\nmin_logs = 1\n{settings}"
        )
        return config

    def test_an_empty_train_split_exits_one_naming_min_logs(self, tmp_path, capsys):
        # one log per student leaves every student's logs to the other splits
        config = self.write_run(tmp_path, "a,e1,1\nb,e2,0\nc,e1,1\n", "e1,c1\ne2,c2\n",
                                "max_epochs = 1\n")
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: phase 1, epoch 0: the training split is empty")
        assert "raise min_logs" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()
        # a zero-epoch run trains nothing, so it needs no train split
        config.write_text(config.read_text().replace("max_epochs = 1", "max_epochs = 0"))
        assert main(["train", "--config", str(config)]) == 0
        assert (tmp_path / "run" / "checkpoint.json").exists()

    def test_a_validation_metric_failure_names_the_split_and_epoch(self, tmp_path, capsys):
        # every answer correct: the validation split holds one class, so its AUC is undefined
        logs = "".join(f"s{i},e{j},1\n" for i in range(20) for j in range(10))
        qmatrix = "".join(f"e{j},c{j % 3}\n" for j in range(10))
        config = self.write_run(tmp_path, logs, qmatrix, "max_epochs = 1\n")
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == "error: phase 1, epoch 0, validation split: AUC needs both classes present\n"
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

    @pytest.mark.parametrize("split", ["test", "val"])
    def test_reliability_table_matches_csv_recomputation(self, workspace, capsys, tmp_path, split):
        out_path = tmp_path / "preds.csv"
        stdout = self.run_eval(workspace, capsys, split=split, out=out_path)
        table = tmp_path / f"reliability_{split}.csv"
        assert stdout.splitlines()[-1] == f"reliability table written to {table}"
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        probs = [float(r["prob"]) for r in rows]
        labels = [int(r["label"]) for r in rows]
        expected = format_reliability_csv(calibration(probs, labels, bins=RunConfig().bins))
        assert table.read_text() == expected

    def test_train_scores_validation_with_the_configured_bins(self, tmp_path, capsys):
        # eval scores six-decimal probabilities, so the two agree to 1e-4, not to the bit
        cohort = planted_cohort(n_students=60, n_exercises=80, n_concepts=5, per_student=30, seed=3)
        logs, qmatrix = tmp_path / "logs.csv", tmp_path / "q.csv"
        write_cohort_csv(cohort, logs, qmatrix)
        config = tmp_path / "run.cfg"
        config.write_text(
            f"logs = {logs}\nqmatrix = {qmatrix}\noutput_dir = {tmp_path / 'run'}\n"
            "variant = mirt\nmin_logs = 1\nmax_epochs = 2\npretrain_epochs = 2\nbins = 3\n"
        )
        assert main(["train", "--config", str(config)]) == 0
        checkpoint = tmp_path / "run" / "checkpoint.json"
        capsys.readouterr()
        stdout = self.run_eval({"checkpoint": checkpoint}, capsys, split="val")
        printed = float(next(l for l in stdout.splitlines() if l.startswith("ECE")).split()[1])
        assert abs(load_checkpoint(checkpoint).val_metrics["ece"] - printed) < 1e-4

    def test_out_named_as_the_reliability_table_is_usage_error(self, workspace, capsys, tmp_path):
        out = tmp_path / "reliability_val.csv"
        assert main(["eval", "--checkpoint", str(workspace["checkpoint"]), "--split", "val",
                     "--out", str(out)]) == 2
        assert "reliability table" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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
        out = tmp_path / "o.csv"
        assert main(["eval", "--checkpoint", str(moved), "--out", str(out)]) == 1
        assert "disagree" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "reliability_test.csv").exists()


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


    @pytest.mark.parametrize("key, value", list(dict.fromkeys(
        [("gamma", '"abc"'), ("patience", "true"), ("gamma", "1e999")]
        # one per key: a bool for an int, an int for a float, a number for a str
        + [(key, {int: "true", float: "1", str: "5"}[kind]) for key, kind in KEY_TYPES.items()]
    )))
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

    @pytest.mark.parametrize("drop, add", [("gamma", None), (None, "min_logs")])
    def test_train_config_schema_off_by_one_key(
        self, workspace, tmp_path, capsys, rewrite_checkpoint, drop, add
    ):
        # a library Trainer records exactly TrainConfig's keys; one fewer or one more is neither schema
        def edit(header):
            run_config = header["run_config"]
            kept = {f.name: run_config[f.name] for f in fields(TrainConfig) if f.name != drop}
            if add is not None:
                kept[add] = run_config[add]
            header["run_config"] = kept

        bad = tmp_path / "bad.json"
        rewrite_checkpoint(workspace["checkpoint"], bad, edit=edit)
        for err in self.serving_errors(bad, "s0000", tmp_path, capsys):
            assert "configuration schema (missing keys: " in err and "cogdiag train" in err
            if drop is not None:
                assert drop in err
        assert main(["export-ability", "--checkpoint", str(bad), "--out", str(tmp_path / "a.csv")]) == 1
        assert "missing keys: " in capsys.readouterr().err

    @pytest.mark.parametrize("widths", [[16.0, 8.0], [True, 8]], ids=["floats", "bool"])
    def test_head_width_that_is_not_an_int(
        self, workspace, tmp_path, capsys, rewrite_checkpoint, widths
    ):
        # 16.0 == 16 would pass the run_config's head check, and eval would then crash
        bad = tmp_path / "bad.json"
        rewrite_checkpoint(workspace["checkpoint"], bad, edit=lambda h: h.update(mlp_hidden=widths))
        self.assert_serving_exits_one(bad, "s0000", tmp_path, capsys, "mlp_hidden")
        assert main(["export-ability", "--checkpoint", str(bad), "--out", str(tmp_path / "a.csv")]) == 1
        err = capsys.readouterr().err
        assert "malformed" in err and "mlp_hidden" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("array, command", [
        ("student_mu", "diagnose"), ("student_mu", "eval"), ("student_mu", "export-ability"),
        ("exercise_diff", "eval"), ("exercise_disc", "eval"), ("mlp_w2", "eval"),
        ("student_logvar", "diagnose"), ("student_logvar", "export-ability"),
    ])
    def test_non_finite_array_value(
        self, workspace, tmp_path, capsys, rewrite_checkpoint, array, command, value
    ):
        # loading checks shapes, not values: each command checks the values it reads
        ck = load_checkpoint(workspace["checkpoint"])
        damaged = ck.params[array].copy()
        # the diagnosed student's row; every exercise's or MLP row's first entry
        row = ck.student_ids.index("s0000") if array.startswith("student") else slice(None)
        damaged[row, 0] = float(value)
        bad = tmp_path / "bad.json"
        rewrite_checkpoint(workspace["checkpoint"], bad, arrays={array: damaged})
        out = tmp_path / "out.csv"
        student = ["--student", "s0000"] if command == "diagnose" else []
        code = main([command, "--checkpoint", str(bad), "--out", str(out), *student])
        err = capsys.readouterr().err
        if array == "student_logvar" and value != "nan":  # clipped, as training reads it
            assert code == 0, err
            with open(out, newline="") as fh:
                sigmas = [float(r["sigma"]) for r in csv.DictReader(fh)]
            clipped = math.sqrt(math.exp(math.copysign(30.0, float(value))))
            assert all(math.isfinite(s) for s in sigmas) and f"{clipped:.6f}" in out.read_text()
            return
        assert code == 1
        assert f"error: checkpoint {bad} is malformed: {array} holds a non-finite value" in err
        assert "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == [bad]

    def test_diagnose_reads_only_its_students_row(
        self, workspace, tmp_path, capsys, rewrite_checkpoint
    ):
        ck = load_checkpoint(workspace["checkpoint"])
        other = ck.student_ids.index("s0001")
        damaged = {name: ck.params[name].copy() for name in ("student_mu", "student_logvar")}
        for arr in damaged.values():
            arr[other] = np.nan
        bad = tmp_path / "bad.json"
        rewrite_checkpoint(workspace["checkpoint"], bad, arrays=damaged)
        out = tmp_path / "diag.csv"
        assert main(["diagnose", "--checkpoint", str(bad), "--student", "s0000",
                     "--out", str(out)]) == 0
        expected = tmp_path / "expected.csv"
        assert main(["diagnose", "--checkpoint", str(workspace["checkpoint"]),
                     "--student", "s0000", "--out", str(expected)]) == 0
        assert out.read_bytes() == expected.read_bytes()
        assert main(["diagnose", "--checkpoint", str(bad), "--student", "s0001"]) == 1
        assert "student_mu holds a non-finite value" in capsys.readouterr().err

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


class TestOutNamingTheCheckpoint:
    """No serving command writes over the checkpoint it reads, however the path is spelled."""

    @pytest.fixture
    def copy(self, workspace, tmp_path):
        (tmp_path / "sub").mkdir()
        path = tmp_path / "checkpoint.json"
        shutil.copyfile(workspace["checkpoint"], path)
        (tmp_path / "link.json").symlink_to(path)
        os.link(path, tmp_path / "hardlink.json")
        return path

    @pytest.mark.parametrize("command", ["eval", "diagnose", "export-ability"])
    @pytest.mark.parametrize("spelling", ["same", "dot-dot", "symlink", "hardlink"])
    def test_exits_two_and_writes_nothing(self, copy, tmp_path, capsys, command, spelling):
        out = {"same": copy, "dot-dot": tmp_path / "sub" / ".." / copy.name,
               "symlink": tmp_path / "link.json", "hardlink": tmp_path / "hardlink.json"}[spelling]
        before = copy.read_bytes()
        student = ["--student", "s0000"] if command == "diagnose" else []
        assert main([command, "--checkpoint", str(copy), "--out", str(out), *student]) == 2
        err = capsys.readouterr().err
        assert f"error: {out} is the checkpoint" in err
        assert copy.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint.json", "hardlink.json", "link.json", "sub"]

    def test_eval_never_writes_its_reliability_table_over_the_checkpoint(
        self, copy, tmp_path, capsys
    ):
        table = copy.rename(tmp_path / "reliability_test.csv")
        before = table.read_bytes()
        assert main(["eval", "--checkpoint", str(table)]) == 2
        assert f"{table} is the checkpoint" in capsys.readouterr().err
        assert table.read_bytes() == before
        assert not (tmp_path / "predictions_test.csv").exists()


class TestLibraryCheckpoint:
    """A checkpoint a library Trainer saved on a TrainConfig, as the README quickstart trains."""

    @pytest.fixture(scope="class")
    def library_checkpoint(self, workspace, tmp_path_factory):
        root = workspace["root"]
        dataset = build_dataset(load_logs(root / "logs.csv"), load_qmatrix(root / "q.csv"), min_logs=1)
        cfg = TrainConfig(max_epochs=1, pretrain_epochs=1)
        path = tmp_path_factory.mktemp("library") / "checkpoint.json"
        save_checkpoint(Trainer(dataset, DiagnosticFunction("mirt"), cfg).train(), path)
        return path

    def test_diagnose_and_export_ability_serve_it(self, library_checkpoint, tmp_path, capsys):
        ck = load_checkpoint(library_checkpoint)
        sid = ck.student_ids[0]
        expected = {row.concept_id: (f"{row.mastery:.6f}", f"{row.sigma:.6f}")
                    for row in diagnose(ck, sid).rows}
        diag, ability = tmp_path / "diag.csv", tmp_path / "ability.csv"
        assert main(["diagnose", "--checkpoint", str(library_checkpoint), "--student", sid,
                     "--out", str(diag)]) == 0
        printed = capsys.readouterr().out
        for mastery, sigma in expected.values():
            assert f"{float(mastery):>8.4f} {float(sigma):>8.4f}" in printed
        assert main(["export-ability", "--checkpoint", str(library_checkpoint),
                     "--out", str(ability)]) == 0
        with open(diag, newline="") as fh:
            assert {row["concept_id"]: (row["mastery"], row["sigma"])
                    for row in csv.DictReader(fh)} == expected
        with open(ability, newline="") as fh:
            assert {row["concept_id"]: (row["mastery"], row["sigma"])
                    for row in csv.DictReader(fh) if row["student_id"] == sid} == expected

    def test_eval_exits_one_naming_what_it_lacks(self, library_checkpoint, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        assert main(["eval", "--checkpoint", str(library_checkpoint), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "records a library TrainConfig, which names no data files" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


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

    def test_sigma_comes_from_the_variance_training_used(self, workspace, tmp_path, capsys):
        # training clips logvar to +-30 before exp, so logvar +-40 serves as sigma exp(+-15)
        ck = load_checkpoint(workspace["checkpoint"])
        logvar = ck.params["student_logvar"].copy()
        logvar[0, :2] = (40.0, -40.0)
        ck.params["student_logvar"] = logvar
        path = tmp_path / "checkpoint.json"
        save_checkpoint(ck, path)
        sid, (wide, narrow) = ck.student_ids[0], ck.concept_ids[:2]
        report = diagnose(load_checkpoint(path), sid)
        sigma = {row.concept_id: row.sigma for row in report.rows}
        assert sigma[wide] == pytest.approx(math.exp(15.0), rel=1e-12)
        assert sigma[narrow] == pytest.approx(math.exp(-15.0), rel=1e-12)
        assert (report.rows[0].concept_id, report.rows[-1].concept_id) == (narrow, wide)
        diag, ability = tmp_path / "diag.csv", tmp_path / "ability.csv"
        assert main(["diagnose", "--checkpoint", str(path), "--student", sid,
                     "--out", str(diag)]) == 0
        assert f"{math.exp(15.0):>8.4f}" in capsys.readouterr().out
        assert main(["export-ability", "--checkpoint", str(path), "--out", str(ability)]) == 0
        with open(diag, newline="") as fh:
            diag_sigma = {row["concept_id"]: row["sigma"] for row in csv.DictReader(fh)}
        with open(ability, newline="") as fh:
            ability_sigma = {row["concept_id"]: row["sigma"] for row in csv.DictReader(fh)
                             if row["student_id"] == sid}
        for shown in (diag_sigma, ability_sigma):
            assert shown[wide] == f"{math.exp(15.0):.6f}"
            assert shown[narrow] == f"{math.exp(-15.0):.6f}"

    def test_unknown_student_is_runtime_error(self, workspace, capsys):
        code = main([
            "diagnose", "--checkpoint", str(workspace["checkpoint"]), "--student", "ghost",
        ])
        assert code == 1
        assert "ghost" in capsys.readouterr().err

    def test_default_path_escapes_slash_and_percent(self, tmp_path, capsys):
        # ids are opaque: "/" names no directory, and "a%2Fb" does not collide with "a/b"
        cohort = planted_cohort(n_students=12, n_exercises=20, n_concepts=3, per_student=15, seed=4)
        rename = {"s0000": "a/b", "s0001": "a%2Fb", "s0002": "../up"}
        cohort.logs.student_ids = [rename.get(s, s) for s in cohort.logs.student_ids]
        logs, qmatrix = tmp_path / "logs.csv", tmp_path / "q.csv"
        write_cohort_csv(cohort, logs, qmatrix)
        config = tmp_path / "run.cfg"
        config.write_text(
            f"logs = {logs}\nqmatrix = {qmatrix}\noutput_dir = {tmp_path / 'run'}\n"
            "variant = mirt\nmin_logs = 1\nmax_epochs = 1\npretrain_epochs = 1\n"
        )
        assert main(["train", "--config", str(config)]) == 0
        run = tmp_path / "run"
        names = {"a/b": "a%2Fb", "a%2Fb": "a%252Fb", "../up": "..%2Fup", "s0003": "s0003"}
        for sid in names:
            assert main(["diagnose", "--checkpoint", str(run / "checkpoint.json"),
                         "--student", sid]) == 0
        written = sorted(p.name for p in run.iterdir() if p.name.startswith("diagnosis_"))
        assert written == sorted(f"diagnosis_{name}.csv" for name in names.values())
        assert not list(tmp_path.glob("diagnosis_*"))


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
        code = main([
            "eval", "--checkpoint", str(workspace["checkpoint"]),
            "--split", "test", "--out", str(tmp_path / "preds.csv"),
        ])
        assert code == 0
        rows = (tmp_path / "reliability_test.csv").read_text().splitlines()
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


# The peak is read as VmHWM, not ru_maxrss: a child started by (v)fork and
# exec carries its parent's resident high-water mark in ru_maxrss, so a
# large test process would set the child's figure.
MEASURE = """
import os, re, sys
from cogdiag.cli import main
with open("/proc/self/statm") as fh:
    before = int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = int(re.search(r"^VmHWM:\\s*(\\d+) kB", fh.read(), re.M).group(1)) * 1024
print(code, before, peak)
"""


def measured_rise(argv):
    """How far one ``cli.main(argv)`` call raises the peak RSS of a fresh process.

    A fresh process, so this process's own peak cannot hide the rise.
    """
    src = Path(cogdiag.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", MEASURE, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    code, before, peak = map(int, proc.stdout.splitlines()[-1].split())
    assert code == 0
    return peak - before


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm")
class TestMemory:
    # each command's peak should stay a small multiple of the checkpoint
    # it writes or reads
    @pytest.fixture(scope="class")
    def zero_epoch_run(self, tmp_path_factory):
        """A zero-epoch ncd train on a wide cohort: its directory and its peak rise."""
        tmp_path = tmp_path_factory.mktemp("memory")
        cohort = planted_cohort(
            n_students=300, n_exercises=10_000, n_concepts=123, per_student=100, seed=3
        )
        logs, qmatrix = tmp_path / "logs.csv", tmp_path / "q.csv"
        write_cohort_csv(cohort, logs, qmatrix)
        config = tmp_path / "run.cfg"
        config.write_text(
            f"logs = {logs}\nqmatrix = {qmatrix}\noutput_dir = {tmp_path / 'run'}\n"
            "variant = ncd\nmin_logs = 1\nmax_epochs = 0\npretrain_epochs = 0\nseed = 3\n"
        )
        return tmp_path, measured_rise(["train", "--config", str(config)])

    def test_zero_epoch_train_holds_few_copies_of_its_parameters(self, zero_epoch_run):
        # a zero-epoch train reads its parameters once, to write them
        tmp_path, rise = zero_epoch_run
        size = (tmp_path / "run" / "checkpoint.json").stat().st_size
        assert rise < 3 * size, (
            f"train raised the peak RSS by {rise / size:.2f}x its {size} B checkpoint"
        )

    def test_one_epoch_train_keeps_no_full_size_gradient(self, zero_epoch_run):
        # a mirt epoch steps Adam on the batch's rows; full-size gradient
        # buffers beside the parameters and moments raise the peak past this
        tmp_path, _ = zero_epoch_run
        config = tmp_path / "mirt.cfg"
        config.write_text(
            f"logs = {tmp_path / 'logs.csv'}\nqmatrix = {tmp_path / 'q.csv'}\n"
            f"output_dir = {tmp_path / 'mirt'}\nvariant = mirt\nmin_logs = 1\n"
            "max_epochs = 1\npretrain_epochs = 0\nseed = 3\n"
        )
        rise = measured_rise(["train", "--config", str(config)])
        size = (tmp_path / "mirt" / "checkpoint.json").stat().st_size
        assert rise < 6.7 * size, (
            f"train raised the peak RSS by {rise / size:.2f}x its {size} B checkpoint"
        )

    def test_eval_serves_in_blocks(self, zero_epoch_run):
        # eval holds the checkpoint and one block of each head layer; serving
        # the whole split as one block raises the peak past this bound
        tmp_path, _ = zero_epoch_run
        checkpoint = tmp_path / "run" / "checkpoint.json"
        rise = measured_rise(["eval", "--checkpoint", str(checkpoint), "--split", "test",
                              "--out", str(tmp_path / "predictions_test.csv")])
        size = checkpoint.stat().st_size
        assert rise < 4.5 * size, (
            f"eval raised the peak RSS by {rise / size:.2f}x its {size} B checkpoint"
        )


class TestParser:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_export_reliability_is_gone(self):
        with pytest.raises(SystemExit) as err:
            main(["export-reliability", "--checkpoint", "checkpoint.json"])
        assert err.value.code == 2

    def test_readme_command_block_names_every_subcommand(self):
        readme = Path(cogdiag.__file__).resolve().parents[2] / "README.md"
        named = set(re.findall(r"^cogdiag ([\w-]+)", readme.read_text(), re.M))
        (commands,) = [
            a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert named == set(commands)

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
            for name in ("train", "eval", "diagnose", "export-ability"):
                assert name in proc.stdout
            assert "export-reliability" not in proc.stdout


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
