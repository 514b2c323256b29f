#!/usr/bin/env python3
"""Print a sha256 for every artifact the commands write on one fixed cohort.

Writes a small planted cohort, then for each head (irt, mirt, ncd 16/8)
runs ``train`` (3 + 3 epochs, seed 2), ``eval --split val``, ``eval
--split test``, ``diagnose`` for the first student and
``export-ability`` through ``cogdiag.cli.main``.  Each command's stdout
is kept as a file beside what it wrote.  It then runs ``train`` on four
damaged copies of the cohort's files (an undecodable byte, a wrong field
count, a bad score after a row whose quoted id spans two lines, an empty
Q-matrix id) and keeps each failure's exit code and stderr, so the
error messages are compared too.  The three serving commands are then
run where each must fail, keeping the same: on a copy of the mirt
checkpoint with a nan in ``student_mu``, and with ``--out`` naming the
checkpoint they read.  Last, a library ``Trainer`` trains
mirt on a ``TrainConfig`` (1 + 1 epochs, seed 2) and saves its
checkpoint, which ``diagnose`` and ``export-ability`` serve and ``eval``,
having no data files to read, refuses; that exit code and stderr are
kept the same way.  The output directory is wiped
first, so two runs into the same directory embed the same paths; the
digests then compare two checkouts byte for byte:

    python3 scripts/artifact_digest.py --out /tmp/digest > a.txt   # in one checkout
    python3 scripts/artifact_digest.py --out /tmp/digest > b.txt   # in the other
    diff a.txt b.txt

With ``--workload NAME`` it writes one perfbench workload's cohort and
config instead (``perfbench/workloads.py``, seed 1) and runs ``train``,
``eval --split test`` and ``diagnose`` for the first student on them,
which checks a change's bytes at the benchmark's own shapes:

    python3 scripts/artifact_digest.py --out /tmp/digest --workload serve-assist

The cogdiag imported is the one in this checkout's ``src/``.  A
directory that holds files but not the marker a previous run left is
not wiped, and the script exits 2, as it does for an unknown workload.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cogdiag.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from cogdiag.cli import main as cogdiag  # noqa: E402
from cogdiag.data import build_dataset, load_logs, load_qmatrix  # noqa: E402
from cogdiag.diagnostics import DiagnosticFunction  # noqa: E402
from cogdiag.synth import planted_cohort, write_cohort_csv  # noqa: E402
from cogdiag.training import TrainConfig, Trainer  # noqa: E402

MARKER = ".artifact_digest"
HEADS = {"irt": dict(variant="irt"), "mirt": dict(variant="mirt"),
         "ncd": dict(variant="ncd", mlp_hidden1=16, mlp_hidden2=8)}
WORKLOAD_SEED = 1


def run(argv: list[str], stdout_file: Path) -> None:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cogdiag(argv)
    if code != 0:
        raise SystemExit(f"cogdiag {' '.join(argv)} exited {code}")
    stdout_file.write_text(buffer.getvalue(), encoding="utf-8")


def run_failing(argv: list[str], stderr_file: Path) -> None:
    """Run a command that must fail; keep its exit code and what it printed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cogdiag(argv)
    if code == 0:
        raise SystemExit(f"cogdiag {' '.join(argv)} succeeded where it must fail")
    stderr_file.write_text(f"exit {code}\n{stderr.getvalue()}{stdout.getvalue()}", encoding="utf-8")


def write_config(path: Path, entries: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()), encoding="utf-8")


# name: (the file it damages, {1-based line of the cohort's file: edit of its bytes})
DAMAGE = {
    "undecodable_byte": ("logs", {10: lambda line: b"\xff" + line}),
    "wrong_field_count": ("logs", {10: lambda line: line.rsplit(b",", 1)[0]}),
    "bad_score_after_a_multiline_id": ("logs", {
        2: lambda line: b'"' + line.replace(b",", b'\r\nsecond line",', 1),
        10: lambda line: line[:-1] + b"7",
    }),
    "empty_qmatrix_id": ("qmatrix", {5: lambda line: line[line.index(b","):]}),
}


def write_failures(out: Path, logs: Path, qmatrix: Path) -> None:
    """Train on each damaged copy of the CRLF cohort files; keep each failure's output."""
    files = {"logs": logs, "qmatrix": qmatrix}
    for name, (which, edits) in DAMAGE.items():
        case = out / "errors" / name
        case.mkdir(parents=True)
        lines = files[which].read_bytes().split(b"\r\n")
        for number, edit in edits.items():
            lines[number - 1] = edit(lines[number - 1])
        damaged = case / files[which].name
        damaged.write_bytes(b"\r\n".join(lines))
        config = case / "run.cfg"
        write_config(config, {**files, which: damaged, "output_dir": case / "run", "min_logs": 1})
        run_failing(["train", "--config", str(config)], case / "train.stderr")


def write_serving_failures(out: Path, checkpoint: str, student: str) -> None:
    """Serve two bad requests on copies of ``checkpoint``; keep each command's failure."""
    commands = {"diagnose": ["--student", student], "eval": [], "export_ability": []}
    for case in ("nan_student_mu", "out_is_checkpoint"):
        case_dir = out / "errors" / case
        case_dir.mkdir(parents=True)
        copy = str(case_dir / "checkpoint.json")
        ck = load_checkpoint(checkpoint)
        if case == "nan_student_mu":
            ck.params["student_mu"][0, 0] = float("nan")  # a private map: the file is untouched
        save_checkpoint(ck, copy)
        for command, extra in commands.items():
            argv = [command.replace("_", "-"), "--checkpoint", copy, *extra]
            if case == "out_is_checkpoint":
                argv += ["--out", copy]
            run_failing(argv, case_dir / f"{command}.stderr")


def write_cohort(out: Path, **shape):
    """The planted cohort's CSVs in ``out``: (cohort, logs path, Q-matrix path)."""
    cohort = planted_cohort(**shape)
    logs, qmatrix = out / "logs.csv", out / "qmatrix.csv"
    write_cohort_csv(cohort, logs, qmatrix)
    return cohort, logs, qmatrix


def train_and_serve(run_dir: Path, entries: dict, splits, student: str) -> str:
    """Write ``entries`` as run_dir's config, train, eval each split, diagnose ``student``.

    Returns the checkpoint path.
    """
    run_dir.mkdir()
    config = run_dir / "run.cfg"
    write_config(config, entries)
    checkpoint = str(run_dir / "checkpoint.json")
    run(["train", "--config", str(config)], run_dir / "train.stdout")
    for split in splits:
        run(["eval", "--checkpoint", checkpoint, "--split", split], run_dir / f"eval_{split}.stdout")
    run(["diagnose", "--checkpoint", checkpoint, "--student", student], run_dir / "diagnose.stdout")
    return checkpoint


def write_library_run(out: Path, logs: Path, qmatrix: Path, student: str) -> None:
    """Serve a checkpoint a library Trainer saved on a TrainConfig, as the README trains one."""
    run_dir = out / "library"
    run_dir.mkdir()
    dataset = build_dataset(load_logs(logs), load_qmatrix(qmatrix), min_logs=1)
    cfg = TrainConfig(max_epochs=1, pretrain_epochs=1, seed=2)
    checkpoint = str(run_dir / "checkpoint.json")
    save_checkpoint(Trainer(dataset, DiagnosticFunction("mirt"), cfg).train(), checkpoint)
    run(["diagnose", "--checkpoint", checkpoint, "--student", student], run_dir / "diagnose.stdout")
    run(["export-ability", "--checkpoint", checkpoint], run_dir / "export_ability.stdout")
    run_failing(["eval", "--checkpoint", checkpoint], run_dir / "eval.stderr")


def write_artifacts(out: Path) -> None:
    cohort, logs, qmatrix = write_cohort(
        out, n_students=60, n_exercises=80, n_concepts=5, per_student=30, seed=2)
    for head, keys in HEADS.items():
        run_dir = out / head
        entries = dict(logs=logs, qmatrix=qmatrix, output_dir=run_dir, **keys,
                       min_logs=1, max_epochs=3, pretrain_epochs=3, seed=2)
        checkpoint = train_and_serve(run_dir, entries, ("val", "test"), cohort.logs.student_ids[0])
        run(["export-ability", "--checkpoint", checkpoint], run_dir / "export_ability.stdout")
    write_failures(out, logs, qmatrix)
    write_serving_failures(out, str(out / "mirt" / "checkpoint.json"), cohort.logs.student_ids[0])
    write_library_run(out, logs, qmatrix, cohort.logs.student_ids[0])


def load_workloads() -> dict:
    """``WORKLOADS`` of ``perfbench/workloads.py``, imported by file path."""
    bench = ROOT / "perfbench"
    sys.path.insert(0, str(bench))  # its own imports of checks and tracer
    spec = importlib.util.spec_from_file_location("perfbench_workloads", bench / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


def write_workload(out: Path, workload) -> None:
    """The workload's cohort and config at seed 1, as perfbench sets them up."""
    cohort, logs, qmatrix = write_cohort(out, seed=WORKLOAD_SEED, **workload.cohort)
    run_dir = out / "run"
    entries = dict(logs=logs, qmatrix=qmatrix, output_dir=run_dir, min_logs=1,
                   seed=WORKLOAD_SEED, **workload.config)
    train_and_serve(run_dir, entries, ("test",), cohort.logs.student_ids[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory to wipe and write into")
    parser.add_argument("--workload", help="a perfbench workload to run instead of the three heads")
    args = parser.parse_args(argv)
    workload = None
    if args.workload is not None:
        workloads = load_workloads()
        if args.workload not in workloads:
            parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads)}")
        workload = workloads[args.workload]
    out = Path(args.out).resolve()
    if out.exists():
        if any(out.iterdir()) and not (out / MARKER).exists():
            print(f"error: {out} holds files this script did not write; not wiping it",
                  file=sys.stderr)
            return 2
        shutil.rmtree(out)
    out.mkdir(parents=True)
    (out / MARKER).touch()
    if workload is None:
        write_artifacts(out)
    else:
        write_workload(out, workload)
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != MARKER):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
