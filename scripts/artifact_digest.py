#!/usr/bin/env python3
"""Print a sha256 for every artifact the commands write on one fixed cohort.

Writes a small planted cohort, then for each head (irt, mirt, ncd 16/8)
runs ``train`` (3 + 3 epochs, seed 2), ``eval --split val``, ``eval
--split test``, ``diagnose`` for the first student and
``export-ability`` through ``cogdiag.cli.main``.  Each command's stdout
is kept as a file beside what it wrote.  The output directory is wiped
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

from cogdiag.cli import main as cogdiag  # noqa: E402
from cogdiag.synth import planted_cohort, write_cohort_csv  # noqa: E402

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
    config.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()), encoding="utf-8")
    checkpoint = str(run_dir / "checkpoint.json")
    run(["train", "--config", str(config)], run_dir / "train.stdout")
    for split in splits:
        run(["eval", "--checkpoint", checkpoint, "--split", split], run_dir / f"eval_{split}.stdout")
    run(["diagnose", "--checkpoint", checkpoint, "--student", student], run_dir / "diagnose.stdout")
    return checkpoint


def write_artifacts(out: Path) -> None:
    cohort, logs, qmatrix = write_cohort(
        out, n_students=60, n_exercises=80, n_concepts=5, per_student=30, seed=2)
    for head, keys in HEADS.items():
        run_dir = out / head
        entries = dict(logs=logs, qmatrix=qmatrix, output_dir=run_dir, **keys,
                       min_logs=1, max_epochs=3, pretrain_epochs=3, seed=2)
        checkpoint = train_and_serve(run_dir, entries, ("val", "test"), cohort.logs.student_ids[0])
        run(["export-ability", "--checkpoint", checkpoint], run_dir / "export_ability.stdout")


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
