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

The cogdiag imported is the one in this checkout's ``src/``.  A
directory that holds files but not the marker a previous run left is
not wiped, and the script exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cogdiag.cli import main as cogdiag  # noqa: E402
from cogdiag.synth import planted_cohort, write_cohort_csv  # noqa: E402

MARKER = ".artifact_digest"
HEADS = {"irt": "variant = irt\n", "mirt": "variant = mirt\n",
         "ncd": "variant = ncd\nmlp_hidden1 = 16\nmlp_hidden2 = 8\n"}


def run(argv: list[str], stdout_file: Path) -> None:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cogdiag(argv)
    if code != 0:
        raise SystemExit(f"cogdiag {' '.join(argv)} exited {code}")
    stdout_file.write_text(buffer.getvalue(), encoding="utf-8")


def write_artifacts(out: Path) -> None:
    cohort = planted_cohort(n_students=60, n_exercises=80, n_concepts=5, per_student=30, seed=2)
    logs, qmatrix = out / "logs.csv", out / "qmatrix.csv"
    write_cohort_csv(cohort, logs, qmatrix)
    for head, keys in HEADS.items():
        run_dir = out / head
        run_dir.mkdir()
        config = run_dir / "run.cfg"
        config.write_text(
            f"logs = {logs}\nqmatrix = {qmatrix}\noutput_dir = {run_dir}\n{keys}"
            "min_logs = 1\nmax_epochs = 3\npretrain_epochs = 3\nseed = 2\n",
            encoding="utf-8",
        )
        checkpoint = str(run_dir / "checkpoint.json")
        run(["train", "--config", str(config)], run_dir / "train.stdout")
        for split in ("val", "test"):
            run(["eval", "--checkpoint", checkpoint, "--split", split],
                run_dir / f"eval_{split}.stdout")
        run(["diagnose", "--checkpoint", checkpoint, "--student", cohort.logs.student_ids[0]],
            run_dir / "diagnose.stdout")
        run(["export-ability", "--checkpoint", checkpoint], run_dir / "export_ability.stdout")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory to wipe and write into")
    out = Path(parser.parse_args(argv).out).resolve()
    if out.exists():
        if any(out.iterdir()) and not (out / MARKER).exists():
            print(f"error: {out} holds files this script did not write; not wiping it",
                  file=sys.stderr)
            return 2
        shutil.rmtree(out)
    out.mkdir(parents=True)
    (out / MARKER).touch()
    write_artifacts(out)
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != MARKER):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
