#!/usr/bin/env python3
"""Convert the public Assist2009 skill-builder dump into cogdiag's CSV pair.

Input: the raw ``skill_builder_data.csv`` from the ASSISTments 2009-2010
skill-builder release (the file is latin-1 encoded and lists one row per
problem log per linked skill).

Output: ``logs.csv`` (student_id, exercise_id, score) and ``qmatrix.csv``
(exercise_id, concept_id) in the chosen output directory, plus a summary
of what the standard >= 15-logs-per-student filter keeps: the dataset
``build_dataset`` makes of the written files.  The widely cited filtered
size of this dataset is 2,493 students, 17,671 exercises, 123 concepts;
the script reports how close the produced files land so a preprocessing
drift is visible immediately.

Usage (with cogdiag importable: installed, or ``PYTHONPATH=src``):
    python3 scripts/prepare_assist2009.py RAW_CSV --out data/assist2009
    COGDIAG_ASSIST2009_DIR=data/assist2009 pytest tests/test_acceptance.py -k real_data
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from cogdiag.data import LOG_HEADER, QMATRIX_HEADER, build_dataset, load_logs, load_qmatrix

EXPECTED = {"students": 2493, "exercises": 17671, "concepts": 123}


def clean_rows(raw_path: Path):
    """Yield (order, user, problem, skill, correct) for usable raw rows."""
    with open(raw_path, newline="", encoding="latin-1") as fh:
        reader = csv.DictReader(fh)
        required = {"order_id", "user_id", "problem_id", "skill_id", "correct"}
        missing = required - set(reader.fieldnames or ())
        if missing:
            raise SystemExit(f"raw file lacks expected columns: {sorted(missing)}")
        for row in reader:
            skill = (row.get("skill_id") or "").strip()
            if not skill or skill.lower() == "na":
                continue  # unlabeled problems cannot enter the Q-matrix
            correct = (row.get("correct") or "").strip()
            if correct not in ("0", "1"):
                continue
            yield (
                int(row["order_id"]),
                row["user_id"].strip(),
                row["problem_id"].strip(),
                skill,
                int(correct),
            )


def build_tables(rows):
    """First-attempt score per (student, problem); all problem-skill links."""
    first_score: dict[tuple[str, str], tuple[int, int]] = {}
    q_pairs: set[tuple[str, str]] = set()
    for order, user, problem, skill, correct in rows:
        q_pairs.add((problem, skill))
        key = (user, problem)
        seen = first_score.get(key)
        if seen is None or order < seen[0]:
            first_score[key] = (order, correct)
    logs = [
        (user, problem, score)
        for (user, problem), (_, score) in sorted(
            first_score.items(), key=lambda item: item[1][0]
        )
    ]
    return logs, sorted(q_pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("raw_csv", type=Path, help="skill_builder_data.csv from the public release")
    parser.add_argument("--out", type=Path, default=Path("data/assist2009"), help="output directory")
    parser.add_argument("--min-logs", type=int, default=15, help="filter threshold used for the report")
    args = parser.parse_args(argv)

    if not args.raw_csv.exists():
        print(f"raw file not found: {args.raw_csv}", file=sys.stderr)
        return 1

    logs, q_pairs = build_tables(clean_rows(args.raw_csv))
    if not logs:
        print("no usable rows found; is this the right file?", file=sys.stderr)
        return 1

    args.out.mkdir(parents=True, exist_ok=True)
    logs_path = args.out / "logs.csv"
    q_path = args.out / "qmatrix.csv"
    with open(logs_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_HEADER)
        writer.writerows(logs)
    with open(q_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(QMATRIX_HEADER)
        writer.writerows(q_pairs)

    print(f"wrote {len(logs)} interaction logs to {logs_path}")
    print(f"wrote {len(q_pairs)} exercise-concept links to {q_path}")
    try:
        dataset = build_dataset(load_logs(logs_path), load_qmatrix(q_path), args.min_logs)
    except ValueError as exc:  # the data module's errors, and a min_logs below 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"after the >= {args.min_logs}-logs filter the dataset will have:")
    for key, want in EXPECTED.items():
        got = getattr(dataset, f"n_{key}")
        print(f"  {key:9} {got}  (commonly reported: {want}, drift {got - want:+d})")
    print(f"  {'logs':9} {dataset.n_interactions}")
    print(f"train with: cogdiag train --config <cfg with logs={logs_path} qmatrix={q_path} min_logs={args.min_logs}>")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
