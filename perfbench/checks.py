"""Independent oracles for the outputs the benchmark's operations write.

Each check recomputes a published number from the generated inputs or
from the operation's own output file, without going through the code
path that produced it, and returns a list of problems (empty = pass).
"""

from __future__ import annotations

import csv
import hashlib
import re
from collections import Counter
from pathlib import Path

import numpy as np


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rankdata(x) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    _, inverse, counts = np.unique(np.asarray(x, dtype=np.float64), return_inverse=True,
                                   return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + 1 + ends) / 2.0)[inverse]


def spearman(a, b) -> float:
    ra, rb = rankdata(a), rankdata(b)
    if ra.std() == 0 or rb.std() == 0:
        return 0.0
    return float(np.corrcoef(ra, rb)[0, 1])


def mann_whitney_auc(probs, labels) -> float:
    labels = np.asarray(labels, dtype=np.float64)
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    ranks = rankdata(probs)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_eval(stdout: str, predictions_csv: Path, expected_rows: int) -> tuple[list[str], float]:
    """Printed AUC must equal a recomputation from the predictions CSV."""
    match = re.search(r"^AUC\s+([0-9.]+)$", stdout, re.MULTILINE)
    if match is None:
        return ["eval printed no AUC line"], float("nan")
    printed = float(match.group(1))
    rows = _rows(predictions_csv)
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"predictions CSV has {len(rows)} rows, test split has {expected_rows}")
    recomputed = mann_whitney_auc([float(r["prob"]) for r in rows], [int(r["label"]) for r in rows])
    if abs(recomputed - printed) > 6e-7:
        problems.append(f"printed AUC {printed} != recomputed {recomputed:.7f}")
    return problems, printed


def check_diagnosis(diagnosis_csv: Path, expected_counts: Counter, n_concepts: int) -> list[str]:
    """Ranks follow sigma; the interactions column matches an independent count."""
    rows = _rows(diagnosis_csv)
    problems = []
    if len(rows) != n_concepts:
        problems.append(f"diagnosis has {len(rows)} rows, expected {n_concepts}")
    ranks = [int(r["rank"]) for r in rows]
    if ranks != list(range(1, len(rows) + 1)):
        problems.append("diagnosis rows are not in rank order 1..K")
    sigmas = [float(r["sigma"]) for r in rows]
    if any(b < a for a, b in zip(sigmas, sigmas[1:])):
        problems.append("diagnosis ranks are not sorted by sigma")
    wrong = [r["concept_id"] for r in rows
             if int(r["interactions"]) != expected_counts.get(r["concept_id"], 0)]
    if wrong:
        problems.append(f"interactions column disagrees with the generated logs for {wrong[:5]}")
    return problems


def check_train_log(train_log_csv: Path, expected_epochs: int) -> list[str]:
    n = len(_rows(train_log_csv))
    if n != expected_epochs:
        return [f"train_log.csv has {n} epochs, expected {expected_epochs} (early stopping fired?)"]
    return []


def train_concept_counts(logs, q_pairs, train_positions) -> dict[str, Counter]:
    """student id -> concept id -> training interactions touching it.

    Counted straight from the generated logs and Q-matrix pairs; the only
    thing taken from the program is which log positions form the train
    split.
    """
    concepts_of: dict[str, list[str]] = {}
    for eid, cid in q_pairs:
        concepts_of.setdefault(eid, []).append(cid)
    counts: dict[str, Counter] = {}
    for pos in train_positions:
        log = logs[pos]
        counts.setdefault(log.student_id, Counter()).update(concepts_of[log.exercise_id])
    return counts
