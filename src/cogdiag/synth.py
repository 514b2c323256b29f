"""Synthetic response data with known ground truth.

Used by the test suite for recovery checks and by the demo scripts, so
nothing here depends on the trainer.  The generator plants a
compensatory multi-concept model: correctness probability is the
sigmoid of the summed (ability - difficulty) gaps over the exercise's
concepts, which any of the diagnostic variants should be able to chase.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .data import LOG_HEADER, QMATRIX_HEADER, LogColumns, cell_runs, csv_fields, first_seen_codes
from .numerics import stable_sigmoid
from .seeding import substream

ABILITY_RANGE = (-2.0, 2.0)  # of every planted ability and difficulty
MAX_CONCEPTS_PER_EXERCISE = 3


@dataclass
class SyntheticCohort:
    logs: LogColumns
    q_pairs: list[tuple[str, str]]
    abilities: np.ndarray     # (students, concepts) ground truth
    difficulties: np.ndarray  # (exercises, concepts)


def planted_cohort(
    n_students: int = 200,
    n_exercises: int = 400,
    n_concepts: int = 10,
    per_student: int = 80,
    seed: int = 0,
    concept_skew: float = 3.0,
) -> SyntheticCohort:
    """Generate a cohort from a planted compensatory model.

    Abilities and difficulties are uniform on ``ABILITY_RANGE``.  Each
    exercise covers one to ``MAX_CONCEPTS_PER_EXERCISE`` concepts (at most
    ``n_concepts``) drawn with popularity weights spread linearly up to
    ``concept_skew``, so some concepts end up data-rich and others
    sparse; that spread is what the confidence machinery is supposed to
    pick up on.  Each student in turn draws ``per_student`` distinct
    exercises, then one uniform number per log: below the planted
    probability is correct.
    The logs are the :class:`LogColumns` that ``load_logs`` returns for
    the file :func:`write_cohort_csv` writes, coded straight from the draws.
    :func:`_distinct_concepts` replays ``rng.choice(n_concepts, k, replace=False,
    p=weights)``: the same uniforms and table look-ups in order, so the same bytes.
    """
    bad = [msg for ok, msg in (
        (n_concepts >= 1, f"n_concepts must be at least 1, got {n_concepts}"),
        (n_exercises >= 1, f"n_exercises must be at least 1, got {n_exercises}"),
        (0 < concept_skew * max(n_concepts, 1) < np.inf,  # every weight > 0, their sum finite
         f"concept_skew must be > 0 and finite times n_concepts, got {concept_skew}"),
        (per_student <= n_exercises, "per_student cannot exceed n_exercises (sampling is without replacement)"),
    ) if not ok]
    if bad:
        raise ValueError("; ".join(bad))
    rng = substream(seed, "synthetic")
    abilities = rng.uniform(*ABILITY_RANGE, size=(n_students, n_concepts))
    difficulties = rng.uniform(*ABILITY_RANGE, size=(n_exercises, n_concepts))

    weights = np.linspace(1.0, concept_skew, n_concepts)
    weights = weights / weights.sum()
    cdf = np.cumsum(weights)
    cdf = (cdf / cdf[-1]).tolist()
    k_max = min(MAX_CONCEPTS_PER_EXERCISE, n_concepts)
    concepts_of = [_distinct_concepts(rng, int(rng.integers(1, k_max + 1)), weights, cdf)
                   for _ in range(n_exercises)]
    ptr = np.cumsum([0] + [len(cs) for cs in concepts_of], dtype=np.int64)
    idx = np.array([l for cs in concepts_of for l in cs], dtype=np.int64)

    picks = np.empty((n_students, per_student), dtype=np.int64)
    draws = np.empty((n_students, per_student))
    for i in range(n_students):
        picks[i] = rng.choice(n_exercises, size=per_student, replace=False)
        draws[i] = rng.random(per_student)
    js = picks.ravel()
    cs, sizes = cell_runs(ptr, idx, js)
    s_of = np.repeat(np.arange(n_students), per_student)
    gaps = abilities[np.repeat(s_of, sizes), cs] - difficulties[np.repeat(js, sizes), cs]
    p = stable_sigmoid(np.add.reduceat(gaps, np.cumsum(sizes) - sizes))  # a log's gaps, in order

    exercise_ids = [f"e{j:04d}" for j in range(n_exercises)]
    concept_ids = [f"c{l:02d}" for l in range(n_concepts)]
    students, s_codes = first_seen_codes(s_of, n_students)
    exercises, e_codes = first_seen_codes(js, n_exercises)
    logs = LogColumns([f"s{i:04d}" for i in students.tolist()],
                      list(map(exercise_ids.__getitem__, exercises.tolist())),
                      s_codes, e_codes, (draws.ravel() < p).astype(np.float64))
    q_pairs = [(eid, concept_ids[l]) for eid, ls in zip(exercise_ids, concepts_of) for l in ls]
    return SyntheticCohort(logs, q_pairs, abilities, difficulties)


def _distinct_concepts(rng, k: int, weights: np.ndarray, cdf: list[float]) -> list[int]:
    """Sorted ``rng.choice(len(weights), k, replace=False, p=weights)``, ``cdf`` its first table."""
    found: list[int] = []
    while len(found) < k:
        if found:  # a repeat: numpy's next round, on the table without the concepts found
            p = weights.copy()
            p[found] = 0.0
            cdf = np.cumsum(p)
            cdf = (cdf / cdf[-1]).tolist()
        for x in rng.random(k - len(found)).tolist():
            if (l := bisect_right(cdf, x)) not in found:
                found.append(l)
    return sorted(found)


def write_cohort_csv(cohort: SyntheticCohort, logs_path, qmatrix_path) -> None:
    """Write the cohort as ``csv.writer`` would, byte for byte, quoting each distinct id once.

    A log's line is its student's field and its (exercise, score) tail, gathered by its codes.
    """
    logs = cohort.logs
    if not np.isin(logs.scores, (0.0, 1.0)).all():
        raise ValueError("every score must be 0 or 1")
    tails = [f",{eid},{score}\r\n" for eid in csv_fields(logs.exercise_ids) for score in (0, 1)]
    pieces = np.empty(2 * len(logs), dtype=object)
    pieces[0::2] = np.array(csv_fields(logs.student_ids), dtype=object)[logs.students]
    pieces[1::2] = np.array(tails, dtype=object)[2 * logs.exercises + logs.scores.astype(np.int64)]
    with open(logs_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(LOG_HEADER) + "\r\n" + "".join(pieces.tolist()))
    fields = csv_fields([i for pair in cohort.q_pairs for i in pair])
    with open(qmatrix_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(QMATRIX_HEADER) + "\r\n"
                 + "".join(map("{},{}\r\n".format, fields[0::2], fields[1::2])))
