"""Synthetic response data with known ground truth.

Used by the test suite for recovery checks and by the demo scripts, so
nothing here depends on the trainer.  The generator plants a
compensatory multi-concept model: correctness probability is the
sigmoid of the summed (ability - difficulty) gaps over the exercise's
concepts, which any of the diagnostic variants should be able to chase.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import LogColumns, cell_runs
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
    exercise covers one to ``MAX_CONCEPTS_PER_EXERCISE`` concepts drawn
    with popularity weights spread linearly up to ``concept_skew``, so
    some concepts end up data-rich and others sparse; that spread is
    what the confidence machinery is supposed to pick up on.  Each
    student in turn draws ``per_student`` distinct exercises, then one
    uniform number per log: below the planted probability is correct.
    The logs are the :class:`LogColumns` that ``load_logs`` returns.
    """
    if per_student > n_exercises:
        raise ValueError("per_student cannot exceed n_exercises (sampling is without replacement)")
    rng = substream(seed, "synthetic")
    abilities = rng.uniform(*ABILITY_RANGE, size=(n_students, n_concepts))
    difficulties = rng.uniform(*ABILITY_RANGE, size=(n_exercises, n_concepts))

    weights = np.linspace(1.0, concept_skew, n_concepts)
    weights = weights / weights.sum()
    concepts_of = []
    for _ in range(n_exercises):
        k = int(rng.integers(1, MAX_CONCEPTS_PER_EXERCISE + 1))
        concepts_of.append(np.sort(rng.choice(n_concepts, size=k, replace=False, p=weights)))
    ptr = np.cumsum([0] + [len(cs) for cs in concepts_of], dtype=np.int64)
    idx = np.concatenate(concepts_of)

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

    student_ids = [f"s{i:04d}" for i in range(n_students)]
    exercise_ids = [f"e{j:04d}" for j in range(n_exercises)]
    concept_ids = [f"c{l:02d}" for l in range(n_concepts)]
    logs = LogColumns(
        [sid for sid in student_ids for _ in range(per_student)],
        list(map(exercise_ids.__getitem__, js.tolist())),
        (draws.ravel() < p).astype(np.float64),
    )
    q_pairs = [
        (exercise_ids[j], concept_ids[l]) for j in range(n_exercises) for l in concepts_of[j]
    ]
    return SyntheticCohort(
        logs=logs, q_pairs=q_pairs, abilities=abilities, difficulties=difficulties
    )


def write_cohort_csv(cohort: SyntheticCohort, logs_path, qmatrix_path) -> None:
    logs = cohort.logs
    with open(logs_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "exercise_id", "score"])
        writer.writerows(zip(logs.student_ids, logs.exercise_ids, map(int, logs.scores.tolist())))
    with open(qmatrix_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["exercise_id", "concept_id"])
        writer.writerows(cohort.q_pairs)
