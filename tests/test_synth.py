"""The planted-cohort generator against a per-log reference loop."""

import math

import numpy as np
import pytest

from cogdiag.seeding import substream
from cogdiag.synth import planted_cohort
from test_acceptance import RECOVERY_SHAPE


def per_log_cohort(n_students=200, n_exercises=400, n_concepts=10, per_student=80, seed=0,
                   concept_skew=3.0):
    """Reference: one record and one scalar sigmoid per log, in the generator's draw order.

    Abilities and difficulties are uniform on (-2, 2) and each exercise
    has one to three concepts.  Each student draws its exercises, then
    one uniform number per log, in turn.
    """
    rng = substream(seed, "synthetic")
    abilities = rng.uniform(-2.0, 2.0, size=(n_students, n_concepts))
    difficulties = rng.uniform(-2.0, 2.0, size=(n_exercises, n_concepts))
    weights = np.linspace(1.0, concept_skew, n_concepts)
    weights = weights / weights.sum()
    concepts_of = []
    for _ in range(n_exercises):
        k = int(rng.integers(1, 4))
        concepts_of.append(np.sort(rng.choice(n_concepts, size=k, replace=False, p=weights)))
    records = []
    for i in range(n_students):
        for j in rng.choice(n_exercises, size=per_student, replace=False):
            gap = 0.0
            for l in concepts_of[j]:
                gap += abilities[i, l] - difficulties[j, l]
            z = math.exp(-abs(gap))
            p = 1.0 / (1.0 + z) if gap >= 0 else z / (1.0 + z)
            records.append((f"s{i:04d}", f"e{j:04d}", float(rng.random() < p)))
    q_pairs = [(f"e{j:04d}", f"c{l:02d}") for j in range(n_exercises) for l in concepts_of[j]]
    return records, q_pairs, abilities, difficulties


SHAPES = {
    "default": {},
    "recovery": {k: v for k, v in RECOVERY_SHAPE.items() if k != "seed"},
    # perfbench's train-ncd-wide cohort
    "ncd-wide": dict(n_students=30, n_exercises=2000, n_concepts=123, per_student=100),
    "tiny": dict(n_students=5, n_exercises=6, n_concepts=4, per_student=6),
    "every-exercise": dict(n_students=3, n_exercises=4, n_concepts=3, per_student=4),
}


class TestPlantedCohort:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_matches_the_per_log_loop(self, shape, seed):
        got = planted_cohort(seed=seed, **shape)
        records, q_pairs, abilities, difficulties = per_log_cohort(seed=seed, **shape)
        logs = got.logs
        assert logs.scores.dtype == np.float64
        assert list(zip(logs.student_ids, logs.exercise_ids, logs.scores.tolist())) == records
        assert got.q_pairs == q_pairs
        np.testing.assert_array_equal(got.abilities, abilities)
        np.testing.assert_array_equal(got.difficulties, difficulties)

