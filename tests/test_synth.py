"""The planted-cohort generator against a per-log reference loop."""

import csv
import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogdiag.data import LOG_HEADER, QMATRIX_HEADER
from cogdiag.seeding import substream
from cogdiag.synth import _distinct_concepts, planted_cohort, write_cohort_csv
from test_acceptance import RECOVERY_SHAPE


def per_log_cohort(n_students=200, n_exercises=400, n_concepts=10, per_student=80, seed=0,
                   concept_skew=3.0):
    """Reference: one record and one scalar sigmoid per log, in the generator's draw order.

    Abilities and difficulties are uniform on (-2, 2) and each exercise
    has one to three concepts, never more than there are, drawn by numpy's
    own ``rng.choice``: this is the oracle for the generator's hand sampler.
    Should a numpy upgrade change ``choice``'s draws, ``PINNED`` still
    guards the generator's bytes.  Each student draws its exercises, then
    one uniform number per log, in turn.
    """
    rng = substream(seed, "synthetic")
    abilities = rng.uniform(-2.0, 2.0, size=(n_students, n_concepts))
    difficulties = rng.uniform(-2.0, 2.0, size=(n_exercises, n_concepts))
    weights = np.linspace(1.0, concept_skew, n_concepts)
    weights = weights / weights.sum()
    concepts_of = []
    for _ in range(n_exercises):
        k = int(rng.integers(1, min(3, n_concepts) + 1))
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
    # fewer concepts than an exercise may cover
    "one-concept": dict(n_students=6, n_exercises=8, n_concepts=1, per_student=5),
    "two-concepts": dict(n_students=6, n_exercises=8, n_concepts=2, per_student=5),
}

# SHA-256 of the CSV pair write_cohort_csv writes, then the planted abilities and
# difficulties: perfbench's three workload cohorts at seed 1, and the acceptance recovery shape
PINNED = {
    "train-mirt-small": (dict(RECOVERY_SHAPE, seed=1),
                         "3e7f3eede373c7d245ef1ec06312acd1a6d6e7731cf2478ae47e19013c46ee06"),
    "train-ncd-wide": (dict(n_students=30, n_exercises=2000, n_concepts=123, per_student=100, seed=1),
                       "4af849477fc0abb7fceed8fb46faccd8319aa9776b0a93f0b293eef55811ff44"),
    "serve-assist": (dict(n_students=2493, n_exercises=17671, n_concepts=123, per_student=100, seed=1),
                     "5e778acede89f66b38b9caefc58a23756f2c768ea1af8888ebbfd5a4bda4d124"),
    "recovery": (RECOVERY_SHAPE, "cd82ba76a2dc14576382570ee07d2b7087f70d3644ad411a6415cd7032e9274d"),
    # two concepts, up to two per exercise: 3 of its 8 exercises need a re-draw round (29 of
    # train-ncd-wide's 2,000 do)
    "two-concepts": (dict(SHAPES["two-concepts"], seed=1),
                     "4aaa03c30571dd0658239f237f3a45ed4a3803e859dc69d77d17ef00da708f4f"),
}

# each argument the generator refuses, with a call that names it
BAD_ARGUMENTS = {
    "negative-skew-three-concepts": (dict(concept_skew=-1.0, n_concepts=3), "concept_skew"),
    "negative-skew": (dict(concept_skew=-0.5), "concept_skew"),
    "nan-skew": (dict(concept_skew=float("nan")), "concept_skew"),
    "zero-skew-two-concepts": (dict(concept_skew=0.0, n_concepts=2), "concept_skew"),
    "overflowing-weight-sum": (dict(concept_skew=1.7e308, n_concepts=3), "concept_skew"),
    "no-concepts": (dict(n_concepts=0), "n_concepts"),
    "no-exercises": (dict(n_exercises=0, per_student=0), "n_exercises"),
    "more-picks-than-exercises": (dict(n_exercises=5, per_student=6), "per_student"),
}


class TestPlantedCohort:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_matches_the_per_log_loop(self, shape, seed):
        got = planted_cohort(seed=seed, **shape)
        records, q_pairs, abilities, difficulties = per_log_cohort(seed=seed, **shape)
        logs = got.logs
        assert logs.scores.dtype == np.float64
        rows = [logs[i] for i in range(len(logs))]
        assert [(r.student_id, r.exercise_id, score)
                for r, score in zip(rows, logs.scores.tolist())] == records
        assert got.q_pairs == q_pairs
        np.testing.assert_array_equal(got.abilities, abilities)
        np.testing.assert_array_equal(got.difficulties, difficulties)


    @pytest.mark.parametrize("n_concepts", [1, 2])
    def test_fewer_concepts_than_an_exercise_may_cover(self, n_concepts):
        cohort = planted_cohort(n_students=4, n_exercises=40, n_concepts=n_concepts, per_student=10,
                                seed=3)
        per_exercise = {}
        for eid, cid in cohort.q_pairs:
            per_exercise.setdefault(eid, []).append(cid)
        assert len(per_exercise) == 40
        assert max(map(len, per_exercise.values())) == n_concepts
        assert {cid for cids in per_exercise.values() for cid in cids} == {
            f"c{l:02d}" for l in range(n_concepts)
        }

    @pytest.mark.parametrize("kwargs, name", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
    def test_bad_arguments_are_named(self, kwargs, name):
        with pytest.raises(ValueError, match=name) as info:
            planted_cohort(**kwargs)
        assert info.value.args[0].count(";") == 0  # one argument is bad, one is named

    def test_every_bad_argument_is_named_at_once(self):
        with pytest.raises(ValueError) as info:
            planted_cohort(n_concepts=0, n_exercises=0, per_student=1, concept_skew=-1.0)
        assert [msg.split()[0] for msg in info.value.args[0].split("; ")] == [
            "n_concepts", "n_exercises", "concept_skew", "per_student"
        ]

    @settings(max_examples=200, deadline=None)
    @given(n_concepts=st.integers(1, 6), k_max=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           concept_skew=st.floats(0.1, 50.0))
    def test_sampler_makes_choices_draws(self, n_concepts, k_max, seed, concept_skew):
        """Same concepts as ``rng.choice`` and the same stream position after, re-draws included."""
        weights = np.linspace(1.0, concept_skew, n_concepts)
        weights = weights / weights.sum()
        cdf = np.cumsum(weights)
        cdf = (cdf / cdf[-1]).tolist()
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        k_max = min(k_max, n_concepts)
        for _ in range(20):
            k = int(ours.integers(1, k_max + 1))
            assert int(numpys.integers(1, k_max + 1)) == k
            expected = np.sort(numpys.choice(n_concepts, size=k, replace=False, p=weights)).tolist()
            assert _distinct_concepts(ours, k, weights, cdf) == expected
        assert ours.random() == numpys.random()

    @pytest.mark.parametrize("name", PINNED)
    def test_workload_cohorts_keep_their_bytes(self, tmp_path, name):
        shape, digest = PINNED[name]
        cohort = planted_cohort(**shape)
        write_cohort_csv(cohort, tmp_path / "logs.csv", tmp_path / "qmatrix.csv")
        h = hashlib.sha256()
        for part in ((tmp_path / "logs.csv").read_bytes(), (tmp_path / "qmatrix.csv").read_bytes(),
                     cohort.abilities.tobytes(), cohort.difficulties.tobytes()):
            h.update(part)
        assert h.hexdigest() == digest

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_writes_what_csv_writer_writes(self, tmp_path_factory, data):
        # any id, quoted or not, against csv.writer fed one row at a time
        cohort = planted_cohort(n_students=6, n_exercises=8, n_concepts=3, per_student=4, seed=5)
        ids = st.text(alphabet=',"\r\n xé', max_size=4)
        for table in ("student_ids", "exercise_ids"):
            n = len(getattr(cohort.logs, table))
            setattr(cohort.logs, table, data.draw(st.lists(ids, min_size=n, max_size=n, unique=True)))
        cohort.q_pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=6))
        tmp_path = tmp_path_factory.mktemp("written")
        write_cohort_csv(cohort, tmp_path / "logs.csv", tmp_path / "qmatrix.csv")
        logs = [cohort.logs[i] for i in range(len(cohort.logs))]
        for path, header, rows in (
            ("logs.csv", LOG_HEADER, [(r.student_id, r.exercise_id, r.score) for r in logs]),
            ("qmatrix.csv", QMATRIX_HEADER, cohort.q_pairs),
        ):
            want = io.StringIO()
            writer = csv.writer(want)
            writer.writerow(header)
            writer.writerows(rows)
            assert (tmp_path / path).read_bytes() == want.getvalue().encode("utf-8")
