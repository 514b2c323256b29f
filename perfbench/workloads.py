"""Workload definitions and the closed loop that runs them.

One client, closed loop: each operation starts when the previous one has
returned, with no threads.  An operation is one ``cogdiag train``,
``eval`` or ``diagnose`` call made in-process through ``cli.main``, with
its standard output captured.  It fails when it raises, returns a
nonzero exit code or fails one of the checks in ``checks.py``.

Every input comes from ``cogdiag.synth.planted_cohort`` under the run's
seed and is written to CSV in the work directory; the program sees only
those files and a config file.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import random
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cogdiag import cli
from cogdiag.checkpoint import load_checkpoint
from cogdiag.data import SplitSpec, build_dataset, split_per_student
from cogdiag.synth import planted_cohort, write_cohort_csv

import checks
from tracer import Tracer


@dataclass(frozen=True)
class Workload:
    name: str
    cohort: dict           # planted_cohort arguments except the seed
    config: dict           # run config entries except paths and seed
    train_in_loop: bool    # False: training happens only in set-up
    setup_repeats: int = 5


ASSIST_SHAPE = dict(n_students=2493, n_exercises=17671, n_concepts=123, per_student=100)

WORKLOADS = {
    w.name: w
    for w in (
        # the acceptance recovery shape under mirt: per-call Python overhead dominates
        Workload(
            name="train-mirt-small",
            cohort=dict(n_students=200, n_exercises=400, n_concepts=10, per_student=80,
                        concept_skew=6.0),
            # patience above the epoch count: early stopping cannot fire
            config=dict(variant="mirt", pretrain_epochs=2, max_epochs=2, patience=10),
            train_in_loop=True,
        ),
        # ASSIST's concept count under the default ncd head: matmuls and dense Adam dominate
        Workload(
            name="train-ncd-wide",
            cohort=dict(n_students=30, n_exercises=2000, n_concepts=123, per_student=100),
            config=dict(variant="ncd", pretrain_epochs=2, max_epochs=2, patience=10),
            train_in_loop=True,
        ),
        # ASSIST-shaped cohort served from a zero-epoch checkpoint: no training code runs
        Workload(
            name="serve-assist",
            cohort=ASSIST_SHAPE,
            config=dict(variant="ncd", pretrain_epochs=0, max_epochs=0, patience=10),
            train_in_loop=False,
            setup_repeats=2,  # 7-15 CPU seconds each; a third would push a run past a minute
        ),
    )
}


@dataclass
class OpResult:
    kind: str
    cpu_s: float
    wall_s: float
    ok: bool
    problems: list[str]
    digests: dict[str, str]
    phase: str
    traced: bool = False
    trace: dict | None = None
    overhead_s: float | None = None  # traced CPU time minus its untraced twin's


@dataclass
class Session:
    """Inputs, artifacts and the ledger of operations for one workload run."""

    workload: Workload
    seed: int
    phase: str = "setup"  # stamped on each operation: setup, warmup or timed
    ops: list[OpResult] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    setup_digests: list[dict] = field(default_factory=list)
    test_auc: list[float] = field(default_factory=list)

    def __post_init__(self):
        self.work = Path(".perfbench_work") / self.workload.name
        self.logs = self.work / "logs.csv"
        self.qmatrix = self.work / "qmatrix.csv"
        self.config = self.work / "run.cfg"
        self.out_dir = self.work / "run"
        self.checkpoint = self.out_dir / "checkpoint.json"
        self._reference_checkpoint: str | None = None
        self._rng = random.Random(self.seed)

    # ------------------------------------------------------------ set-up

    def setup_once(self) -> None:
        """Generate the cohort, write CSVs and config; serve also trains zero epochs."""
        self.cohort = None
        settle_collector()
        t0 = time.process_time()
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        cohort = planted_cohort(seed=self.seed, **self.workload.cohort)
        write_cohort_csv(cohort, self.logs, self.qmatrix)
        entries = dict(logs=self.logs, qmatrix=self.qmatrix, output_dir=self.out_dir,
                       min_logs=1, seed=self.seed, **self.workload.config)
        self.config.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        if not self.workload.train_in_loop:
            self.op_train()
        self.setup_s.append(time.process_time() - t0)
        self.cohort = cohort
        digests = {"logs": checks.sha256(self.logs), "qmatrix": checks.sha256(self.qmatrix)}
        if self.checkpoint.exists():
            digests["checkpoint"] = checks.sha256(self.checkpoint)
        self.setup_digests.append(digests)

    def setup(self, repeats: int) -> list[str]:
        """Set up ``repeats`` times; every repeat must write identical bytes."""
        for _ in range(repeats):
            self.setup_once()
        problems = []
        if any(d != self.setup_digests[0] for d in self.setup_digests):
            problems.append("set-up repeats with one seed wrote different files")
        self._prepare_oracles()
        return problems

    def _prepare_oracles(self) -> None:
        logs, q_pairs = self.cohort.logs, self.cohort.q_pairs
        # the split is the program's definition; counts below are taken independently
        dataset = build_dataset(logs, q_pairs, min_logs=1)
        splits = split_per_student(dataset, SplitSpec(seed=self.seed))
        self.n_concepts = dataset.n_concepts
        self.train_positions = splits.train
        self.n_test = len(splits.test)
        self.expected_counts = checks.train_concept_counts(logs, q_pairs, splits.train)
        self.student_ids = sorted({log.student_id for log in logs})

    # -------------------------------------------------------- operations

    def _cli(self, kind: str, argv: list[str], outputs: list[Path], check, tracer=None) -> OpResult:
        out, err = io.StringIO(), io.StringIO()
        problems: list[str] = []
        settle_collector()
        undo = tracer.install() if tracer is not None else None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # an operation that raises is a failed operation
            code = None
            problems.append(traceback.format_exc(limit=4))
        finally:
            cpu, wall = time.process_time() - c0, time.perf_counter() - t0
            if undo is not None:
                tracer.uninstall(undo)
        if code != 0 and code is not None:
            problems.append(f"exit code {code}: {err.getvalue().strip()[-300:]}")
        digests = {}
        if not problems:
            try:
                problems += check(out.getvalue())
                digests = {p.name: checks.sha256(p) for p in outputs}
                digests["stdout"] = checks.sha256_text(out.getvalue())
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"output check could not run: {exc!r}")
        result = OpResult(kind, cpu, wall, not problems, problems, digests, self.phase,
                          traced=tracer is not None,
                          trace=tracer.summary() if tracer is not None else None)
        self.ops.append(result)
        return result

    def op_train(self, tracer=None) -> OpResult:
        cfg = self.workload.config
        epochs = cfg["pretrain_epochs"] + cfg["max_epochs"]

        def check(stdout):
            problems = checks.check_train_log(self.out_dir / "train_log.csv", epochs)
            digest = checks.sha256(self.checkpoint)
            if self._reference_checkpoint is None:
                self._reference_checkpoint = digest
            elif digest != self._reference_checkpoint:
                problems.append("same-seed train wrote a checkpoint with a different SHA-256")
            return problems

        outputs = [self.checkpoint, self.out_dir / "train_log.csv", self.out_dir / "config_resolved.txt"]
        return self._cli("train", ["train", "--config", str(self.config)], outputs, check, tracer)

    def op_eval(self, tracer=None) -> OpResult:
        out = self.work / "predictions_test.csv"

        def check(stdout):
            problems, printed = checks.check_eval(stdout, out, self.n_test)
            if not problems:
                self.test_auc.append(printed)
            return problems

        argv = ["eval", "--checkpoint", str(self.checkpoint), "--split", "test", "--out", str(out)]
        return self._cli("eval", argv, [out], check, tracer)

    def op_diagnose(self, student: str, tracer=None) -> OpResult:
        out = self.work / "diagnosis.csv"

        def check(stdout):
            return checks.check_diagnosis(out, self.expected_counts.get(student, {}), self.n_concepts)

        argv = ["diagnose", "--checkpoint", str(self.checkpoint), "--student", student,
                "--out", str(out)]
        return self._cli("diagnose", argv, [out], check, tracer)

    def cycle(self):
        """One round of the closed loop: callables taking an optional ``tracer``."""
        if self.workload.train_in_loop:
            return [self.op_train, self.op_eval, self._diagnose_op()]
        return [self._diagnose_op(), self.op_eval, self._diagnose_op()]

    def _diagnose_op(self):
        return functools.partial(self.op_diagnose, self._rng.choice(self.student_ids))

    # ------------------------------------------------------------ loops

    def run_loop(self, seconds: float, traced: bool) -> float:
        """Whole cycles until ``seconds`` have passed, at least one; returns the wall time.

        Untraced: every operation once.  Traced: every operation untraced
        and then traced on the same inputs, and the two must write
        byte-identical outputs.
        """
        t0 = time.perf_counter()
        while True:
            for op in self.cycle():
                plain = op()
                if traced:
                    self.traced_twin(op, plain)
            if time.perf_counter() - t0 >= seconds:
                return time.perf_counter() - t0

    def traced_twin(self, op, plain: OpResult) -> OpResult:
        twin = op(tracer=Tracer())
        twin.overhead_s = twin.cpu_s - plain.cpu_s
        if twin.ok and plain.ok and twin.digests != plain.digests:
            twin.ok = False
            twin.problems.append("traced run wrote different bytes than the untraced run")
        return twin

    # ----------------------------------------------------------- quality

    def latent_quality(self) -> dict:
        """Recovery of planted ability and sigma-vs-evidence, from the checkpoint."""
        ck = load_checkpoint(self.checkpoint)
        row = {sid: i for i, sid in enumerate(ck.student_ids)}
        col = {cid: k for k, cid in enumerate(ck.concept_ids)}
        n_students, n_concepts = self.cohort.abilities.shape
        rows = [row[f"s{i:04d}"] for i in range(n_students)]
        # a concept no exercise drew is absent from the dataset, so it has no column
        planted = [k for k in range(n_concepts) if f"c{k:02d}" in col]
        cols = [col[f"c{k:02d}"] for k in planted]
        mu = ck.params["student_mu"][np.ix_(rows, cols)]
        sigma = np.sqrt(np.exp(ck.params["student_logvar"][np.ix_(rows, cols)]))
        counts = np.zeros((n_students, len(planted)))
        for j, k in enumerate(planted):
            cid = f"c{k:02d}"
            for i in range(n_students):
                counts[i, j] = self.expected_counts.get(f"s{i:04d}", {}).get(cid, 0)
        seen = counts > 0
        ability = self.cohort.abilities[:, planted]
        return {
            "recovery_rho": checks.spearman(mu[seen], ability[seen]),
            "sigma_evidence_rho": checks.spearman(sigma.ravel(), counts.ravel()),
        }

    # ----------------------------------------------------------- ledger

    def times(self, kind: str, phase: str = "timed", clock: str = "cpu_s") -> list[float]:
        """CPU (or wall) seconds of the successful untraced operations of one kind and phase."""
        return [getattr(op, clock) for op in self.ops
                if op.kind == kind and op.phase == phase and op.ok and not op.traced]

    def failures(self) -> list[str]:
        return [f"{op.kind}{' (traced)' if op.traced else ''}: {'; '.join(op.problems)}"
                for op in self.ops if not op.ok]


def settle_collector() -> None:
    """Collect, then freeze the survivors before a timed step.

    Every step then starts from the same collector state, and the
    benchmark's own objects (a 249k-log cohort, the ledger) stay out of
    the collections the program triggers, as in a fresh process.  Without
    this, one mirt diagnose call read 0.08 or 0.14 CPU s depending on
    whether a full collection landed in it.
    """
    gc.collect()
    gc.freeze()


def median(values, default=0.0) -> float:
    return statistics.median(values) if values else default
