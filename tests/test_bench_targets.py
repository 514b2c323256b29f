"""The benchmark tracer's targets still exist, with what its hooks read.

``perfbench/tracer.py`` wraps program functions by module attribute,
binds some of their arguments by name, and its counting hooks read
attributes of the objects they are handed (the store's touched rows, a
pair sample's count, a Node's parents).  A rename or deletion there
shows up only as ``trace.missing_spans`` (or a hook error) in a traced
run; here it fails tier-1 instead.  The tracer is imported by file path
and never installed; its hooks are called directly on program objects.
"""

import functools
import importlib
import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from numpy.random import default_rng

from cogdiag import tape, training
from cogdiag.data import build_dataset
from cogdiag.diagnostics import DiagnosticFunction, init_parameters
from cogdiag.numerics import AdamConfig, adam_step
from cogdiag.seeding import substream
from cogdiag.synth import planted_cohort

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# argument names each hook binds from the call it wraps
HOOK_ARGS = {
    "_count_pairs": ("count",),
    "_count_nodes": ("root",),
    "_count_adam_rows": ("store",),
    "_count_saved": ("path",),
    "_count_loaded": ("path",),
    "_count_dense_q": (),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TRACER = load_tracer()
TARGETS = TRACER.TARGETS


def resolve(target):
    """The object the tracer would replace, looked up the way it does."""
    module_name, _, class_name = target.owner.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return owner.__dict__.get(target.attr)


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t.owner}.{t.attr}")
def test_target_resolves(target):
    assert resolve(target) is not None, f"{target.span}: {target.owner}.{target.attr} is gone"


def test_dense_q_is_a_cached_property():
    (target,) = [t for t in TARGETS if t.attr == "dense_q"]
    assert isinstance(resolve(target), functools.cached_property)


@pytest.mark.parametrize(
    "target", [t for t in TARGETS if t.pre or t.post], ids=lambda t: f"{t.owner}.{t.attr}"
)
def test_hook_arguments_in_signature(target):
    original = resolve(target)
    if isinstance(original, functools.cached_property):
        original = original.func
    params = inspect.signature(original).parameters
    for hook in (target.pre, target.post):
        if hook is None:
            continue
        assert hook.__name__ in HOOK_ARGS, f"no argument list for tracer hook {hook.__name__}"
        for name in HOOK_ARGS[hook.__name__]:
            assert name in params, f"{target.span}: {hook.__name__} binds {name!r}"


# ------------------------------------------------------------ hooks at work


class Counts:
    """Stands in for the Tracer: the hooks only add to ``counts``."""

    def __init__(self):
        self.counts = Counter()


@pytest.fixture(params=["mirt", "ncd"])
def step(request):
    """A phase-two batch: (dataset, function, config, store, batch, noise, tracker)."""
    cohort = planted_cohort(n_students=10, n_exercises=15, n_concepts=4, per_student=10, seed=5)
    ds = build_dataset(cohort.logs, cohort.q_pairs, min_logs=1)
    fn = DiagnosticFunction(request.param, mlp_hidden=(5, 3))
    cfg = training.TrainConfig(seed=5)
    store = init_parameters(fn, ds.n_students, ds.n_exercises, ds.n_concepts, default_rng(5))
    tracker = training.CorrectnessTracker(ds.n_students, fn.latent_dim(ds.n_concepts))
    tracker.seen[:] = 1
    batch_idx = np.arange(12)
    noise = training.draw_batch_noise(ds, fn, cfg, batch_idx, tracker, substream(5, "sampling"),
                                      substream(5, "dropout"), substream(5, "pairing"))
    return ds, fn, cfg, store, batch_idx, noise, tracker


def test_adam_rows_hook_reads_the_store(step):
    ds, fn, cfg, store, batch_idx, noise, _ = step
    training.batch_loss(ds, fn, store, batch_idx, cfg, noise)
    counter = Counts()
    TRACER._count_adam_rows(counter, adam_step, (store, AdamConfig()), {"lazy": True})
    students = len(np.unique(ds.s_idx[batch_idx]))
    exercises = len(np.unique(ds.e_idx[batch_idx]))
    assert counter.counts["adam.rows_updated.student_mu"] == students
    assert counter.counts["adam.rows_held.student_logvar"] == ds.n_students - students
    assert counter.counts["adam.rows_updated.exercise_diff"] == exercises
    # mirt pins discrimination to one, so its rows are never touched
    disc = exercises if fn.variant == "ncd" else 0
    assert counter.counts["adam.rows_updated.exercise_disc"] == disc
    assert counter.counts["training.steps"] == 1


def test_pairs_hook_reads_the_sample(step):
    ds, fn, _, _, batch_idx, _, tracker = step
    args = (ds.s_idx[batch_idx], ds.e_idx[batch_idx], fn.cells(ds), tracker, 7, default_rng(1))
    sample = training.sample_pairs(*args)
    counter = Counts()
    TRACER._count_pairs(counter, training.sample_pairs, args, {}, sample)
    assert counter.counts["pairs.attempted"] == 7
    assert counter.counts["pairs.surviving"] == sample.count == 7


def test_nodes_hook_walks_the_parents(step):
    ds, fn, cfg, store, batch_idx, noise, _ = step
    root, _, _ = training.build_batch_graph(ds, fn, store, batch_idx, cfg, noise, None)
    counter = Counts()
    TRACER._count_nodes(counter, tape.backprop, (root,), {})
    # one objective node over the mu, logvar and difficulty leaves; ncd adds
    # the discrimination leaf and the six MLP leaves
    assert counter.counts["tape.nodes"] == (4 if fn.variant == "mirt" else 11)
    assert counter.counts["tape.graphs"] == 1
