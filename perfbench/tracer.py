"""Outside-in tracing: spans around cogdiag's public functions.

Nothing in the program is edited.  While a :class:`Tracer` is installed,
each target attribute below is replaced by a wrapper that records a span
(name, start, end, parent) and, for some layers, a count.  Targets are
patched where the caller looks them up: ``cli.py`` imported
``load_logs`` by name, so the span around CSV loading wraps
``cogdiag.cli.load_logs``, not ``cogdiag.data.load_logs``.  Uninstalling
puts the original objects back, so untraced operations run the exact
program.

Spans read the process CPU clock, not the wall clock: on a shared host
the hypervisor steals whole stretches of wall time from this process,
while its CPU time stays put.

Counting work (walking the tape graph, listing touched Adam rows) runs
inside ``trace.hook`` spans; they are children of whatever span is open,
so they never inflate another layer's self time, only the traced CPU
time that the overhead metric reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


# ---------------------------------------------------------------- hooks

def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_pairs(tracer, fn, args, kwargs, result):
    tracer.counts["pairs.attempted"] += int(_bound(fn, args, kwargs)["count"])
    tracer.counts["pairs.surviving"] += int(result.count)


def _count_nodes(tracer, fn, args, kwargs):
    root = _bound(fn, args, kwargs)["root"]
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    tracer.counts["tape.nodes"] += len(seen)
    tracer.counts["tape.graphs"] += 1


def _count_adam_rows(tracer, fn, args, kwargs):
    bound = _bound(fn, args, kwargs)
    store, lazy = bound["store"], bound.get("lazy", False)
    tracer.counts["training.steps"] += 1
    for name, arr in store.params.items():
        n_rows = arr.shape[0] if arr.ndim else 1
        updated = n_rows
        if lazy and store.is_row_sparse(name):
            touched = store.touched_rows(name)
            if touched is None:
                updated = 0
            elif not isinstance(touched, str):
                updated = len(touched)
        tracer.counts[f"adam.rows_updated.{name}"] += updated
        tracer.counts[f"adam.rows_held.{name}"] += n_rows - updated


def _count_saved(tracer, fn, args, kwargs, result):
    tracer.counts["checkpoint.bytes_written"] += os.path.getsize(_bound(fn, args, kwargs)["path"])
    tracer.counts["checkpoint.saves"] += 1


def _count_loaded(tracer, fn, args, kwargs):
    tracer.counts["checkpoint.bytes_read"] += os.path.getsize(_bound(fn, args, kwargs)["path"])
    tracer.counts["checkpoint.loads"] += 1


def _count_dense_q(tracer, fn, args, kwargs, result):
    tracer.counts["data.dense_q.computed_bytes"] += int(result.nbytes)
    tracer.counts["data.dense_q.builds"] += 1


@dataclass(frozen=True)
class Target:
    owner: str            # module path, optionally followed by ":Class"
    attr: str
    span: str
    pre: Callable | None = None
    post: Callable | None = None


TARGETS = (
    Target("cogdiag.cli", "cmd_train", "cli.train"),
    Target("cogdiag.cli", "cmd_eval", "cli.eval"),
    Target("cogdiag.cli", "cmd_diagnose", "cli.diagnose"),
    Target("cogdiag.cli", "load_logs", "data.load_logs"),
    Target("cogdiag.cli", "load_qmatrix", "data.load_qmatrix"),
    Target("cogdiag.cli", "build_dataset", "data.build_dataset"),
    Target("cogdiag.cli", "split_per_student", "data.split_per_student"),
    Target("cogdiag.training", "split_per_student", "data.split_per_student"),
    Target("cogdiag.data:Dataset", "dense_q", "data.dense_q", post=_count_dense_q),
    Target("cogdiag.cli", "load_checkpoint", "checkpoint.load_checkpoint", pre=_count_loaded),
    Target("cogdiag.cli", "save_checkpoint", "checkpoint.save_checkpoint", post=_count_saved),
    Target("cogdiag.cli", "predict_split", "inference.predict_split"),
    Target("cogdiag.inference", "predict_split", "inference.predict_split"),
    Target("cogdiag.inference", "evaluate_store", "inference.evaluate_store"),
    Target("cogdiag.inference", "auc", "metrics.auc"),
    Target("cogdiag.inference", "calibration", "metrics.calibration"),
    Target("cogdiag.inference", "concept_interaction_counts", "inference.concept_interaction_counts"),
    Target("cogdiag.training:Trainer", "_epoch", "training.epoch"),
    Target("cogdiag.training", "draw_batch_noise", "training.draw_batch_noise"),
    Target("cogdiag.training", "sample_pairs", "training.sample_pairs", post=_count_pairs),
    Target("cogdiag.training", "build_batch_graph", "training.build_batch_graph"),
    Target("cogdiag.tape", "backprop", "tape.backprop", pre=_count_nodes),
    Target("cogdiag.training", "adam_step", "numerics.adam_step", pre=_count_adam_rows),
    Target("cogdiag.training", "clamp_ncd_weights", "diagnostics.clamp_ncd_weights"),
    Target("cogdiag.training:CorrectnessTracker", "update", "training.CorrectnessTracker.update"),
    Target("cogdiag.numerics:ParameterStore", "copy_params", "numerics.ParameterStore.copy_params"),
)


# --------------------------------------------------------------- tracer

class Tracer:
    """Spans and counts of one traced operation, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.hook_errors: list[str] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.process_time(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.process_time()
        self._stack.pop()

    def _hook(self, hook, span, *args) -> None:
        idx = self.open("trace.hook")
        try:
            hook(self, *args)
        except Exception as exc:  # a broken counter must not fail the operation
            self.hook_errors.append(f"{span}: {exc!r}")
        finally:
            self.close(idx)

    def _wrap(self, fn, target: Target):
        def traced(*args, **kwargs):
            if target.pre is not None:
                self._hook(target.pre, target.span, fn, args, kwargs)
            idx = self.open(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if target.post is not None:
                self._hook(target.post, target.span, fn, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Patch every target; returns the undo list for :meth:`uninstall`."""
        undo = []
        for target in TARGETS:
            module_name, _, class_name = target.owner.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
            except (ImportError, AttributeError):
                owner = None
            original = None if owner is None else owner.__dict__.get(target.attr)
            if original is None:
                self.missing.append(target.span)
                continue
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(self._wrap(original.func, target))
                replacement.__set_name__(owner, target.attr)
            else:
                replacement = self._wrap(original, target)
            setattr(owner, target.attr, replacement)
            undo.append((owner, target.attr, original))
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-name totals: time, self time and call count, plus counts.

        A span's self time is its duration minus its children's; calls are
        synchronous, so children never overlap.  Spans below
        ``inference.evaluate_store`` are also totalled under
        ``inference.evaluate_store.<name>``.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            keys = [name]
            if parent >= 0 and self.spans[parent][0] == "inference.evaluate_store":
                keys.append(f"inference.evaluate_store.{name}")
            for key in keys:
                total[key] += end - start
                self_time[key] += end - start - child[i]
                calls[key] += 1
        return {"total": total, "self": self_time, "calls": calls, "counts": Counter(self.counts),
                "missing": list(self.missing), "hook_errors": list(self.hook_errors)}
