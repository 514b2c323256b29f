"""Per-layer metrics from the traced operations of one run.

Training layers are reported per training step (span time summed over
every traced train call, divided by all steps of those calls, phase one
included), so the step-level rows add up to the step time.  Validation
is reported per epoch.  Everything else is per operation: the median,
over the traced operations in which the span ran, of that operation's
total time in it.  Counts are per train call or per event and repeat
exactly for one seed.  A layer a workload never runs reports 0, and its
base count (``training.steps``, ``checkpoint.saves``...) says so.
"""

from __future__ import annotations

from workloads import median

STEP_SPANS = (
    "training.build_batch_graph",
    "tape.backprop",
    "training.draw_batch_noise",
    "training.sample_pairs",
    "training.CorrectnessTracker.update",
    "numerics.adam_step",
    "diagnostics.clamp_ncd_weights",
)

EPOCH_SPANS = {
    "inference.evaluate_store.s_per_epoch": "inference.evaluate_store",
    "inference.evaluate_store.predict_split.s_per_epoch":
        "inference.evaluate_store.inference.predict_split",
    "inference.evaluate_store.auc.s_per_epoch": "inference.evaluate_store.metrics.auc",
    "inference.evaluate_store.calibration.s_per_epoch":
        "inference.evaluate_store.metrics.calibration",
}

CALL_SPANS = (
    "data.load_logs",
    "data.load_qmatrix",
    "data.build_dataset",
    "data.split_per_student",
    "data.dense_q",
    "checkpoint.load_checkpoint",
    "checkpoint.save_checkpoint",
    "numerics.ParameterStore.copy_params",
    "inference.concept_interaction_counts",
)

# fixed here rather than read from cogdiag so metric names survive a rename
PARAMS = ("student_mu", "student_logvar", "exercise_diff", "exercise_disc",
          "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2", "mlp_w3", "mlp_b3")

PER_TRAIN_CALL = (
    "training.steps",
    "pairs.attempted",
    "pairs.surviving",
    *(f"adam.rows_updated.{p}" for p in PARAMS),
    *(f"adam.rows_held.{p}" for p in PARAMS),
)

PER_EVENT = {  # metric -> (byte count, event count)
    "checkpoint.bytes_written": ("checkpoint.bytes_written", "checkpoint.saves"),
    "checkpoint.bytes_read": ("checkpoint.bytes_read", "checkpoint.loads"),
    "data.dense_q.computed_bytes": ("data.dense_q.computed_bytes", "data.dense_q.builds"),
}


def _traced(session, kind=None):
    return [op for op in session.ops if op.traced and op.ok and kind in (None, op.kind)]


def per_layer(session, quality: dict) -> dict:
    m: dict = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    train = [op.trace for op in _traced(session, "train")]
    steps = sum(t["counts"]["training.steps"] for t in train)
    epochs = sum(t["calls"]["training.epoch"] for t in train)
    for span in STEP_SPANS:
        total = sum(t["total"][span] for t in train)
        put(f"{span}.ms_per_step", 1e3 * total / steps if steps else 0.0, "ms")
    put("training.epoch.self_s",
        sum(t["self"]["training.epoch"] for t in train) / epochs if epochs else 0.0, "s")
    for name, key in EPOCH_SPANS.items():
        put(name, sum(t["total"][key] for t in train) / epochs if epochs else 0.0, "s")

    traces = [op.trace for op in _traced(session)]
    for span in CALL_SPANS:
        put(f"{span}.s", median([t["total"][span] for t in traces if t["calls"][span]]), "s")
    # serving use only: predict_split calls made outside per-epoch validation
    put("inference.predict_split.s",
        median([t["total"]["inference.predict_split"]
                - t["total"]["inference.evaluate_store.inference.predict_split"]
                for t in (op.trace for op in _traced(session, "eval"))]), "s")
    for kind in ("train", "eval", "diagnose"):
        put(f"cli.{kind}.self_s",
            median([op.trace["self"][f"cli.{kind}"] for op in _traced(session, kind)]), "s")

    put("training.epochs", median([t["calls"]["training.epoch"] for t in train]), "count")
    for name in PER_TRAIN_CALL:
        put(name, median([t["counts"][name] for t in train]), "count")
    nodes = sum(t["counts"]["tape.nodes"] for t in train)
    graphs = sum(t["counts"]["tape.graphs"] for t in train)
    put("tape.nodes_per_step", nodes / graphs if graphs else 0.0, "count")
    for name, (amount, events) in PER_EVENT.items():
        put(name, median([t["counts"][amount] / t["counts"][events]
                          for t in traces if t["counts"][events]]), "B")

    for kind in ("train", "eval", "diagnose"):
        put(f"trace.overhead.{kind}_s",
            median([op.overhead_s for op in _traced(session, kind)]), "s")
    put("trace.missing_spans", len(missing(session)), "count")
    put("latent.recovery_rho", quality["recovery_rho"], "rho")
    put("latent.sigma_evidence_rho", quality["sigma_evidence_rho"], "rho")
    return m


def missing(session) -> list[str]:
    return sorted({name for op in _traced(session) for name in op.trace["missing"]})


def hook_errors(session) -> list[str]:
    return sorted({err for op in session.ops if op.traced for err in op.trace["hook_errors"]})
