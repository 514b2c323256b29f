"""cogdiag benchmark: one workload per process, run from the root of a checkout.

    python3 perfbench/run.py --workload train-mirt-small --seed 1 --seconds 15 --trace 0

Inputs are generated from --seed.  With --trace 0 the run measures the
end-to-end metrics with tracing off; with --trace 1 it runs every
operation untraced and then traced on the same inputs, requires both to
write the same bytes, and reports the per-layer metrics.  A readable
report (environment, host noise, sample counts, failures) is printed
first and written under .perfbench_work/; the last line of standard
output is the result object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: operations are timed in process
# CPU seconds, and idle BLAS workers spinning on a contended host would
# add CPU time that is not work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()


def import_program():
    """Import cogdiag from this checkout's sources, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "cogdiag" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src / 'cogdiag'} not found; run from the root of a cogdiag checkout")
    sys.path.insert(0, str(src))
    import cogdiag

    if Path(cogdiag.__file__).resolve().parent != (src / "cogdiag").resolve():
        sys.exit(f"perfbench: imported cogdiag from {cogdiag.__file__}, not from {src}")


def check_declared(metrics: dict, traced: bool) -> None:
    """The metrics printed must be exactly those BENCHMARK.json declares."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != declared:
        sys.exit(f"perfbench: metrics {sorted(set(printed) ^ set(declared))} disagree with BENCHMARK.json")


def distribution(values) -> dict:
    """Median, quartiles and sample count; a tail only with ten samples beyond it."""
    import statistics

    out = {"samples": len(values)}
    if not values:
        return out
    out["values"] = list(values)
    out["min"] = min(values)
    out["p50"] = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    for pct in (90, 99):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def end_to_end(session) -> tuple[dict, dict]:
    from workloads import median

    # serve-assist trains only in set-up, with zero epochs
    train_phase = "timed" if session.workload.train_in_loop else "setup"
    samples = {
        "setup_s": ("s", session.setup_s),
        "train_cpu_p50_s": ("s", session.times("train", train_phase)),
        "eval_cpu_p50_s": ("s", session.times("eval")),
        "diagnose_cpu_p50_s": ("s", session.times("diagnose")),
        "test_auc": ("auc", session.test_auc),
    }
    metrics = {name: {"value": median(vals), "unit": unit} for name, (unit, vals) in samples.items()}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    detail = {name: distribution(vals) for name, (unit, vals) in samples.items()}
    for kind in ("train", "eval", "diagnose"):
        phase = train_phase if kind == "train" else "timed"
        detail[f"{kind}_wall_s"] = distribution(session.times(kind, phase, clock="wall_s"))
    cfg = session.workload.config
    interactions = len(session.train_positions) * (cfg["pretrain_epochs"] + cfg["max_epochs"])
    detail["train_interactions_per_cpu_s"] = distribution(
        [interactions / t for t in session.times("train")])
    return metrics, detail


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import hostinfo
    import layers
    from workloads import WORKLOADS, Session

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    noise = hostinfo.NoiseRecord()
    session = Session(WORKLOADS[args.workload], args.seed)
    traced = bool(args.trace)

    problems = session.setup(1 if traced else session.workload.setup_repeats)
    if traced and not session.workload.train_in_loop:
        session.traced_twin(session.op_train, session.ops[-1])

    # the first operations in a process run slower; one untimed operation settles them
    session.phase = "warmup"
    session.cycle()[0]()

    session.phase = "timed"
    measured_s = session.run_loop(args.seconds, traced)
    try:
        quality = session.latent_quality()
    except Exception as exc:  # no readable checkpoint: a failed operation already says why
        problems.append(f"latent quality not computed: {exc!r}")
        quality = {"recovery_rho": 0.0, "sigma_evidence_rho": 0.0}

    if traced:
        metrics = layers.per_layer(session, quality)
        detail = {"missing_spans": layers.missing(session), "hook_errors": layers.hook_errors(session)}
    else:
        metrics, detail = end_to_end(session)
    check_declared(metrics, traced)
    failures = problems + session.failures()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "measured_s": measured_s,
        "environment": hostinfo.environment(),
        "noise": noise.finish(),
        "operations": {kind: len([op for op in session.ops if op.kind == kind])
                       for kind in ("train", "eval", "diagnose")},
        "latent_quality": quality,
        "detail": detail,
        "failures": failures,
    }
    result = {
        "correct": not failures,
        "attempted": len(session.ops),
        "failed": sum(not op.ok for op in session.ops),
        "metrics": metrics,
    }
    report["result"] = result
    report_path = session.work / f"report-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
