"""Compare a parent and a change checkout with identical benchmark code.

    python3 perfbench/compare.py --parent ../cogdiag-parent --change . \
        --workload train-mirt-small --seeds 1-10

Runs this directory's run.py against each checkout's sources (the
working directory of each run is that checkout), alternating which side
goes first, one seed per pair.  Prints, per metric, each side's median
and quartiles, how many pairs the change won, and a verdict:

* gain: the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's own quartile spread;
* regression: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json (end-to-end metrics only);
* unresolved: the parent's spread is wider than the bound, so "no
  worse" cannot be shown, unless every change run beats every parent run;
* same: none of the above.

Every run's result line is appended to .perfbench_work/compare-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout: Path, args, seed: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"run failed in {checkout} (seed {seed}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > q3 - q1:
        return "gain", wins
    if bound is None:
        return "same", wins
    if -sign * (c_med - p_med) > bound * abs(p_med):
        return "regression", wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (q3 - q1) > bound * abs(p_med) and not all_better:
        return "unresolved", wins
    return "same", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    log_path = Path(".perfbench_work") / f"compare-{args.workload}.jsonl"
    log_path.parent.mkdir(exist_ok=True)
    with open(log_path, "a", encoding="utf-8") as log:
        for i, seed in enumerate(seeds_of(args.seeds)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(sides[side], args, seed)
                results[side].append(result)
                log.write(json.dumps({"side": side, "seed": seed, **result}) + "\n")
                print(f"seed {seed} {side}: correct={result['correct']} failed={result['failed']}",
                      file=sys.stderr)

    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        print(f"{side}: {failed} of {attempted} operations failed")
    print(f"{'metric':56s} {'parent p50 [q1, q3]':>34s} {'change p50 [q1, q3]':>34s} wins  verdict")
    for metric in declared:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in results}
        if len(values["parent"]) < 2:
            sys.exit("need at least two seeds")
        cells = []
        for side in ("parent", "change"):
            q1, _, q3 = statistics.quantiles(values[side], n=4)
            cells.append(f"{statistics.median(values[side]):.5g} [{q1:.5g}, {q3:.5g}]")
        outcome, wins = verdict(values["parent"], values["change"], metric["better"], metric.get("bound"))
        print(f"{name:56s} {cells[0]:>34s} {cells[1]:>34s} {wins:2d}/{len(values['parent'])} {outcome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
