"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 perfbench/collect.py --workloads cli,oracle,dynamics --seeds 1-10
                                 [--trace-seed 1] [--write perfbench/baseline.json]

Runs `perfbench/run.py` once per workload and seed, one run at a time,
with the run length from BENCHMARK.json. For every end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median against the metric's bound. With --trace-seed
it adds one traced run for the per-layer figures.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result line, plus its environment and named figures from the record."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(HERE, "out", f"run-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        record = json.load(fh)
    result["env"], result["named"] = record["env"], record["named"]
    return result


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="cli,oracle,dynamics")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--write", help="write the summary to this JSON file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": args.seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        results = [run(workload, seed, spec["run_seconds"], 0) for seed in args.seeds]
        rows = {}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "unit": results[0]["metrics"][name]["unit"],
                          "values": vals}
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{workload:9s} {name:12s} median {med:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}"
                  f"  spread {spread:7.4f}  bound {bound}", flush=True)
        named = {name: statistics.median(r["named"][name][0] for r in results)
                 for name in results[0]["named"]}
        summary.setdefault("env", results[0]["env"])
        summary["workloads"][workload] = {
            "metrics": rows,
            "named_medians": named,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
        }
        print(f"{workload:9s} failed {summary['workloads'][workload]['failed']}"
              f" correct {summary['workloads'][workload]['correct']}", flush=True)
    if args.trace_seed is not None:
        traced = run(args.workloads.split(",")[0], args.trace_seed, spec["run_seconds"], 1)
        summary["per_layer"] = {"seed": args.trace_seed, **traced["metrics"]}
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
