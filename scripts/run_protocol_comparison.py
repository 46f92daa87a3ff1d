#!/usr/bin/env python3
"""Run all three protocols from one scenario and compare their convergence.

Each run is the scenario's own `macgame dynamics` run with only the
protocol changed. Writes one trace CSV per protocol next to the
scenario's configured path and prints final mean rates against the
equal-split target.

    python scripts/run_protocol_comparison.py scenarios/sym2.cfg --steps 20000
"""
import argparse
import dataclasses
import sys
from pathlib import Path

from macgame import build_view, simulate
from macgame.cli import write_trace
from macgame.dynamics import PROTOCOL_KINDS
from macgame.scenario import ScenarioError, build_model, build_run, build_utility, parse_scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scenario", help="scenario file")
    parser.add_argument("--steps", type=int, default=None, help="override step count")
    parser.add_argument("--k", type=float, default=None, help="override growth parameter")
    args = parser.parse_args(argv)

    # validated as `macgame --set` values are; a bad one exits 2 as the CLI does
    overrides = {key: repr(val) for key, val in (("steps", args.steps), ("k", args.k))
                 if val is not None}
    try:
        scenario = parse_scenario(Path(args.scenario).read_text(), overrides)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    view, g = build_view(build_model(scenario)), build_utility(scenario)
    target = view.total / view.m
    print(f"target mean rate (equal split): {target:.6f}")
    for kind in PROTOCOL_KINDS:
        try:
            run = build_run(dataclasses.replace(scenario, protocol=kind), view)
        except ValueError as exc:  # a theta below 1 is valid for every protocol but smith
            print(f"{kind:<10} skipped: {exc}")
            continue
        trace = simulate(view, g, run)
        out = Path(scenario.trace_csv).with_suffix(f".{kind}.csv")
        write_trace(str(out), trace)
        err = abs(trace.mean_rate[-1] - target)
        print(f"{kind:<10} final mean {trace.mean_rate[-1]:.6f}  "
              f"|err| {err:.2e}  residual {trace.velocity_l1[-1]:.2e}  -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
