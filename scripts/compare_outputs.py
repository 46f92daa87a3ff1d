#!/usr/bin/env python3
"""Run one battery of macgame CLI calls on two source trees and compare the outputs.

Each tree is the directory put on PYTHONPATH, the `src` of a checkout. Per
scenario (default: the three shipped ones) the battery is every subcommand,
`dynamics` with exact payoffs, `dynamics` with Monte Carlo payoffs for
10 steps at 40,000 samples (several sampling blocks of
`macgame.evolution.MC_BLOCK` draws, the last one partial, so a fault at a
block boundary shows), and `dynamics` for 2,000 steps under the
replicator and under Smith with theta = 2, so that every flow is compared
whichever protocol the scenario sets (the shipped ones run BNN and Smith
with theta = 1). Every call is a fresh `python -m macgame` in its
own temporary directory; its stdout, stderr, exit code and both CSVs are
compared. `br` and `check-eq` are asked at 0.9 times the safe rates that
the new tree's `region` prints. Exits 1 naming every output that differs,
else 0.

    python scripts/compare_outputs.py ../parent/src src
    python scripts/compare_outputs.py OLD_SRC NEW_SRC scenarios/sym3.cfg
"""
import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SHIPPED = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.cfg"))
MONTE_CARLO = ["--set", "payoff_method=montecarlo", "--set", "steps=10",
               "--set", "samples=40000"]


def run(tree: Path, scenario: Path, argv: list) -> dict:
    """One CLI call; its outputs by name (the CSVs only when the call wrote them)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = ["--set", "trace_csv=trace.csv", "--set", "state_csv=state.csv"]
        proc = subprocess.run(
            [sys.executable, "-m", "macgame", "-s", str(scenario), *paths, *argv],
            cwd=tmp, capture_output=True, env={**os.environ, "PYTHONPATH": str(tree)})
        outputs = {"stdout": proc.stdout, "stderr": proc.stderr,
                   "exit code": str(proc.returncode).encode()}
        for name in ("trace.csv", "state.csv"):
            path = Path(tmp) / name
            outputs[name] = path.read_bytes() if path.exists() else None
    return outputs


def safe_rates(region_stdout: bytes) -> list:
    """0.9 times the safe rates r{i} listed by `region`, as CLI strings."""
    rates = [line.split("=")[1] for line in region_stdout.decode().splitlines()
             if line.startswith("r{")]
    return [format(0.9 * float(r), ".9g") for r in rates]


def battery(rates: list) -> list:
    """The argv of every call after `region`, `br` and `check-eq` asked at `rates`."""
    return [
        ["br", "--user", "1", "--others", ",".join(rates[1:])],
        ["check-eq", "--profile", ",".join(rates)],
        ["metrics"], ["normalized"], ["ess"], ["verify"],
        ["--set", "payoff_method=exact", "dynamics"],
        [*MONTE_CARLO, "dynamics"],
        ["--set", "protocol=replicator", "--set", "steps=2000", "dynamics"],
        ["--set", "protocol=smith", "--set", "theta=2", "--set", "steps=2000", "dynamics"],
    ]


def compare(old: Path, new: Path, scenario: Path) -> list:
    """Names of the outputs that differ between the two trees on this scenario."""
    calls = {"region": (run(old, scenario, ["region"]), run(new, scenario, ["region"]))}
    for argv in battery(safe_rates(calls["region"][1]["stdout"])):
        calls[" ".join(argv)] = (run(old, scenario, argv), run(new, scenario, argv))
    return [f"{scenario.name}: {call}: {name}" for call, (before, after) in calls.items()
            for name in before if before[name] != after[name]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", type=Path, help="source tree of the old program")
    parser.add_argument("new", type=Path, help="source tree of the new program")
    parser.add_argument("scenarios", type=Path, nargs="*", default=SHIPPED,
                        help="scenario files (default: the shipped ones)")
    args = parser.parse_args(argv)
    differ = []
    for scenario in args.scenarios:
        differ += compare(args.old.resolve(), args.new.resolve(), scenario.resolve())
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(args.scenarios)} scenario(s) compared, {len(differ)} output(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
