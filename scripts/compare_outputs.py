#!/usr/bin/env python3
"""Run one battery of macgame CLI calls on two source trees and compare the outputs.

Each tree is the directory put on PYTHONPATH, the `src` of a checkout. Per
scenario the battery is every subcommand,
`dynamics` with exact payoffs, `dynamics` with Monte Carlo payoffs for
10 steps at 40,000 samples (on the listing route, one multinomial over the
runs of the exact listing, up to symmetric m = 4 and at m = 5 with two SNR
classes, whose 37,191 rows are no more than the draws; on the per-draw route
at asymmetric m = 5, whose 194,481 rows outnumber the draws, in several
blocks of `macgame.evolution.MC_BLOCK` draws, the last one partial, so a
fault at a block boundary shows), and `dynamics` for 2,000 steps under the
replicator and under Smith with theta = 2, so that every flow is compared
whichever protocol the scenario sets (the shipped ones run BNN and Smith
with theta = 1). Every call is a fresh `python -m macgame` in its
own temporary directory; its stdout, stderr, exit code and both CSVs are
compared. `br` and `check-eq` are asked at 0.9 times the safe rates that
the new tree's `region` prints. Exits 1 naming every output that differs,
with the first old/new line pair that differs in it (so a by-design change
shows which lines moved) and, for a CSV, its largest absolute cell
difference and where it is (so a change in the last bits reads as one
number), else 0.

The default scenarios are the three shipped files and three `--set` variants
of them (VARIANTS), each on 21 grid points with 200 `steps`. Exact payoffs
list sorted opponent multisets within each SNR class: symmetric m = 4
(p = 3) is one class; asymmetric m = 5 with SNRs that all differ lists its
194,481 ordered tuples, which span three `macgame.evolution.EXACT_BLOCK_ROWS`
blocks; and m = 5 with two SNR classes (0.8 twice, 0.6 three times) lists
37,191 rows in place of those 194,481. All three run `verify`'s
`montecarlo-payoffs`, which the shipped files run only up to m = 3.

    python scripts/compare_outputs.py ../parent/src src
    python scripts/compare_outputs.py OLD_SRC NEW_SRC scenarios/sym3.cfg
"""
import argparse
import csv
import io
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = sorted(SCENARIOS.glob("*.cfg"))
SHORT = ["--set", "grid_points=21", "--set", "steps=200"]
# (scenario file, the --set options put before each call's own); the m = 5 SNRs are low
# enough that the uniform start's mixed-region gate holds actions, so those runs move
VARIANTS = [
    (SCENARIOS / "sym3.cfg", ["--set", "m=4", "--set", "p=3", "--set", "sigma2=1", *SHORT]),
    (SCENARIOS / "asym2.cfg", ["--set", "m=5", "--set", "snr=1,0.9,0.8,0.7,0.6", *SHORT]),
    (SCENARIOS / "asym2.cfg", ["--set", "m=5", "--set", "snr=0.8,0.8,0.6,0.6,0.6", *SHORT]),
]
MONTE_CARLO = ["--set", "payoff_method=montecarlo", "--set", "steps=10",
               "--set", "samples=40000"]


def run(tree: Path, scenario: tuple, argv: list) -> dict:
    """One CLI call on a (file, --set options) scenario; its outputs by name (the CSVs only
    when the call wrote them)."""
    path, options = scenario
    with tempfile.TemporaryDirectory() as tmp:
        paths = ["--set", "trace_csv=trace.csv", "--set", "state_csv=state.csv"]
        proc = subprocess.run(
            [sys.executable, "-m", "macgame", "-s", str(path), *options, *paths, *argv],
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


def first_difference(before, after) -> str:
    """The first old/new line pair that differs between two outputs (None: not written)."""
    lines = [[] if out is None else out.decode(errors="replace").splitlines()
             for out in (before, after)]
    for number, (old, new) in enumerate(itertools.zip_longest(*lines), 1):
        if old != new:
            return f"\n    old line {number}: {old}\n    new line {number}: {new}"
    return "\n    (the lines agree; only the line endings differ)"


def largest_difference(before, after) -> str:
    """The largest absolute difference between two CSVs' numeric cells, with its line and
    column (empty unless both were written with the same shape and a numeric cell moved)."""
    if before is None or after is None:
        return ""
    old, new = (list(csv.reader(io.StringIO(out.decode(errors="replace"))))
                for out in (before, after))
    if [len(row) for row in old] != [len(row) for row in new]:
        return ""
    largest = None
    for number, (old_row, new_row) in enumerate(zip(old, new), 1):
        for column, (x, y) in enumerate(zip(old_row, new_row)):
            try:
                diff = abs(float(x) - float(y))
            except ValueError:
                continue
            if x != y and (largest is None or diff > largest[0]):
                largest = (diff, number, old[0][column])
    if largest is None:
        return ""
    return f"\n    largest cell difference {largest[0]:.3g}, line {largest[1]}, column {largest[2]}"


def compare(old: Path, new: Path, scenario: tuple) -> list:
    """Each output that differs between the two trees on this (file, --set options)
    scenario, named, with its first differing line pair (and a CSV's largest cell
    difference)."""
    calls = {"region": (run(old, scenario, ["region"]), run(new, scenario, ["region"]))}
    for argv in battery(safe_rates(calls["region"][1]["stdout"])):
        calls[" ".join(argv)] = (run(old, scenario, argv), run(new, scenario, argv))
    label = " ".join([scenario[0].name, *scenario[1][1::2]])
    return [f"{label}: {call}: {name}{first_difference(before[name], after[name])}"
            + (largest_difference(before[name], after[name]) if name.endswith(".csv") else "")
            for call, (before, after) in calls.items()
            for name in before if before[name] != after[name]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", type=Path, help="source tree of the old program")
    parser.add_argument("new", type=Path, help="source tree of the new program")
    parser.add_argument("scenarios", type=Path, nargs="*",
                        help="scenario files (default: the shipped ones and VARIANTS)")
    args = parser.parse_args(argv)
    scenarios = ([(path.resolve(), []) for path in args.scenarios]
                 or [(path, []) for path in SHIPPED] + VARIANTS)
    differ = []
    for scenario in scenarios:
        differ += compare(args.old.resolve(), args.new.resolve(), scenario)
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(scenarios)} scenario(s) compared, {len(differ)} output(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
