"""Command-line front end: one subcommand per analysis, CSV trace output.

Exit codes: 0 success, 1 analytic failure (the checked claim is false),
2 usage, input or output error. All numbers print with 9 significant digits.

Each call is a fresh interpreter, so its imports are part of its time. This
module imports only `capacity`, `game`, `scenario` and `specs` (the defaults)
at the top; a subcommand that runs a further module imports it in its own
function: `checks` for `verify`, `selection` for `normalized`, `evolution`
for `ess` and `dynamics` for `dynamics`.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import capacity as cap
from . import game
from .capacity import CapacityRegionView
from .game import Utility
from .scenario import (
    Scenario,
    ScenarioError,
    build_model,
    build_run,
    build_utility,
    dump_scenario,
    parse_scenario,
)
from .specs import EssTestSpec

if TYPE_CHECKING:
    from .dynamics import Trace
    from .evolution import PopulationState


def fmt(x: float) -> str:
    return format(float(x), ".9g")


def _label(subset) -> str:
    return "{" + ",".join(str(i + 1) for i in subset) + "}"


def _load_scenario(args) -> Scenario:
    text = ""
    if args.scenario:
        with open(args.scenario) as fh:
            text = fh.read()
    elif not args.set:
        raise ScenarioError(["no scenario given: use --scenario FILE and/or --set key=value"])
    overrides = {}
    for item in args.set or ():
        key, eq, val = item.partition("=")
        if not eq:
            raise ScenarioError([f"--set needs key=value, got '{item}'"])
        overrides[key.strip().lower()] = val.strip()
    return parse_scenario(text, overrides)


def _parse_rates(text: str) -> np.ndarray:
    return np.array([float(p) for p in text.split(",")])


def cmd_region(args, scenario: Scenario, view: CapacityRegionView, g: Utility) -> int:
    for subset, value in view.rank_table().items():
        print(f"C{_label(subset)} = {fmt(value)}")
    for i in range(view.m):
        print(f"r{_label((i,))} = {fmt(view.safe_rates[i])}")
    print(f"total = {fmt(view.total)}")
    if view.model.symmetric:
        print(f"symmetric equilibrium rate = {fmt(view.total / view.m)}")
    return 0


def cmd_br(args, scenario: Scenario, view: CapacityRegionView, g: Utility) -> int:
    user = args.user - 1
    if not 0 <= user < view.m:
        raise ValueError(f"user must be in 1..{view.m}")
    others = _parse_rates(args.others)
    br = game.best_response(view, g, user, others)
    print(f"best_response(user={args.user}) = {fmt(br)}")
    return 0


def cmd_check_eq(args, scenario: Scenario, view: CapacityRegionView, g: Utility) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    profile = _parse_rates(args.profile)
    nash = game.is_nash(view, g, profile, tol=args.tol)
    strong = game.is_strong_equilibrium(view, g, profile, tol=args.tol)
    pareto = game.is_pareto_optimal(view, g, profile, tol=args.tol)
    print(f"nash: {str(nash).lower()}, strong: {str(strong).lower()}, "
          f"pareto: {str(pareto).lower()}")
    print(f"max_face_residual = {fmt(cap.max_face_residual(view, profile))}")
    return 0 if nash else 1


def cmd_metrics(args, scenario: Scenario, view: CapacityRegionView, g: Utility) -> int:
    out = game.efficiency_metrics(view, g)
    print(f"spoa = {fmt(out['spoa'])}")
    print(f"pos = {fmt(out['pos'])}")
    print(f"social_opt = {fmt(out['social_opt'])}")
    return 0


def cmd_normalized(args, scenario: Scenario, view: CapacityRegionView, g: Utility) -> int:
    from . import selection as sel

    weights = _parse_rates(args.tau) if args.tau else None
    result = sel.normalized_equilibrium(view, sel.NormalizedEqConfig(g=g, weights=weights))
    print("profile = " + ",".join(fmt(v) for v in result.profile))
    print("zeta = " + ",".join(fmt(v) for v in result.multipliers))
    print(f"scale = {fmt(result.scale)}")
    print("tight_sets = " + ",".join(_label(J) for J in result.tight_sets))
    print("set_multipliers = " + ",".join(fmt(v) for v in result.set_multipliers))
    print(f"kkt_residual = {fmt(result.kkt_residual)}")
    try:
        cert = sel.goodman_certificate(view, g, result.profile * (1.0 - 1e-3), result.multipliers)
    except ValueError:
        return 0
    print(f"goodman_negative_definite = {str(cert.negative_definite).lower()}")
    return 0


def cmd_ess(args, scenario: Scenario, view: CapacityRegionView, g: Utility) -> int:
    from . import evolution as evo

    resident = args.resident if args.resident is not None else view.total / view.m
    result = evo.ess_check(view, g, EssTestSpec(resident=resident, mutant_grid=args.mutants))
    print(f"resident = {fmt(resident)}")
    print(f"ess = {str(result.is_ess).lower()}")
    if result.witness is not None:
        mut, eps = result.witness
        print(f"witness: mutant = {fmt(mut)}, epsilon = {fmt(eps)}")
    return 0 if result.is_ess else 1


def _write_csv(path: str, header: str, *columns) -> None:
    row = ",".join(["{:.17g}"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for values in zip(*columns):
            fh.write(row.format(*values))


def write_trace(path: str, trace: Trace) -> None:
    """Write a dynamics trace as CSV: t, mean_rate, avg_payoff, velocity_l1, mass_drift."""
    _write_csv(path, "t,mean_rate,avg_payoff,velocity_l1,mass_drift", trace.t,
               trace.mean_rate, trace.avg_payoff, trace.velocity_l1, trace.mass_drift)


# The name perfbench/tracing.py times the writer under.
_write_trace = write_trace


def _write_state(path: str, state: PopulationState) -> None:
    _write_csv(path, "grid_value,mass", state.grid, state.masses)


def cmd_dynamics(args, scenario: Scenario, view: CapacityRegionView, g: Utility) -> int:
    from . import dynamics as dyn

    run = build_run(scenario, view)
    for path in (scenario.trace_csv, scenario.state_csv):
        open(path, "a").close()   # an unwritable output fails here, not after the run
    if os.path.samefile(scenario.trace_csv, scenario.state_csv):
        # the state would overwrite the trace
        raise ValueError(f"trace_csv '{scenario.trace_csv}' and state_csv "
                         f"'{scenario.state_csv}' are the same file")
    trace = dyn.simulate(view, g, run)
    write_trace(scenario.trace_csv, trace)
    _write_state(scenario.state_csv, trace.final_state)
    print(f"steps = {run.steps}")
    print(f"final mean_rate = {fmt(trace.mean_rate[-1])}")
    print(f"final velocity_l1 = {fmt(trace.velocity_l1[-1])}")
    print(f"max mass drift = {fmt(trace.max_drift)}")
    print(f"trace written to {scenario.trace_csv}")
    print(f"final state written to {scenario.state_csv}")
    return 0


def cmd_verify(args, scenario: Scenario, view: CapacityRegionView, g: Utility) -> int:
    from . import checks

    records = checks.run(scenario, view, g)
    for rec in records:
        status = "skip" if rec.verdict is None else "ok  " if rec.verdict else "FAIL"
        print(f"{status} {rec.name}: {rec.detail}")
    verdicts = [rec.verdict for rec in records]
    print(f"passed {verdicts.count(True)}, failed {verdicts.count(False)}, "
          f"skipped {verdicts.count(None)}")
    return 0 if False not in verdicts else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macgame",
        description="Rate-allocation game analysis on Gaussian multiple-access channels",
    )
    parser.add_argument("-s", "--scenario", help="scenario file (key = value lines)")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override or supply a scenario key")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the parsed scenario and exit")
    sub = parser.add_subparsers(dest="command")

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)   # main calls args.func
        return p

    command("region", cmd_region, "print all subset capacities and safe rates")

    p_br = command("br", cmd_br, "best response for one user")
    p_br.add_argument("--user", type=int, required=True, help="1-based user index")
    p_br.add_argument("--others", required=True,
                      help="comma-separated rates of the remaining users")

    p_eq = command("check-eq", cmd_check_eq, "nash/strong/pareto verdicts for a profile")
    p_eq.add_argument("--profile", required=True, help="comma-separated rates")
    p_eq.add_argument("--tol", type=float, default=1e-6,
                      help="tolerance of every verdict: best-reply gap in rates for nash, "
                           "payoff gain for strong and pareto (default 1e-6)")

    command("metrics", cmd_metrics,
            "strong price of anarchy, price of stability, social optimum")

    p_no = command("normalized", cmd_normalized, "normalized equilibrium via the KKT system")
    p_no.add_argument("--tau", help="comma-separated positive weights (default all 1)")

    p_es = command("ess", cmd_ess, "constrained ESS invasion test")
    p_es.add_argument("--resident", type=float, help="resident rate (default C(N)/m)")
    p_es.add_argument("--mutants", type=int, default=EssTestSpec.mutant_grid,
                      help="mutant grid points (default %(default)s)")

    command("dynamics", cmd_dynamics, "simulate the configured protocol, write CSV traces")
    command("verify", cmd_verify, "run the invariant suite for this scenario")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # every input or output problem, the scenario's included, is a clean exit 2
    try:
        scenario = _load_scenario(args)
        if args.dump_config:
            print(dump_scenario(scenario), end="")
            return 0
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        view = cap.build_view(build_model(scenario))
        return args.func(args, scenario, view, build_utility(scenario))
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
