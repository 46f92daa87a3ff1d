"""Command-line front end: one subcommand per analysis, CSV trace output.

Exit codes: 0 success, 1 analytic failure (the checked claim is false),
2 usage, input or output error. All numbers print with 9 significant digits.
"""
from __future__ import annotations

import argparse
import itertools
import math
import sys

import numpy as np

from . import capacity as cap
from . import dynamics as dyn
from . import evolution as evo
from . import game
from . import selection as sel
from .capacity import CapacityRegionView
from .game import Utility
from .scenario import (
    Scenario,
    ScenarioError,
    build_model,
    build_protocol,
    build_utility,
    dump_scenario,
    parse_scenario,
)

# Named substreams of the scenario seed, so each analysis draws
# independently but reproducibly.
_SUBSTREAM = {"face": 0, "montecarlo": 1, "dynamics": 2, "weights": 3}


def substream_seed(seed: int, name: str) -> int:
    seq = np.random.SeedSequence(seed, spawn_key=(_SUBSTREAM[name],))
    return int(seq.generate_state(1)[0])


def fmt(x: float) -> str:
    return format(float(x), ".9g")


def _random_mixed_state(rng, grid: np.ndarray, mean_cap: float) -> "evo.PopulationState":
    """Full-support random state inside the mixed region (mean below `mean_cap`).

    States with no feasible action at all are frozen by the gating and so
    are vacuous rest points; probes for false rest points must stay inside
    the region.
    """
    masses = rng.dirichlet(np.ones(grid.size))
    masses = np.maximum(masses, 1e-6)
    masses /= masses.sum()
    mean = float(np.dot(grid, masses))
    target = mean_cap * rng.uniform(0.5, 0.95)
    if mean > target:
        t = 1.0 - target / mean
        floor = np.zeros(grid.size)
        floor[0] = 1.0
        masses = (1.0 - t) * masses + t * floor
    return evo.PopulationState(grid, masses)


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
    resident = args.resident if args.resident is not None else view.total / view.m
    result = evo.ess_check(view, g, evo.EssTestSpec(resident=resident, mutant_grid=args.mutants))
    print(f"resident = {fmt(resident)}")
    print(f"ess = {str(result.is_ess).lower()}")
    if result.witness is not None:
        mut, eps = result.witness
        print(f"witness: mutant = {fmt(mut)}, epsilon = {fmt(eps)}")
    return 0 if result.is_ess else 1


def dynamics_run(scenario: Scenario, view: CapacityRegionView) -> dyn.DynamicsRun:
    """The scenario's `dynamics` run on this channel: uniform start on its action grid."""
    include = view.total / view.m if view.model.symmetric else None
    grid = evo.make_grid(float(view.single_caps.max()), scenario.grid_points,
                         include=include)
    return dyn.DynamicsRun(
        protocol=build_protocol(scenario),
        state0=evo.PopulationState.uniform(grid),
        dt=scenario.dt,
        steps=scenario.steps,
        record_every=scenario.record_every,
        seed=substream_seed(scenario.seed, "dynamics"),
        payoff_method=scenario.payoff_method,
        samples=scenario.samples,
    )


def _write_csv(path: str, header: str, *columns) -> None:
    row = ",".join(["{:.17g}"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for values in zip(*columns):
            fh.write(row.format(*values))


def write_trace(path: str, trace: dyn.Trace) -> None:
    """Write a dynamics trace as CSV: t, mean_rate, avg_payoff, velocity_l1, mass_drift."""
    _write_csv(path, "t,mean_rate,avg_payoff,velocity_l1,mass_drift", trace.t,
               trace.mean_rate, trace.avg_payoff, trace.velocity_l1, trace.mass_drift)


# The name perfbench/tracing.py times the writer under.
_write_trace = write_trace


def _write_state(path: str, state: evo.PopulationState) -> None:
    _write_csv(path, "grid_value,mass", state.grid, state.masses)


def cmd_dynamics(args, scenario: Scenario, view: CapacityRegionView, g: Utility) -> int:
    run = dynamics_run(scenario, view)
    for path in (scenario.trace_csv, scenario.state_csv):
        open(path, "a").close()   # an unwritable output fails here, not after the run
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


def _verify_checks(scenario: Scenario, view: CapacityRegionView, g: Utility):
    m = view.m
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(scenario.seed)))

    def check_capacity_identities():
        for _ in range(200):
            mm = int(rng.integers(1, 7))
            trial = cap.ChannelModel(rng.uniform(0.05, 30.0, size=mm))
            full = range(mm)
            for i in range(mm):
                lhs = cap.safe_rate(trial, i, full)
                rhs = cap.capacity_of(trial, full) - (
                    cap.capacity_of(trial, [j for j in full if j != i]) if mm > 1 else 0.0)
                if abs(lhs - rhs) > 1e-12:
                    return False, f"identity off by {abs(lhs - rhs):.2e}"
        if m > cap.MAX_ENUM_USERS:
            return True, (f"200 random models; skipped exhaustive rank checks: "
                          f"2^m enumeration needs m <= {cap.MAX_ENUM_USERS}")
        caps = view.cap
        masks = np.arange(caps.size)
        for i in range(m):
            base = masks[(masks >> i) & 1 == 0]
            if np.any(caps[base] - 1e-12 > caps[base | (1 << i)]):
                return False, "monotonicity violated"
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                base = masks[((masks >> i) & 1 == 0) & ((masks >> j) & 1 == 0)]
                lhs = caps[base | (1 << i)] - caps[base]
                rhs = caps[base | (1 << i) | (1 << j)] - caps[base | (1 << j)]
                if np.any(rhs - lhs > 1e-12):
                    return False, "submodularity violated"
        return True, "200 random models + exhaustive rank checks"

    def check_nash_face():
        pts = [cap.sample_max_face(view, 100, seed=substream_seed(scenario.seed, "face"))]
        noise = rng.normal(0.0, 0.05, size=(100, m))
        pts.append(np.maximum(pts[0] + noise, 0.0))
        pts = np.concatenate(pts)
        for p in pts:
            if game.is_nash(view, g, p) != (cap.max_face_residual(view, p) == 0.0):
                return False, f"disagreement at {p}"
        return True, f"{pts.shape[0]} profiles, zero disagreements"

    def check_potential():
        base = cap.sample_max_face(view, 200, seed=substream_seed(scenario.seed, "face"))
        alphas = base * rng.uniform(0.2, 1.0, size=(200, 1))
        for alpha in alphas:
            j = int(rng.integers(m))
            beta = alpha.copy()
            beta[j] = rng.uniform(0.0, view.safe_rates[j])
            if not (cap.is_feasible(view, alpha) and cap.is_feasible(view, beta)):
                continue
            lhs = game.potential(view, g, alpha) - game.potential(view, g, beta)
            rhs = float(g(alpha[j]) - g(beta[j]))
            if abs(lhs - rhs) > 1e-12:
                return False, f"potential identity off by {abs(lhs - rhs):.2e}"
        return True, "200 random feasible pairs"

    def check_best_response():
        for _ in range(20):
            pt = cap.sample_max_face(view, 1, seed=int(rng.integers(2**31)))[0]
            pt *= rng.uniform(0.3, 1.0)
            user = int(rng.integers(m))
            others = np.delete(pt, user)
            br = game.best_response(view, g, user, others)
            ys = np.linspace(0.0, float(view.single_caps[user]), 2000)
            trials = np.tile(pt, (ys.size, 1))
            trials[:, user] = ys
            pays = np.where(cap.feasible_rows(view, trials), g(ys), 0.0)
            best = max(0.0, float(pays.max()))
            got = game.payoff(view, g, np.insert(others, user, br), user)
            if got + 1e-9 < best:
                return False, f"best response beaten by grid ({got} < {best})"
        return True, "20 instances vs 2000-point grid search"

    def check_efficiency():
        out, tol = game.efficiency_metrics(view, g), 1e-12
        ok = out["pos"] == 1.0 and out["spoa"] <= 1.0 + tol
        if m > cap.MAX_VERTEX_USERS:
            return ok, (f"pos = 1, spoa <= 1 (tol {tol:g}); skipped m! vertex comparison: "
                        f"listing needs m <= {cap.MAX_VERTEX_USERS}")
        orders = view.model.snr[list(itertools.permutations(range(m)))]
        gap = abs(out["spoa"] * out["social_opt"] / game.greedy_welfare(g, orders).min() - 1.0)
        return ok and gap <= tol, (f"pos = 1, spoa vs worst of all m! vertices: relative gap "
                                   f"{gap:.2e} (tol {tol:g})")

    def check_normalized():
        # the certificate re-checked on the 2^m table, for tau = 1 and one seeded tau
        gg = g if g.kind != "identity" else game.Utility.log1p()
        tol, worst, ok = 1e-12, 0.0, True
        enum = m <= cap.MAX_ENUM_USERS
        wrng = np.random.Generator(np.random.Philox(substream_seed(scenario.seed, "weights")))
        for tau in (np.ones(m), np.exp(wrng.uniform(-1.0, 1.0, size=m))):
            res = sel.normalized_equilibrium(view, sel.NormalizedEqConfig(g=gg, weights=tau))
            covered = np.zeros(m)
            for J, lam in zip(res.tight_sets, res.set_multipliers):
                covered[list(J)] += lam
                if enum:
                    worst = max(worst, abs(res.profile[list(J)].sum()
                                           - view.cap[sum(1 << j for j in J)]))
            worst = max(worst, float(np.max(np.abs(covered / (tau * res.multipliers) - 1.0))))
            if enum:
                worst = max(worst, float(np.max(cap.subset_sums(res.profile) - view.cap)))
            ok = ok and res.tight_sets[-1] == tuple(range(m)) and min(res.set_multipliers) >= 0
            if view.model.symmetric and np.all(tau == 1.0):
                ok = ok and bool(np.all(np.abs(res.profile - view.total / m) < 1e-9))
        if not enum:
            return ok and worst <= tol, (
                f"multiplier cover gap {worst:.2e} (tol {tol:g}); skipped 2^m certificate: "
                f"enumeration needs m <= {cap.MAX_ENUM_USERS}")
        return ok and worst <= tol, f"2^m certificate gap {worst:.2e} (tol {tol:g})"

    def check_ess():
        if not view.model.symmetric:
            return None, "asymmetric channel, not applicable"
        spec = evo.EssTestSpec(resident=view.total / m, mutant_grid=40)
        good = evo.ess_check(view, g, spec)
        spec_bad = evo.EssTestSpec(resident=0.9 * view.total / m, mutant_grid=40)
        bad = evo.ess_check(view, g, spec_bad)
        ok = good.is_ess and not bad.is_ess and bad.witness is not None
        return ok, "equal split stable, 0.9x split invaded"

    def check_rest_points():
        if not view.model.symmetric:
            return None, "asymmetric channel, not applicable"
        rstar = view.total / m
        grid = evo.make_grid(float(view.single_caps.max()), min(scenario.grid_points, 51),
                             include=rstar)
        rows = evo.exact_rows(view, grid.size)
        if rows > evo.EXACT_ENUM_LIMIT:
            return None, f"exact table needs {rows} rows (> {evo.EXACT_ENUM_LIMIT})"
        table = dyn.PayoffTable(view, g, grid)
        dirac = evo.PopulationState.dirac(grid, rstar)
        for proto in (dyn.Protocol.bnn(), dyn.Protocol.replicator(),
                      dyn.Protocol.smith(scenario.theta if scenario.theta >= 1 else 1.0),
                      dyn.Protocol.smith(2.0)):
            if dyn.rest_point_residual(view, g, proto, dirac, table=table) >= 1e-8:
                return False, f"Dirac residual not zero for {proto.kind}"
        # a random state's velocity scales with K * max|F| * C({1}) (BNN, K = 1)
        for _ in range(5):
            state = _random_mixed_state(rng, grid, rstar)
            scale = float(np.abs(table.payoffs(state.masses)).max()) * grid[-1]
            if dyn.rest_point_residual(view, g, dyn.Protocol.bnn(), state,
                                       table=table) <= 1e-6 * scale:
                return False, "random full-support state looks like a rest point"
        return True, ("Dirac rest for all protocols (residual < 1e-8), random states move "
                      "(residual > 1e-6 K max|F| C({1}))")

    def check_mc_payoffs():
        if m > 3:
            return None, "m > 3, exact oracle too large"
        grid = np.linspace(0.0, float(view.single_caps.max()), 21)
        hits = 0
        trials, samples, z = 20, 20_000, 3.0
        for t in range(trials):
            masses = rng.dirichlet(np.ones(grid.size))
            state = evo.PopulationState(grid, masses)
            a = float(rng.uniform(0.0, grid[-1]))
            exact = evo.expected_payoff(view, g, a, state)
            mc, _ = evo.expected_payoff_mc(
                view, g, a, state, samples=samples,
                seed=substream_seed(scenario.seed, "montecarlo") + t)
            ga = float(g(a))
            nu, p_hat = (exact / ga, mc / ga) if ga > 0.0 else (0.0, 0.0)
            # Wilson score interval: unlike p_hat +- z se it keeps its width at p_hat in {0, 1};
            # its end sits exactly at 0 (or 1) there, so a 1e-12 slack absorbs the rounding
            shrink = 1.0 + z * z / samples
            centre = (p_hat + z * z / (2 * samples)) / shrink
            half = z / shrink * math.sqrt(p_hat * (1.0 - p_hat) / samples
                                          + z * z / (4 * samples * samples))
            if abs(nu - centre) <= half + 1e-12:
                hits += 1
        return hits >= trials - 1, (f"{hits}/{trials} exact nu in the Wilson interval "
                                    f"(z = {z:g}, slack 1e-12)")

    return [
        ("capacity-identities", check_capacity_identities),
        ("nash-face-equivalence", check_nash_face),
        ("potential-identity", check_potential),
        ("best-response-argmax", check_best_response),
        ("efficiency-metrics", check_efficiency),
        ("normalized-equilibrium", check_normalized),
        ("ess-invasion", check_ess),
        ("rest-points", check_rest_points),
        ("montecarlo-payoffs", check_mc_payoffs),
    ]


def cmd_verify(args, scenario: Scenario, view: CapacityRegionView, g: Utility) -> int:
    passed = failed = skipped = 0
    for name, fn in _verify_checks(scenario, view, g):
        ok, detail = fn()
        if ok is None:
            skipped += 1
            print(f"skip {name}: {detail}")
        elif ok:
            passed += 1
            print(f"ok   {name}: {detail}")
        else:
            failed += 1
            print(f"FAIL {name}: {detail}")
    print(f"passed {passed}, failed {failed}, skipped {skipped}")
    return 0 if failed == 0 else 1


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

    sub.add_parser("region", help="print all subset capacities and safe rates")

    p_br = sub.add_parser("br", help="best response for one user")
    p_br.add_argument("--user", type=int, required=True, help="1-based user index")
    p_br.add_argument("--others", required=True,
                      help="comma-separated rates of the remaining users")

    p_eq = sub.add_parser("check-eq", help="nash/strong/pareto verdicts for a profile")
    p_eq.add_argument("--profile", required=True, help="comma-separated rates")
    p_eq.add_argument("--tol", type=float, default=1e-6,
                      help="tolerance of every verdict: best-reply gap in rates for nash, "
                           "payoff gain for strong and pareto (default 1e-6)")

    sub.add_parser("metrics", help="strong price of anarchy, price of stability, social optimum")

    p_no = sub.add_parser("normalized", help="normalized equilibrium via the KKT system")
    p_no.add_argument("--tau", help="comma-separated positive weights (default all 1)")

    p_es = sub.add_parser("ess", help="constrained ESS invasion test")
    p_es.add_argument("--resident", type=float, help="resident rate (default C(N)/m)")
    p_es.add_argument("--mutants", type=int, default=evo.EssTestSpec.mutant_grid,
                      help="mutant grid points (default %(default)s)")

    sub.add_parser("dynamics", help="simulate the configured protocol, write CSV traces")
    sub.add_parser("verify", help="run the invariant suite for this scenario")
    return parser


_COMMANDS = {
    "region": cmd_region,
    "br": cmd_br,
    "check-eq": cmd_check_eq,
    "metrics": cmd_metrics,
    "normalized": cmd_normalized,
    "ess": cmd_ess,
    "dynamics": cmd_dynamics,
    "verify": cmd_verify,
}


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
        return _COMMANDS[args.command](args, scenario, view, build_utility(scenario))
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
