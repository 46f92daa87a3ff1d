"""The `verify` battery: nine checks, each a function of (scenario, view, g, rng) returning
one `Check` record whose detail states the tolerance `tol` that decided its verdict. `run`
calls them in order on one generator seeded by the scenario, so every draw is fixed per seed.
"""
import itertools
import math
from typing import NamedTuple, Optional

import numpy as np

from . import capacity as cap
from . import dynamics as dyn
from . import evolution as evo
from . import game
from . import selection as sel
from .scenario import substream_seed

MC_EXACT_ROWS = 1 << 18   # the largest exact listing `montecarlo-payoffs` builds


class Check(NamedTuple):
    name: str
    verdict: Optional[bool]    # None: skipped
    detail: str
    tol: float


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
        masses = (1.0 - t) * masses
        masses[0] += t   # mix in a share t of the Dirac at grid[0]
    return evo.PopulationState(grid, masses)


def capacity_identities(scenario, view, g, rng) -> Check:
    name, m, tol = "capacity-identities", view.m, 1e-12
    for _ in range(200):
        mm = int(rng.integers(1, 7))
        trial = cap.ChannelModel(rng.uniform(0.05, 30.0, size=mm))
        full = range(mm)
        grand = cap.capacity_of(trial, full)
        for i in range(mm):
            rest = cap.capacity_of(trial, [j for j in full if j != i]) if mm > 1 else 0.0
            lhs, rhs = cap.safe_rate(trial, i, full), grand - rest
            if abs(lhs - rhs) > tol:
                return Check(name, False, f"identity off by {abs(lhs - rhs):.2e} (tol {tol:g})",
                             tol)
    if m > cap.MAX_ENUM_USERS:
        return Check(name, True, (f"200 random models (tol {tol:g}); skipped exhaustive rank "
                                  f"checks: 2^m enumeration needs m <= {cap.MAX_ENUM_USERS}"), tol)
    caps = view.cap
    masks = np.arange(caps.size)
    for i in range(m):
        base = masks[(masks >> i) & 1 == 0]
        if np.any(caps[base] - tol > caps[base | (1 << i)]):
            return Check(name, False, f"monotonicity violated (tol {tol:g})", tol)
    for i, j in itertools.permutations(range(m), 2):
        base = masks[((masks >> i) & 1 == 0) & ((masks >> j) & 1 == 0)]
        lhs = caps[base | (1 << i)] - caps[base]
        rhs = caps[base | (1 << i) | (1 << j)] - caps[base | (1 << j)]
        if np.any(rhs - lhs > tol):
            return Check(name, False, f"submodularity violated (tol {tol:g})", tol)
    return Check(name, True, f"200 random models + exhaustive rank checks (tol {tol:g})", tol)


def nash_face_equivalence(scenario, view, g, rng) -> Check:
    name, tol = "nash-face-equivalence", game.NASH_TOL
    pts = [cap.sample_max_face(view, 100, seed=substream_seed(scenario.seed, "face"))]
    noise = rng.normal(0.0, 0.05, size=(100, view.m))
    pts.append(np.maximum(pts[0] + noise, 0.0))
    pts = np.concatenate(pts)
    for p in pts:
        if game.is_nash(view, g, p) != (cap.max_face_residual(view, p) == 0.0):
            return Check(name, False, f"disagreement at {p} (tol {tol:g})", tol)
    return Check(name, True, f"{pts.shape[0]} profiles, zero disagreements (tol {tol:g})", tol)


def potential_identity(scenario, view, g, rng) -> Check:
    name, tol = "potential-identity", 1e-12
    base = cap.sample_max_face(view, 200, seed=substream_seed(scenario.seed, "face"))
    alphas = base * rng.uniform(0.2, 1.0, size=(200, 1))
    for alpha in alphas:
        j = int(rng.integers(view.m))
        beta = alpha.copy()
        beta[j] = rng.uniform(0.0, view.safe_rates[j])
        if not (cap.is_feasible(view, alpha) and cap.is_feasible(view, beta)):
            continue
        lhs = game.potential(view, g, alpha) - game.potential(view, g, beta)
        rhs = float(g(alpha[j]) - g(beta[j]))
        if abs(lhs - rhs) > tol:
            return Check(name, False, f"off by {abs(lhs - rhs):.2e} (tol {tol:g})", tol)
    return Check(name, True, f"200 random feasible pairs (tol {tol:g})", tol)


def best_response_argmax(scenario, view, g, rng) -> Check:
    name, tol = "best-response-argmax", 1e-9
    for _ in range(20):
        pt = cap.sample_max_face(view, 1, seed=int(rng.integers(2**31)))[0]
        pt *= rng.uniform(0.3, 1.0)
        user = int(rng.integers(view.m))
        others = np.delete(pt, user)
        br = game.best_response(view, g, user, others)
        ys = np.linspace(0.0, float(view.single_caps[user]), 2000)
        trials = np.tile(pt, (ys.size, 1))
        trials[:, user] = ys
        pays = np.where(cap.feasible_rows(view, trials), g(ys), 0.0)
        best = max(0.0, float(pays.max()))
        got = game.payoff(view, g, np.insert(others, user, br), user)
        if got + tol < best:
            return Check(name, False, (f"best response beaten by grid ({got} < {best}, "
                                       f"tol {tol:g})"), tol)
    return Check(name, True, f"20 instances vs 2000-point grid search (tol {tol:g})", tol)


def efficiency_metrics(scenario, view, g, rng) -> Check:
    name, m = "efficiency-metrics", view.m
    out, tol = game.efficiency_metrics(view, g), 1e-12
    ok = bool(out["pos"] == 1.0 and out["spoa"] <= 1.0 + tol)
    if m > cap.MAX_VERTEX_USERS:
        return Check(name, ok, (f"pos = 1, spoa <= 1 (tol {tol:g}); skipped m! vertex "
                                f"comparison: listing needs m <= {cap.MAX_VERTEX_USERS}"), tol)
    orders = view.model.snr[list(itertools.permutations(range(m)))]
    gap = abs(out["spoa"] * out["social_opt"] / game.greedy_welfare(g, orders).min() - 1.0)
    return Check(name, ok and bool(gap <= tol), (f"pos = 1, spoa vs worst of all m! vertices: "
                                                  f"relative gap {gap:.2e} (tol {tol:g})"), tol)


def normalized_equilibrium(scenario, view, g, rng) -> Check:
    # the certificate re-checked on the 2^m table, for tau = 1 and one seeded tau
    name, m = "normalized-equilibrium", view.m
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
    ok = bool(ok and worst <= tol)
    if not enum:
        return Check(name, ok, (f"multiplier cover gap {worst:.2e} (tol {tol:g}); skipped 2^m "
                                f"certificate: enumeration needs m <= {cap.MAX_ENUM_USERS}"), tol)
    return Check(name, ok, f"2^m certificate gap {worst:.2e} (tol {tol:g})", tol)


def ess_invasion(scenario, view, g, rng) -> Check:
    name, tol = "ess-invasion", evo.ESS_MARGIN
    if not view.model.symmetric:
        return Check(name, None, "asymmetric channel, not applicable", tol)
    spec = evo.EssTestSpec(resident=view.total / view.m, mutant_grid=40)
    good = evo.ess_check(view, g, spec)
    spec_bad = evo.EssTestSpec(resident=0.9 * view.total / view.m, mutant_grid=40)
    bad = evo.ess_check(view, g, spec_bad)
    ok = good.is_ess and not bad.is_ess and bad.witness is not None
    return Check(name, ok, f"equal split stable, 0.9x split invaded (tol {tol:g})", tol)


def rest_points(scenario, view, g, rng) -> Check:
    name, tol = "rest-points", 1e-8
    if not view.model.symmetric:
        return Check(name, None, "asymmetric channel, not applicable", tol)
    top = float(view.single_caps.max())
    rstar = min(view.total / view.m, top)   # C(N)/m can round one ulp above C({1})
    grid = evo.make_grid(top, min(scenario.grid_points, 51), include=rstar)
    rows = evo.exact_rows(view, grid.size)
    if rows > evo.EXACT_ENUM_LIMIT:
        return Check(name, None, f"exact table needs {rows} rows (> {evo.EXACT_ENUM_LIMIT})", tol)
    table = evo.PayoffTable(view, g, grid)
    dirac = evo.PopulationState.dirac(grid, rstar)
    for proto in (dyn.Protocol.bnn(), dyn.Protocol.replicator(),
                  dyn.Protocol.smith(scenario.theta if scenario.theta >= 1 else 1.0),
                  dyn.Protocol.smith(2.0)):
        if dyn.rest_point_residual(view, g, proto, dirac, table=table) >= tol:
            return Check(name, False, f"Dirac residual not zero for {proto.kind}", tol)
    # a random state's velocity scales with K * max|F| * C({1}) (BNN, K = 1)
    for _ in range(5):
        state = _random_mixed_state(rng, grid, rstar)
        scale = float(np.abs(table.payoffs(state.masses)).max()) * grid[-1]
        if dyn.rest_point_residual(view, g, dyn.Protocol.bnn(), state,
                                   table=table) <= 1e-6 * scale:
            return Check(name, False, "random full-support state looks like a rest point", tol)
    return Check(name, True, ("Dirac rest for all protocols (residual < 1e-8), random states "
                              "move (residual > 1e-6 K max|F| C({1}))"), tol)


def montecarlo_payoffs(scenario, view, g, rng) -> Check:
    m, grid = view.m, np.linspace(0.0, float(view.single_caps.max()), 21)
    name, trials, samples, z = "montecarlo-payoffs", 20, 20_000, 3.0
    rows = evo.exact_rows(view, grid.size)
    if rows > MC_EXACT_ROWS:
        return Check(name, None, f"exact listing needs {rows} rows (> {MC_EXACT_ROWS})", z)
    cases = []
    for _ in range(trials):
        # the state's mean keeps the gate C(N) - (m-1)E non-empty, and a lies inside it
        state = _random_mixed_state(rng, grid, view.total / max(m - 1, 1))
        a = float(rng.uniform(0.0, min(grid[-1], view.total - (m - 1) * evo.mean_rate(state))))
        cases.append((state, a))
    exacts = evo.expected_payoffs(view, g, cases)

    def judge(first_seed):
        hits, dev, var = 0, 0.0, 0.0
        for t, ((state, a), exact) in enumerate(zip(cases, exacts)):
            mc, _ = evo.expected_payoff_mc(view, g, a, state, samples=samples,
                                           seed=first_seed + t)
            ga = float(g(a))
            nu, p_hat = (exact / ga, mc / ga) if ga > 0.0 else (0.0, 0.0)
            # Wilson score interval: unlike p_hat +- z se it keeps its width at p_hat in
            # {0, 1}; its end sits exactly at 0 (or 1) there, so a 1e-12 slack absorbs
            # the rounding
            shrink = 1.0 + z * z / samples
            centre = (p_hat + z * z / (2 * samples)) / shrink
            half = z / shrink * math.sqrt(p_hat * (1.0 - p_hat) / samples
                                          + z * z / (4 * samples * samples))
            if abs(nu - centre) <= half + 1e-12:
                hits += 1
            dev += p_hat - nu
            var += nu * (1.0 - nu) / samples
        # pooled over the trials, which catches a bias too small for any one interval;
        # with every nu in {0, 1} each p_hat equals its nu, so z is 0 unless the sum moved
        pooled = dev / math.sqrt(var) if var > 0.0 else (0.0 if abs(dev) <= 1e-12
                                                         else math.inf)
        return hits >= trials - 1 and abs(pooled) <= z, (
            f"{hits}/{trials} exact nu in the Wilson interval (z = {z:g}, slack 1e-12), "
            f"pooled z = {pooled:.2f} (tol |z| <= {z:g})")

    # a valid scenario fails either test by chance now and then, so a failure is
    # redrawn once with fresh samples on the same trials and stands only if both fail
    first = substream_seed(scenario.seed, "montecarlo")
    ok, detail = judge(first)
    if not ok:
        ok, again = judge(first + trials)
        detail += f"; redrawn once with fresh samples: {again}"
    route = evo.mc_route(view, grid.size, samples)
    return Check(name, ok, f"{detail}; {route} route, {rows} exact listing rows "
                           f"{'<=' if route == 'listing' else '>'} {samples} samples", z)


CHECKS = (capacity_identities, nash_face_equivalence, potential_identity, best_response_argmax,
          efficiency_metrics, normalized_equilibrium, ess_invasion, rest_points,
          montecarlo_payoffs)


def run(scenario, view, g) -> list:
    """Every check's record, in CHECKS order, all drawing from one seeded generator."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(scenario.seed)))
    return [check(scenario, view, g, rng) for check in CHECKS]
