"""The `verify` battery: nine checks, each a function of (scenario, view, g) returning one
`Check` record whose detail states the tolerance `tol` that decided its verdict. `run` calls
them in order.

A check that samples draws from its own generator, on the substream of the scenario's seed
named after the check (`scenario.substream_seed`), and draws its cases as arrays in a few
generator calls; face points, Monte Carlo samples and the random tau come from the older
named substreams `face`, `montecarlo` and `weights`. So a check's cases are fixed per seed,
and they do not depend on which checks ran before it or on how those ended.

The four sampling checks of the region and the game (`capacity-identities`,
`nash-face-equivalence`, `potential-identity`, `best-response-argmax`) judge every case at
once through the oracle's (B, m) batch forms, with the one-case calls' bits, and report the
first case that fails. `best-response-argmax` finds the feasible points of each 2000-point
grid by bisection: the region is down-closed, so they are a prefix of the increasing grid.
The exhaustive rank checks read the 2^m table through strided halves of
`view.cap.reshape((2,) * m)`, one axis per user, not through gathers.
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
RANK_TOL = 1e-12          # capacity-identities
POTENTIAL_TOL = 1e-12     # potential-identity
REPLY_TOL = 1e-9          # best-response-argmax


class Check(NamedTuple):
    name: str
    verdict: Optional[bool]    # None: skipped
    detail: str
    tol: float


def _generator(scenario, name: str) -> np.random.Generator:
    """The generator of the substream `name` of the scenario's seed."""
    return np.random.Generator(np.random.Philox(substream_seed(scenario.seed, name)))


def _random_mixed_states(rng, grid: np.ndarray, mean_cap: float, count: int) -> list:
    """`count` full-support random states inside the mixed region (mean below `mean_cap`).

    States with no feasible action at all are frozen by the gating and so
    are vacuous rest points; probes for false rest points must stay inside
    the region.
    """
    masses = np.maximum(rng.dirichlet(np.ones(grid.size), size=count), 1e-6)
    masses /= masses.sum(axis=1, keepdims=True)
    means, targets = masses @ grid, mean_cap * rng.uniform(0.5, 0.95, size=count)
    # above its target, a state mixes in a share t of the Dirac at grid[0]
    t = np.where(means > targets, 1.0 - targets / means, 0.0)
    masses *= (1.0 - t)[:, None]
    masses[:, 0] += t
    return [evo.PopulationState(grid, row) for row in masses]


def _math_log1p(values: np.ndarray) -> np.ndarray:
    # what `capacity_of` and `safe_rate` take; np.log1p differs from it in the last bit
    return np.array([math.log1p(v) for v in values.ravel().tolist()]).reshape(values.shape)


def capacity_identities(scenario, view, g) -> Check:
    name, m, tol = "capacity-identities", view.m, RANK_TOL
    rng = _generator(scenario, name)
    # 200 random channels of 1 to 6 users, their SNRs zero-padded to 6
    used = np.arange(6) < rng.integers(1, 7, size=(200, 1))
    snrs = np.where(used, rng.uniform(0.05, 30.0, size=(200, 6)), 0.0)
    # the left-to-right sums `capacity_of` and `safe_rate` take; a padded zero adds exactly
    grand = _math_log1p(np.add.accumulate(snrs, axis=1)[:, -1])
    rest = np.stack([np.add.accumulate(np.delete(snrs, i, axis=1), axis=1)[:, -1]
                     for i in range(6)], axis=1)
    off = np.abs(_math_log1p(snrs / (1.0 + rest)) - (grand[:, None] - _math_log1p(rest)))
    bad = np.flatnonzero(used & (off > tol))
    if bad.size:
        return Check(name, False, f"identity off by {off.flat[bad[0]]:.2e} (tol {tol:g})", tol)
    if m > cap.MAX_ENUM_USERS:
        return Check(name, True, (f"200 random models (tol {tol:g}); skipped exhaustive rank "
                                  f"checks: 2^m enumeration needs m <= {cap.MAX_ENUM_USERS}"), tol)
    # strided halves of the 2^m table: axis m-1-i holds bit i of the mask, so its index 0
    # reads C(J) and its index 1 C(J + i), over every J without i
    table = view.cap.reshape((2,) * m)
    halves = [np.moveaxis(table, m - 1 - i, 0) for i in range(m)]
    if any(np.any(lo - tol > hi) for lo, hi in halves):
        return Check(name, False, f"monotonicity violated (tol {tol:g})", tol)
    for i, (lo, hi) in enumerate(halves):
        gain = hi - lo   # C(J + i) - C(J); axis m-1-i is gone, so bit j < i sits one lower
        for j in itertools.chain(range(i), range(i + 1, m)):
            without_j, with_j = np.moveaxis(gain, m - 1 - j - (j < i), 0)
            if np.any(with_j - without_j > tol):
                return Check(name, False, f"submodularity violated (tol {tol:g})", tol)
    return Check(name, True, f"200 random models + exhaustive rank checks (tol {tol:g})", tol)


def _nash_face_rows(view, profiles: np.ndarray) -> tuple:
    """`game.is_nash` and `cap.max_face_residual(...) == 0.0` for each row of a (B, m) batch.

    Each row gets the one-profile calls' ratio sort, prefix sums and (m, m + 1) slack table
    of `game._reply_slacks`, so the same bits; rows are taken SLACK_BLOCK_CELLS table cells
    at a time.
    """
    m, snr, tol = view.m, view.model.snr, cap.FEASIBILITY_TOL
    step = max(1, game.SLACK_BLOCK_CELLS // (m * (m + 1)))
    nash, face = [], []
    for lo in range(0, profiles.shape[0], step):
        rates = profiles[lo:lo + step]
        order, cum_rates, cum_snr = cap._ratio_prefixes(rates, snr)   # (m, b) each
        excess = cum_rates - np.log1p(cum_snr)
        feasible = (rates.min(axis=1) >= -tol) & (excess.max(axis=0) <= tol)
        prefixes = np.zeros((3, rates.shape[0], 1, m + 1))   # prefix k = 0 is empty
        prefixes[:, :, 0, 1:] = np.stack((cum_rates, cum_snr, excess)).swapaxes(1, 2)
        before = np.arange(m + 1) <= order.argsort(axis=0).T[:, :, None]
        slacks = np.where(before, np.log1p(snr[:, None] + prefixes[1]) - prefixes[0],
                          rates[:, :, None] - prefixes[2]).min(axis=2)
        gaps = np.abs(np.maximum(view.safe_rates, slacks) - rates)
        nash.append(feasible & (gaps.max(axis=1) <= game.NASH_TOL))
        face.append(feasible & ((view.safe_rates - rates).max(axis=1) <= tol)
                    & (np.abs(rates.sum(axis=1) - view.total) <= tol))
    return np.concatenate(nash), np.concatenate(face)


def nash_face_equivalence(scenario, view, g) -> Check:
    name, tol = "nash-face-equivalence", game.NASH_TOL
    pts = [cap.sample_max_face(view, 100, seed=substream_seed(scenario.seed, "face"))]
    noise = _generator(scenario, name).normal(0.0, 0.05, size=(100, view.m))
    pts.append(np.maximum(pts[0] + noise, 0.0))
    pts = np.concatenate(pts)
    nash, face = _nash_face_rows(view, pts)
    bad = np.flatnonzero(nash != face)
    if bad.size:
        return Check(name, False, f"disagreement at {pts[bad[0]]} (tol {tol:g})", tol)
    return Check(name, True, f"{pts.shape[0]} profiles, zero disagreements (tol {tol:g})", tol)


def potential_identity(scenario, view, g) -> Check:
    name, tol = "potential-identity", POTENTIAL_TOL
    rng = _generator(scenario, name)
    # 200 scaled face points, and for each a mover and its new rate
    alphas = cap.sample_max_face(view, 200, seed=substream_seed(scenario.seed, "face"))
    alphas *= rng.uniform(0.2, 1.0, size=(200, 1))
    movers = rng.integers(view.m, size=200)
    moved = rng.uniform(0.0, view.safe_rates[movers])
    betas = alphas.copy()
    betas[np.arange(200), movers] = moved
    pairs = np.flatnonzero(cap.feasible_rows(view, alphas) & cap.feasible_rows(view, betas))
    alphas, betas, movers, moved = alphas[pairs], betas[pairs], movers[pairs], moved[pairs]
    # `game.potential` of each feasible row, and g of the mover's two rates
    lhs = g(np.maximum(alphas, 0.0)).sum(axis=1) - g(np.maximum(betas, 0.0)).sum(axis=1)
    off = np.abs(lhs - (g(alphas[np.arange(pairs.size), movers]) - g(moved)))
    bad = np.flatnonzero(off > tol)
    if bad.size:
        return Check(name, False, f"off by {off[bad[0]]:.2e} (tol {tol:g})", tol)
    return Check(name, True, f"200 random feasible pairs (tol {tol:g})", tol)


def _feasible_prefix(view, pts: np.ndarray, users: np.ndarray, grids: np.ndarray) -> np.ndarray:
    """For each row k, how many of the profiles pts[k] with users[k]'s rate set to
    grids[k, 0], grids[k, 1], ... are feasible, by bisection over the grid.

    The region is down-closed and each grid increasing, so the feasible points of a grid
    are a prefix of it; a row's count is found in ceil(log2(n + 1)) `feasible_rows` calls
    that hold one point of every row.
    """
    rows, n = np.arange(pts.shape[0]), grids.shape[1]
    lo, hi = np.zeros(rows.size, dtype=int), np.full(rows.size, n)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        trials = pts.copy()
        trials[rows, users] = grids[rows, np.minimum(mid, n - 1)]
        fits = cap.feasible_rows(view, trials)
        lo, hi = np.where((lo < hi) & fits, mid + 1, lo), np.where((lo < hi) & ~fits, mid, hi)
    return lo


def best_response_argmax(scenario, view, g) -> Check:
    name, tol = "best-response-argmax", REPLY_TOL
    rng = _generator(scenario, name)
    # 20 face points, each scaled by its own factor, and a user for each
    pts = cap.sample_max_face(view, 20, seed=int(rng.integers(2**31)))
    pts *= rng.uniform(0.3, 1.0, size=(20, 1))
    users = rng.integers(view.m, size=20)
    grids = {u: np.linspace(0.0, float(view.single_caps[u]), 2000) for u in set(users.tolist())}
    pays = {u: g(ys) for u, ys in grids.items()}
    counts = _feasible_prefix(view, pts, users, np.stack([grids[u] for u in users]))
    for pt, user, count in zip(pts, users.tolist(), counts.tolist()):
        others = np.delete(pt, user)
        br = game.best_response(view, g, user, others)
        best = max(0.0, float(pays[user][:count].max())) if count else 0.0
        got = game.payoff(view, g, np.insert(others, user, br), user)
        if got + tol < best:
            return Check(name, False, (f"best response beaten by grid ({got} < {best}, "
                                       f"tol {tol:g})"), tol)
    return Check(name, True, f"20 instances vs 2000-point grid search (tol {tol:g})", tol)


def efficiency_metrics(scenario, view, g) -> Check:
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


def normalized_equilibrium(scenario, view, g) -> Check:
    # the certificate re-checked on the 2^m table, for tau = 1 and one seeded tau
    name, m = "normalized-equilibrium", view.m
    gg = g if g.kind != "identity" else game.Utility.log1p()
    tol, worst, ok = 1e-12, 0.0, True
    enum = m <= cap.MAX_ENUM_USERS
    for tau in (np.ones(m), np.exp(_generator(scenario, "weights").uniform(-1.0, 1.0, size=m))):
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


def ess_invasion(scenario, view, g) -> Check:
    name, tol = "ess-invasion", evo.ESS_MARGIN
    if not view.model.symmetric:
        return Check(name, None, "asymmetric channel, not applicable", tol)
    spec = evo.EssTestSpec(resident=view.total / view.m, mutant_grid=40)
    good = evo.ess_check(view, g, spec)
    spec_bad = evo.EssTestSpec(resident=0.9 * view.total / view.m, mutant_grid=40)
    bad = evo.ess_check(view, g, spec_bad)
    ok = good.is_ess and not bad.is_ess and bad.witness is not None
    return Check(name, ok, f"equal split stable, 0.9x split invaded (tol {tol:g})", tol)


def rest_points(scenario, view, g) -> Check:
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
    for state in _random_mixed_states(_generator(scenario, name), grid, rstar, 5):
        scale = float(np.abs(table.payoffs(state.masses)).max()) * grid[-1]
        if dyn.rest_point_residual(view, g, dyn.Protocol.bnn(), state,
                                   table=table) <= 1e-6 * scale:
            return Check(name, False, "random full-support state looks like a rest point", tol)
    return Check(name, True, ("Dirac rest for all protocols (residual < 1e-8), random states "
                              "move (residual > 1e-6 K max|F| C({1}))"), tol)


def montecarlo_payoffs(scenario, view, g) -> Check:
    m, grid = view.m, np.linspace(0.0, float(view.single_caps.max()), 21)
    name, trials, samples, z = "montecarlo-payoffs", 20, 20_000, 3.0
    rows = evo.exact_rows(view, grid.size)
    if rows > MC_EXACT_ROWS:
        return Check(name, None, f"exact listing needs {rows} rows (> {MC_EXACT_ROWS})", z)
    rng = _generator(scenario, name)
    # each state's mean keeps the gate C(N) - (m-1)E non-empty, and its a lies inside it
    states = _random_mixed_states(rng, grid, view.total / max(m - 1, 1), trials)
    tops = [min(grid[-1], view.total - (m - 1) * evo.mean_rate(s)) for s in states]
    cases = list(zip(states, rng.uniform(0.0, tops).tolist()))
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
    """Every check's record, in CHECKS order; each check draws on its own substream."""
    return [check(scenario, view, g) for check in CHECKS]
