"""Evolutionary statics on a discretized action grid.

A population state is a probability vector over a fixed grid of rates in
[0, C({1})]. The symmetric game has a unique symmetric pure equilibrium at
the equal split C(N)/m, which is also the unique constrained ESS. The
expected payoff of playing rate a against m-1 opponents drawn iid from
the state factorizes as

    F(a, state) = [a <= C(N) - (m-1)*E] * g(a) * nu(D_a),

where E is the state's mean rate and nu(D_a) the product-measure mass of
opponent draws that keep the joint profile feasible. This module is the one
payoff engine: a draw admits a exactly when a <= slack + tol, with slack the
focal user's reply slack against it. The exact draws are the sorted opponent
multisets within each SNR class, weighted by their multinomial counts, sorted
once by how many actions fit each, so nu at any sorted set of actions is one
pairwise sum per run of equal fit count and multiplicity, accumulated. A seeded
iid sample (Monte Carlo) is counted over the same runs by one multinomial when
the listing is no more than the draws, else each draw's fit count is tallied.
`expected_payoffs` reads it at the actions of many cases; for `dynamics`,
`PayoffTable` reads it over a whole grid, exactly or by Monte Carlo, zero past
its first `_gate_count` points (the mixed-region gate).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .capacity import (
    FEASIBILITY_TOL,
    CapacityRegionView,
    is_feasible,
    reply_slack,
)
from .game import Utility
from .specs import MC_SAMPLES, EssTestSpec

MASS_TOL = 1e-9
INDICATOR_SLACK = 1e-12
EXACT_ENUM_LIMIT = 10_000_000
EXACT_BLOCK_ROWS = 1 << 13
MC_BLOCK = 1 << 13   # Monte Carlo draws per block
ESS_SHARE = 1e-3
ESS_MARGIN = 1e-12   # the resident must out-earn each mutant by more than this


def make_grid(upper: float, n: int, include: Optional[float] = None) -> np.ndarray:
    """Uniform grid on [0, upper]; optionally snap the nearest point to `include`.

    Snapping keeps the grid strictly increasing and is how equilibrium rates
    (generally irrational in the grid spacing) become representable states.
    """
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    grid = np.linspace(0.0, upper, n)
    if include is not None:
        if not 0.0 <= include <= upper:
            raise ValueError(f"include value {include} outside [0, {upper}]")
        i = int(np.argmin(np.abs(grid - include)))
        grid[i] = include
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("snapping broke monotonicity; use a denser grid")
    return grid


@dataclass
class PopulationState:
    """Probability masses over a sorted action grid."""

    grid: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        self.grid = np.atleast_1d(np.asarray(self.grid, dtype=float))
        self.masses = np.atleast_1d(np.asarray(self.masses, dtype=float)).copy()
        if self.grid.ndim != 1 or self.grid.size < 1:
            raise ValueError("grid must be a non-empty 1-D array")
        if not (np.isfinite(self.grid).all() and np.isfinite(self.masses).all()):
            raise ValueError("grid points and masses must be finite")
        if self.grid.size > 1 and np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if self.masses.shape != self.grid.shape:
            raise ValueError("masses must match grid length")
        if self.masses.min() < -1e-12:
            raise ValueError(f"negative mass {self.masses.min():.3e}")
        np.clip(self.masses, 0.0, None, out=self.masses)
        if abs(float(self.masses.sum()) - 1.0) > MASS_TOL:
            raise ValueError(f"masses sum to {self.masses.sum():.12f}, not 1")

    @property
    def n(self) -> int:
        return int(self.grid.size)

    @property
    def base_weights(self) -> np.ndarray:
        """Base-measure weight of each grid point: the uniform grid step (1 on one point)."""
        step = (self.grid[-1] - self.grid[0]) / (self.n - 1) if self.n > 1 else 1.0
        return np.full(self.n, step)

    @classmethod
    def uniform(cls, grid) -> "PopulationState":
        grid = np.asarray(grid, dtype=float)
        return cls(grid, np.full(grid.size, 1.0 / grid.size))

    @classmethod
    def dirac(cls, grid, value: float) -> "PopulationState":
        grid = np.asarray(grid, dtype=float)
        i = int(np.argmin(np.abs(grid - value)))
        if not abs(grid[i] - value) <= 1e-12:   # NaN is no grid point either
            raise ValueError(f"value {value} is not a grid point (nearest {grid[i]})")
        masses = np.zeros(grid.size)
        masses[i] = 1.0
        return cls(grid, masses)

    def replace_masses(self, masses: np.ndarray) -> "PopulationState":
        return PopulationState(self.grid, masses)


def mean_rate(state: PopulationState) -> float:
    return float(np.dot(state.grid, state.masses))


def mixed_feasible(view: CapacityRegionView, states) -> bool:
    """Mixed-region membership: expected rates satisfy every subset constraint.

    Product-measure integrals of rate sums reduce exactly to sums of means,
    so this is region membership of the mean-rate vector. Accepts one shared
    state or a sequence of per-user states.
    """
    if isinstance(states, PopulationState):
        means = np.full(view.m, mean_rate(states))
    else:
        states = list(states)
        if len(states) != view.m:
            raise ValueError(f"need {view.m} states, got {len(states)}")
        means = np.array([mean_rate(s) for s in states])
    return is_feasible(view, means)


@dataclass
class EssResult:
    is_ess: bool
    witness: Optional[tuple]       # failing (mutant, ESS_SHARE), if any


def ess_check(view: CapacityRegionView, g: Utility, spec: EssTestSpec) -> EssResult:
    """Invasion test for a symmetric resident rate, one pass over the mutants.

    Each mutant on a grid over [0, C(N)/m] invades at share ESS_SHARE, and
    the resident must then out-earn it by more than ESS_MARGIN against the
    invaded mean b; the first failure in grid order is the witness. Every feasibility
    question is `_mixed_gate`, exact here: (a, b, ..., b) is feasible iff
    a <= C({1}), b <= C(m-1)/(m-1) and a <= C(N) - (m-1)b, as C(k+1) - kb is
    concave in k (smallest at k = 0 or m-1); for a, b <= C(N)/m only the
    last can bind. b lies between the resident and the mutant, both gated
    at their own rate, so it always fits (the mask on b can fail only by
    rounding), and no share can change a verdict or a witness mutant.
    """
    if not view.model.symmetric:
        raise ValueError("ESS test requires a symmetric channel")
    rstar = view.total / view.m
    r = float(spec.resident)
    if not (r >= -1e-12 and _mixed_gate(view, r, r)):
        raise ValueError(f"resident {r} outside the feasible symmetric range [0, {rstar:g}]")
    g.validate(float(view.single_caps.max()))

    mutants = np.linspace(0.0, rstar, spec.mutant_grid)
    mutants = mutants[np.abs(mutants - r) > 1e-12]
    b = ESS_SHARE * mutants + (1.0 - ESS_SHARE) * r
    u_res = _own_values(g, np.array([r])) * _mixed_gate(view, r, b)
    u_mut = _own_values(g, mutants) * _mixed_gate(view, mutants, b)
    fails = (_mixed_gate(view, b, b) & ~(u_res > u_mut + ESS_MARGIN)).nonzero()[0]
    if fails.size:
        return EssResult(is_ess=False, witness=(float(mutants[fails[0]]), ESS_SHARE))
    return EssResult(is_ess=True, witness=None)


def _opponent_classes(view: CapacityRegionView) -> list:
    """Users 1..m-1 (listing columns 0..m-2) grouped by equal SNR float, in user order."""
    snr = view.model.snr[1:].tolist()
    return [[col for col, s in enumerate(snr) if s == c] for c in dict.fromkeys(snr)]


def exact_rows(view: CapacityRegionView, n: int) -> int:
    """Exact opponent draws on an n-point grid (`_exact_fits`): prod_c C(n + k_c - 1, k_c)."""
    return math.prod(math.comb(n + len(c) - 1, len(c)) for c in _opponent_classes(view))


def _exact_fits(view: CapacityRegionView, actions: np.ndarray, grid: np.ndarray) -> tuple:
    """Every exact opponent draw of the sorted actions, sorted once by fit count: the
    function giving the listed draws' weights, and the runs `_fit_mass` sums them by.

    User 0's reply slack is the same when opponents of one SNR swap rates, and
    they are iid, so the draws are the product over the SNR classes
    (`_opponent_classes`, the first varying slowest) of each class's sorted
    index multisets in `combinations_with_replacement` order, each standing
    for its prod_c k_c! / prod r_v! orderings (r_v repeats of index v in a
    class of k_c); singleton classes give the ordered tuples in C order. The
    listing is sorted stably by fit count (`_listing_fits`), largest first,
    and by multiplicity, and the draws admitting nothing leave it, so the
    draws admitting the i-th action are a prefix of whole runs of one fit
    count and one multiplicity. A weight is the mass product at the draw's
    indices, its multiplicity left to its run. The runs are (where each
    starts, its multiplicity or None when every class is one opponent, each
    sorted action's last admitting run, the largest fit count).
    """
    n, k, rows = grid.size, view.m - 1, exact_rows(view, grid.size)
    if rows > EXACT_ENUM_LIMIT:
        raise ValueError(f"exact table needs {rows} rows (> {EXACT_ENUM_LIMIT}); "
                         "use the Monte Carlo method")
    classes, idx, repeats, outer = _opponent_classes(view), np.empty((k, rows), np.intp), None, 1
    for c in classes:
        cells = _sorted_multisets(n, len(c))
        size = cells[0].size
        for j, col in enumerate(c):   # broadcast into place, the first class varying slowest
            idx[col].reshape(outer, size, -1)[...] = cells[j][:, None]
        outer *= size
        del cells   # before the repeats are counted on whole rows
        run = 1.0
        for prev, col in zip(c, c[1:]):
            run = np.where(idx[col] == idx[prev], run + 1.0, 1.0)
            repeats = run if repeats is None else repeats * run
        del run   # before the slacks are solved, which is when the build peaks
    fits = _listing_fits(view, actions, grid, idx)
    keys = [(actions.size - fits).astype(np.min_scalar_type(actions.size))]
    if repeats is not None:   # 8! < 2**16, so up to m = 9 both keys sort by radix
        keys.insert(0, repeats.astype(np.uint16) if k <= 8 else repeats)
    order = np.lexsort(keys)
    if k != 1:   # the draws admitting nothing leave (at m = 2, a last run no action reads)
        order = order[:max(np.count_nonzero(fits), 1)]   # one stays, so there is a run
    fits = fits.take(order)
    new = fits[1:] != fits[:-1]
    if repeats is not None:
        repeats = repeats.take(order)
        new |= repeats[1:] != repeats[:-1]
    starts = np.flatnonzero(np.concatenate(([True], new)))
    run_fits = fits.take(starts)
    mult = None if repeats is None else (
        math.prod(math.factorial(len(c)) for c in classes) / repeats.take(starts))
    last = np.searchsorted(-run_fits, -np.arange(actions.size)) - 1
    runs = (starts, mult, np.maximum(last, 0), int(run_fits[0]))
    if not k:
        return (lambda masses: np.ones(1)), runs
    if k == 1:   # the listing is the grid, in C order
        if np.array_equal(order, np.arange(n)):
            return (lambda masses: masses), runs
        return (lambda masses: masses.take(order)), runs
    pair = idx[0].take(order) * n + idx[1].take(order)
    rest = [col.take(order) for col in idx[2:]]   # one column at a time

    def weights(masses: np.ndarray) -> np.ndarray:
        w = np.multiply.outer(masses, masses).ravel().take(pair)
        for col in rest:
            w *= masses.take(col)
        return w
    return weights, runs


def _sorted_multisets(n: int, k: int) -> list:
    """The sorted k-multisets of range(n) as k index columns, rows in lexicographic
    (`itertools.combinations_with_replacement`) order: each (k-1)-multiset is repeated
    once per value from its last entry up, and that value appended."""
    cols = [np.arange(n)]
    for _ in range(k - 1):
        last = cols[-1]
        reps = n - last
        rows = np.repeat(np.arange(last.size), reps)
        cols = [col.take(rows) for col in cols]
        # a row's appended values count up from its last entry, from where its copies start
        cols.append(np.arange(rows.size) - (np.cumsum(reps) - reps - last).take(rows))
    return cols


def _listing_fits(view, actions: np.ndarray, grid: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Fit counts of the listed opponent draws, one per column of the (m - 1, rows) grid
    index array `idx`, their reply slacks solved EXACT_BLOCK_ROWS draws at a time and each
    block's counts written into one array."""
    fits = np.empty(idx.shape[1], np.intp)
    for lo in range(0, fits.size, EXACT_BLOCK_ROWS):
        rows = slice(lo, lo + EXACT_BLOCK_ROWS)
        fits[rows] = _fit_counts(actions, reply_slack(view, 0, grid[idx[:, rows]].T))
    return fits


def _fit_counts(actions: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """How many of the sorted actions each opponent draw admits (a <= slack + tol)."""
    return np.searchsorted(actions, slack + FEASIBILITY_TOL, side="right")


def _fit_mass(w: np.ndarray, runs: tuple, draw: tuple = None) -> np.ndarray:
    """Weight of the draws admitting each sorted action, from the weights w of a run-sorted
    listing (`_exact_fits`); with a draw (samples, seed, mass), the share of `samples` iid
    opponent draws admitting it, fixed per seed (an int or a SeedSequence).

    Each run is summed pairwise (`np.add.reduceat`; Higham 1993: error
    O(eps log rows), not O(eps rows) as one weight at a time in row order)
    and scaled by its multiplicity; the runs are accumulated largest fit
    first, and action i reads the sum up to its last admitting run, 0 past
    the largest fit count. A draw's counts over the runs are one
    `Generator(Philox(seed)).multinomial(samples, p)`, p the run sums over the listing's
    whole mass `mass` (over their own sum where rounding puts that above), the unlisted
    draws admitting nothing its last cell: nu counts only the draws admitting each
    action, so this is the law of `samples` iid draws, in O(runs) binomials.
    """
    starts, mult, last, top = runs
    sums = np.add.reduceat(w, starts)
    if mult is not None:
        sums *= mult
    if draw is None:
        nu = np.add.accumulate(sums).take(last)
    else:
        samples, seed, mass = draw
        p = np.append(sums / max(mass, sums.sum()), 0.0)   # numpy fills the last cell
        counts = np.random.Generator(np.random.Philox(seed)).multinomial(samples, p)
        nu = np.add.accumulate(counts).take(last) / samples
    if top < nu.size:
        nu[top:] = 0.0
    return nu


def mc_route(view, n: int, samples: int) -> str:
    """How Monte Carlo draws `samples` opponents on an n-point grid: "listing" (`_fit_mass`
    off `_exact_fits`) when the `exact_rows` are no more than the draws (nor than
    EXACT_ENUM_LIMIT), else "per-draw" (`_admitted_mass`)."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    return "listing" if exact_rows(view, n) <= min(samples, EXACT_ENUM_LIMIT) else "per-draw"


def _admitted_mass(view, actions, grid, masses, samples, seed) -> np.ndarray:
    """Monte Carlo nu at each sorted action on the per-draw route (`mc_route`), per seed: in
    law, not in bits, the listing route's share of `samples` iid draws (`_fit_mass`).

    The draws are exactly `Generator(Philox(seed)).choice(n, size=(samples, m - 1),
    p=masses)`, in blocks of MC_BLOCK draws read on along one Philox stream, each
    uniform (raw >> 11) * 2**-53 of a raw 64-bit output, looked up off the integers
    (`_guide_lookup`); a block adds its draws' own fit counts to the tally, so working
    memory is O(MC_BLOCK * (m - 1)).
    """
    k, bits = view.m - 1, np.random.Philox(seed)
    cdf = np.cumsum(masses)
    cdf /= cdf[-1]
    guide = _guide_table(cdf, samples * k)
    tallies = np.zeros(actions.size + 1, np.intp)
    for lo in range(0, samples, MC_BLOCK):
        units = bits.random_raw((min(MC_BLOCK, samples - lo), k))
        units >>= 11                   # `Generator.random` gives u = units * 2**-53
        idx = _guide_lookup(cdf, guide, units)
        fits = _fit_counts(actions, reply_slack(view, 0, grid[idx]))
        tallies += np.bincount(fits, minlength=tallies.size)
    # action i is admitted by the draws fitting more than i actions: a reverse cumulative sum
    return np.add.accumulate(tallies[::-1])[-2::-1] / samples


def _guide_table(cdf: np.ndarray, draws: int) -> np.ndarray:
    """A guide table (Chen & Asau 1974) for `draws` uniforms against the cdf.

    It splits [0, 1) into B = 2**b equal buckets (B is its size): a bucket with
    no cdf value inside its interval holds the index of its left edge, any
    other -1. B is a power of two >= 64 n, but none above the first one >= the
    draw count (so a small sample builds no large table), and at least 256.
    """
    buckets = 1 << max(8, (min(64 * cdf.size, draws) - 1).bit_length())
    edges = np.arange(buckets + 1) / buckets
    left = cdf.searchsorted(edges[:-1], side="right")
    return np.where(left == cdf.searchsorted(edges[1:], side="left"), left, -1)


def _guide_lookup(cdf: np.ndarray, guide: np.ndarray, units: np.ndarray) -> np.ndarray:
    """cdf.searchsorted(u, "right") for the uniforms u = units * 2**-53 (uint64 units).

    A uniform's bucket, floor(u * B) for B = 2**b buckets, is units >> (53 - b)
    exactly; each takes its bucket's guide entry, and only the uniforms in the
    at most n buckets that hold a cdf value (entry -1) are searched.
    """
    shift = 53 - (guide.size.bit_length() - 1)
    idx = guide.take((units >> shift).view(np.intp))
    flat = idx.reshape(-1)
    search = np.flatnonzero(flat < 0)
    flat[search] = cdf.searchsorted(units.reshape(-1).take(search) * 2.0 ** -53, side="right")
    return idx


def _own_values(g: Utility, actions: np.ndarray) -> np.ndarray:
    """g at each action, read at max(a, 0); 0 where a < -tol and so never feasible."""
    gvals = np.asarray(g(np.maximum(actions, 0.0)), dtype=float)
    return np.where(actions >= -FEASIBILITY_TOL, gvals, 0.0)


def _gate_bound(total: float, others: int, mean):
    """The largest action inside the mixed region, C(N) - (m-1)E + INDICATOR_SLACK, for
    C(N) = total, m - 1 = others and E the (broadcast) mean rate."""
    return total - others * mean + INDICATOR_SLACK


def _mixed_gate(view, actions, mean) -> np.ndarray:
    """Actions inside the mixed region: a <= C(N) - (m-1)E, E the (broadcast) mean rate.

    On a strictly increasing grid the mask is a prefix, `_gate_count` points long.
    """
    return actions <= _gate_bound(view.total, view.m - 1, mean)


def _gate_count(grid, total: float, others: int, mean: float) -> int:
    """How many points of the sorted grid lie inside the mixed region at mean rate `mean`
    (grand capacity `total`, m - 1 = `others`): `_mixed_gate` holds exactly on that prefix."""
    return bisect_right(grid, _gate_bound(total, others, mean))


class PayoffTable:
    """F over one grid for one run, exact or Monte Carlo, zero past the mixed-region gate.

    The table keeps every exact opponent draw sorted by how many grid points
    fit it (`_exact_fits`), unless Monte Carlo takes the per-draw route
    (`mc_route`), and each evaluation reads nu off one pairwise sum per run
    (`_fit_mass`). Monte Carlo keeps SeedSequence(seed), and evaluation k draws
    from child stream k, spawn key (k,): counts over the same runs, or a walk
    of the draws (`_admitted_mass`).
    """

    def __init__(self, view: CapacityRegionView, g: Utility, grid: np.ndarray,
                 samples: int = None, seed=0):
        self.view = view
        self.grid = np.asarray(grid, dtype=float)
        self.m = view.m
        self.gvals = _own_values(g, self.grid)
        self.samples, self.runs = samples, None
        if samples is not None:
            self.streams = np.random.SeedSequence(seed)
        if samples is None or mc_route(view, self.grid.size, samples) == "listing":
            self.weights, self.runs = _exact_fits(view, self.grid, self.grid)

    def payoffs(self, masses: np.ndarray, count: int = None) -> np.ndarray:
        """F over the whole grid for the state with these masses, zero beyond the first
        `count` grid points (default: the state's mixed-region gate, `_gate_count`)."""
        if count is None:
            count = _gate_count(self.grid, self.view.total, self.m - 1,
                                float(np.dot(self.grid, masses)))
        if self.samples is None:
            nu = _fit_mass(self.weights(masses), self.runs)
        elif self.runs is None:
            nu = _admitted_mass(self.view, self.grid, self.grid, masses, self.samples,
                                self.streams.spawn(1)[0])
        else:
            nu = _fit_mass(self.weights(masses), self.runs, (
                self.samples, self.streams.spawn(1)[0], masses.sum() ** (self.m - 1)))
        nu *= self.gvals
        nu[count:] = 0.0   # as `* gate`: g(a) * nu >= +0
        return nu


def region_mass(view: CapacityRegionView, a: float, state: PopulationState) -> float:
    """Exact product-measure mass of opponent draws keeping (a, draws) feasible.

    The engine's nu at the single action a, own value 1 (so 0 for a < 0),
    over the exact draws of `_exact_fits` (up to EXACT_ENUM_LIMIT rows).
    """
    actions = np.array([float(a)])
    weights, runs = _exact_fits(view, actions, state.grid)
    nu = _fit_mass(weights(state.masses), runs)
    return float(_own_values(np.ones_like, actions)[0] * nu[0])


def _checked_action(view: CapacityRegionView, a) -> float:
    """The action as a float, within 1e-12 of [0, C({1})] (NaN is not), else a ValueError."""
    a = float(a)
    c1 = float(view.single_caps.max())
    if not -1e-12 <= a <= c1 + 1e-12:
        raise ValueError(f"action {a} outside [0, {c1:g}]")
    return a


def expected_payoffs(view: CapacityRegionView, g: Utility, cases) -> list:
    """Exact F(a, state) of each (state, a) case, every state on one grid, off one
    `_exact_fits` listing of the sorted actions: a case's nu is `_fit_mass` read at its
    action. Its runs split by every case's action, so nu agrees with its action's alone
    to rounding, not bit for bit. Each action must lie in [0, C({1})]; a case outside its
    mixed region scores 0, and no listing is built unless some case lies inside."""
    actions = np.array([_checked_action(view, a) for _, a in cases])
    if any(not np.array_equal(state.grid, cases[0][0].grid) for state, _ in cases):
        raise ValueError("every state must lie on one grid")
    inside = [_mixed_gate(view, a, mean_rate(state)) for state, a in cases]
    payoffs = [0.0] * len(cases)
    if not any(inside):
        return payoffs
    order = np.argsort(actions, kind="stable")
    weights, runs = _exact_fits(view, actions[order], cases[0][0].grid)
    gvals = _own_values(g, actions)
    for i, t in enumerate(order):
        if inside[t]:
            payoffs[t] = float(gvals[t] * _fit_mass(weights(cases[t][0].masses), runs)[i])
    return payoffs


def expected_payoff(view: CapacityRegionView, g: Utility, a: float,
                    state: PopulationState) -> float:
    """Exact F(a, state), the one-case `expected_payoffs`: indicator times g(a) times
    `region_mass` (within its size cap). expected_payoff_mc is the Monte Carlo F with its
    standard error."""
    return expected_payoffs(view, g, [(state, a)])[0]


def expected_payoff_mc(view: CapacityRegionView, g: Utility, a: float,
                       state: PopulationState, samples: int = MC_SAMPLES,
                       seed: int = 0) -> tuple:
    """Monte Carlo F(a, state) with its standard error, deterministic per seed, drawn on the
    route `mc_route` picks.

    An action outside [0, C({1})] raises, as in expected_payoff; one outside
    the mixed region scores (0, 0) without drawing.
    """
    actions = np.array([_checked_action(view, a)])
    if not _mixed_gate(view, actions, mean_rate(state))[0]:
        return 0.0, 0.0
    ga = float(_own_values(g, actions)[0])
    if mc_route(view, state.n, samples) == "listing":
        weights, runs = _exact_fits(view, actions, state.grid)
        draw = (samples, seed, state.masses.sum() ** (view.m - 1))
        p_hat = float(_fit_mass(weights(state.masses), runs, draw)[0])
    else:
        p_hat = float(_admitted_mass(view, actions, state.grid, state.masses, samples, seed)[0])
    return ga * p_hat, ga * math.sqrt(p_hat * (1.0 - p_hat) / samples)
