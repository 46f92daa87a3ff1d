"""Evolutionary statics on a discretized action grid.

A population state is a probability vector over a fixed grid of rates in
[0, C({1})]. The symmetric game has a unique symmetric pure equilibrium at
the equal split C(N)/m, which is also the unique constrained ESS. The
expected payoff of playing rate a against m-1 opponents drawn iid from
the state factorizes as

    F(a, state) = [a <= C(N) - (m-1)*E] * g(a) * nu(D_a),

where E is the state's mean rate and nu(D_a) the product-measure mass of
opponent draws that keep the joint profile feasible. This module is the
one payoff engine: a draw admits a exactly when a <= slack + tol, with
slack the focal user's reply slack against it, so nu at any sorted set of
actions is one bincount of how many fit each draw, taken over every
opponent grid combination (exact; on a symmetric channel every sorted
opponent multiset, weighted by its multinomial count) or a seeded iid
sample (Monte Carlo).
The expected-payoff functions read it at one action; for `dynamics`,
`PayoffTable` (exact) and `_payoff_vector` read it over a whole grid, zero
past its first `_gate_count` points (the mixed-region gate).
"""
from __future__ import annotations

import itertools
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

MASS_TOL = 1e-9
INDICATOR_SLACK = 1e-12
EXACT_ENUM_LIMIT = 10_000_000
EXACT_BLOCK_ROWS = 1 << 16
MC_SAMPLES = 100_000
# Monte Carlo draws per block: a multiple of 4, so every block starts on a Philox counter
MC_BLOCK = 1 << 13
ESS_SHARE = 1e-3


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
class EssTestSpec:
    """Resident rate plus the number of mutant grid points to probe."""

    resident: float
    mutant_grid: int = 50

    def __post_init__(self):
        if self.mutant_grid < 2:
            raise ValueError("mutant grid needs at least 2 points")


@dataclass
class EssResult:
    is_ess: bool
    witness: Optional[tuple]       # failing (mutant, ESS_SHARE), if any


def ess_check(view: CapacityRegionView, g: Utility, spec: EssTestSpec) -> EssResult:
    """Invasion test for a symmetric resident rate, one pass over the mutants.

    Each mutant on a grid over [0, C(N)/m] invades at share ESS_SHARE, and
    the resident must then strictly outperform it against the invaded mean
    b; the first failure in grid order is the witness. Every feasibility
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
    fails = np.flatnonzero(_mixed_gate(view, b, b) & ~(u_res > u_mut + 1e-12))
    if fails.size:
        return EssResult(is_ess=False, witness=(float(mutants[fails[0]]), ESS_SHARE))
    return EssResult(is_ess=True, witness=None)


def exact_rows(view: CapacityRegionView, n: int) -> int:
    """Exact opponent draws on an n-point grid: C(n + m - 2, m - 1) sorted tuples when
    m >= 3 and every SNR is the same float, else n**(m-1) ordered ones (`_exact_fits`)."""
    k, snr = view.m - 1, view.model.snr
    return math.comb(n + k - 1, k) if k > 1 and np.all(snr == snr[0]) else n ** k


def _exact_fits(view: CapacityRegionView, actions: np.ndarray, grid: np.ndarray) -> tuple:
    """Fit counts of every exact opponent draw, and the function giving the draws' weights.

    On a symmetric channel user 0's reply slack depends only on the multiset
    of opponent rates, so the draws are the sorted index tuples i_1 <= ... <=
    i_{m-1}, each standing for its (m-1)!/prod r_v! orderings (r_v repeats of
    index v); otherwise they are the n**(m-1) ordered tuples in C order.
    Slacks are computed EXACT_BLOCK_ROWS draws at a time. A weight is the
    multiplicity times the masses at the draw's indices: pair products
    gathered from one outer product, then one gather per further opponent.
    """
    n, k, rows = grid.size, view.m - 1, exact_rows(view, grid.size)
    if rows > EXACT_ENUM_LIMIT:
        raise ValueError(f"exact table needs {rows} rows (> {EXACT_ENUM_LIMIT}); "
                         "use the Monte Carlo method")
    if rows == n ** k:   # ordered tuples: the sorted listing is no shorter
        idx, mult = _ordered_listing(n, k), None
    else:
        idx = np.ascontiguousarray(np.fromiter(itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(n), k)), np.intp, rows * k
        ).reshape(rows, k).T)
        run, repeats = np.ones(rows), np.ones(rows)
        for prev, col in zip(idx, idx[1:]):
            run = np.where(col == prev, run + 1.0, 1.0)
            repeats *= run
        mult = math.factorial(k) / repeats
    fits = np.concatenate([
        _fit_counts(actions, reply_slack(view, 0, grid[idx[:, lo:lo + EXACT_BLOCK_ROWS]].T))
        for lo in range(0, rows, EXACT_BLOCK_ROWS)])
    if k < 2:
        return fits, (lambda masses: masses) if k else (lambda masses: np.ones(1))
    pair, rest = idx[0] * n + idx[1], idx[2:].copy()   # a copy, so idx can be freed

    def weights(masses: np.ndarray) -> np.ndarray:
        w = np.multiply.outer(masses, masses).ravel().take(pair)
        for col in rest:
            w *= masses.take(col)
        return w if mult is None else w * mult
    return fits, weights


def _ordered_listing(n: int, k: int) -> np.ndarray:
    """The n**k ordered opponent index tuples in C order, one per column: a (k, n**k) array."""
    return np.indices((n,) * k).reshape(k, n ** k)


def _fit_counts(actions: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """How many of the sorted actions each opponent draw admits (a <= slack + tol)."""
    return np.searchsorted(actions, slack + FEASIBILITY_TOL, side="right")


def _fit_mass(fits: np.ndarray, size: int, weights=None) -> np.ndarray:
    """Weight (1 per draw unweighted) of the draws admitting each of `size` sorted actions.

    Draw c admits action i exactly when i < fits[c], so one bincount and a
    reverse cumulative sum give every action's mass at once (the sum's last
    entry, the draws admitting nothing, is dropped).
    """
    return _admitting(np.bincount(fits, weights, minlength=size + 1))


def _admitting(counts: np.ndarray) -> np.ndarray:
    """From the weight of the draws with each fit count 0..size, the weight admitting
    each of the size sorted actions: a reverse cumulative sum, its last entry dropped."""
    return np.add.accumulate(counts[::-1])[-2::-1]


def _admitted_mass(view, actions, grid, masses, samples, seed) -> np.ndarray:
    """Monte Carlo nu at each sorted action: the share of `samples` iid opponent draws from
    the state admitting it, fixed per seed (an int or a SeedSequence).

    The sample is `Generator(Philox(seed)).choice(n, size=(samples, m - 1),
    p=masses)`, draw for draw, walked in blocks of MC_BLOCK draws. Philox is
    counter-based and yields 4 uniforms per counter, so the block starting at
    draw lo reads its (m - 1) uniforms per draw from the stream advanced by
    lo * (m - 1) / 4 counters, exactly where they lie in one long draw. Each
    uniform is (raw >> 11) * 2**-53 of one raw 64-bit output, as
    `Generator.random` makes it, so the block reads the raw outputs and looks
    their indices up off the integers (`_guide_lookup`). The masses are
    checked, and the cdf and guide table built, once per call.

    When the n**(m-1) ordered tuples are no more than the draws, each tuple's
    fit count is computed once per call and each draw reads its own by its
    C-order flat index (the same integer as its own slack would give);
    otherwise each draw solves its own reply slack. Each block adds the
    bincount of its fit counts to one integer tally, so the tally is that of
    the whole sample, and working memory beyond the listing is
    O(MC_BLOCK * (m - 1)).
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    n, k = grid.size, view.m - 1
    cdf = _choice_cdf(n, masses)
    guide = _guide_table(cdf, samples * k)
    tuple_fits = None
    if n ** k <= samples:
        tuple_fits = _fit_counts(actions, reply_slack(view, 0, grid[_ordered_listing(n, k)].T))
    tallies = np.zeros(actions.size + 1, np.intp)
    bits = np.random.Philox(seed)
    start = bits.state
    for lo in range(0, samples, MC_BLOCK):
        bits.state = start                 # back to Philox(seed) without seeding again
        bits.advance(lo * k // 4)
        units = bits.random_raw((min(MC_BLOCK, samples - lo), k))
        units >>= 11                       # `Generator.random` gives u = units * 2**-53
        idx = _guide_lookup(cdf, guide, units)
        if tuple_fits is None:
            fits = _fit_counts(actions, reply_slack(view, 0, grid[idx]))
        else:
            flat = np.zeros(len(idx), np.intp)
            for col in idx.T:              # Horner: the draw's C-order index in the listing
                flat *= n
                flat += col
            fits = tuple_fits.take(flat)
        tallies += np.bincount(fits, minlength=tallies.size)
    return _admitting(tallies) / samples


def _draw_indices(rng: np.random.Generator, n: int, masses, shape) -> np.ndarray:
    """`rng.choice(n, size=shape, p=masses)`, draw for draw, without its binary search per draw.

    The same checks on p (as ValueErrors), the same normalised cdf
    (`_choice_cdf`) and the same uniforms u, each a multiple of 2**-53 and so
    given exactly by the integer u * 2**53; `choice` returns
    cdf.searchsorted(u, "right"), here read off a guide table (`_guide_table`,
    `_guide_lookup`).
    """
    cdf = _choice_cdf(n, masses)
    units = (rng.random(shape) * 2.0 ** 53).astype(np.uint64)
    return _guide_lookup(cdf, _guide_table(cdf, units.size), units)


def _choice_cdf(n: int, masses) -> np.ndarray:
    """The normalised cdf `Generator.choice(n, p=masses)` draws from, after its checks on p."""
    p = np.asarray(masses, dtype=float)
    if p.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    if p.size != n:
        raise ValueError("a and p must have same size")
    total = p.sum()
    if np.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if np.any(p < 0.0):
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > math.sqrt(np.finfo(float).eps):
        raise ValueError("Probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


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
    """Exact F over one grid, from the reply slack of every exact opponent draw.

    Draw c admits own rate a exactly when a <= slack_c + tol. The slacks
    never change, so the table keeps how many grid points fit each draw
    (`_exact_fits`: sorted opponent multisets on a symmetric channel); each
    evaluation weights the draws and reads F for the whole grid off one
    bincount and a reverse cumulative sum.
    """

    def __init__(self, view: CapacityRegionView, g: Utility, grid: np.ndarray):
        self.view = view
        self.grid = np.asarray(grid, dtype=float)
        self.m = view.m
        self.gvals = _own_values(g, self.grid)
        self.fits, self.weights = _exact_fits(view, self.grid, self.grid)

    def payoffs(self, masses: np.ndarray, count: int = None) -> np.ndarray:
        """F over the whole grid for the state with these masses, zero beyond the first
        `count` grid points (default: the state's mixed-region gate, `_gate_count`)."""
        if count is None:
            count = _gate_count(self.grid, self.view.total, self.m - 1,
                                float(np.dot(self.grid, masses)))
        # at m = 2 each draw is one opponent rate, weighted by its mass
        weights = masses if self.m == 2 else self.weights(masses)
        F = self.gvals * _fit_mass(self.fits, self.grid.size, weights)
        F[count:] = 0.0   # as `* gate`: g(a) * nu >= +0
        return F


def _payoff_vector(view, gvals, grid, masses, count, table, samples, seed) -> np.ndarray:
    """F over the grid, zero beyond its first `count` points: read off the exact table
    when there is one, else g at each point (`gvals`, from `_own_values`) times the
    admitted mass of one seeded sample of `samples` opponent draws."""
    if table is not None:
        return table.payoffs(masses, count)
    F = gvals * _admitted_mass(view, grid, grid, masses, samples, seed)
    F[count:] = 0.0
    return F


def region_mass(view: CapacityRegionView, a: float, state: PopulationState) -> float:
    """Exact product-measure mass of opponent draws keeping (a, draws) feasible.

    The engine's nu at the single action a, own value 1 (so 0 for a < 0),
    over the exact draws of `_exact_fits` (up to EXACT_ENUM_LIMIT rows).
    """
    actions = np.array([float(a)])
    fits, weights = _exact_fits(view, actions, state.grid)
    nu = _fit_mass(fits, actions.size, weights(state.masses))
    return float(_own_values(np.ones_like, actions)[0] * nu[0])


def _checked_action(view: CapacityRegionView, a) -> float:
    """The action as a float, within 1e-12 of [0, C({1})] (NaN is not), else a ValueError."""
    a = float(a)
    c1 = float(view.single_caps.max())
    if not -1e-12 <= a <= c1 + 1e-12:
        raise ValueError(f"action {a} outside [0, {c1:g}]")
    return a


def expected_payoff(view: CapacityRegionView, g: Utility, a: float,
                    state: PopulationState) -> float:
    """Exact F(a, state): indicator times g(a) times the feasible opponent mass.

    The mass is `region_mass`, within its size cap; expected_payoff_mc is the
    Monte Carlo F with its standard error. An action outside the mixed
    region scores 0 before any enumeration.
    """
    a = _checked_action(view, a)
    actions = np.array([a])
    if not _mixed_gate(view, actions, mean_rate(state))[0]:
        return 0.0
    return float(_own_values(g, actions)[0] * region_mass(view, a, state))


def expected_payoff_mc(view: CapacityRegionView, g: Utility, a: float,
                       state: PopulationState, samples: int = MC_SAMPLES,
                       seed: int = 0) -> tuple:
    """Monte Carlo F(a, state) with its standard error, deterministic per seed.

    An action outside [0, C({1})] raises, as in expected_payoff; one outside
    the mixed region scores (0, 0) without drawing.
    """
    actions = np.array([_checked_action(view, a)])
    if not _mixed_gate(view, actions, mean_rate(state))[0]:
        return 0.0, 0.0
    ga = float(_own_values(g, actions)[0])
    p_hat = float(_admitted_mass(view, actions, state.grid, state.masses, samples, seed)[0])
    return ga * p_hat, ga * math.sqrt(p_hat * (1.0 - p_hat) / samples)
