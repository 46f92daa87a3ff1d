"""Evolutionary statics on a discretized action grid.

A population state is a probability vector over a fixed grid of rates in
[0, C({1})]. The symmetric game has a unique symmetric pure equilibrium at
the equal split C(N)/m, which is also the unique constrained ESS. The
expected payoff of playing rate a against m-1 opponents drawn iid from
the state factorizes as

    F(a, state) = [a <= C(N) - (m-1)*E] * g(a) * nu(D_a),

where E is the state's mean rate and nu(D_a) the product-measure mass of
opponent draws that keep the joint profile feasible. A draw admits a
exactly when a <= slack + tol, with slack the focal user's reply slack
against it, so nu over a whole sorted grid is one bincount of how many
grid points fit each draw. Both an exact enumeration of the opponent grid
and a seeded Monte Carlo estimator are provided.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .capacity import (
    FEASIBILITY_TOL,
    CapacityRegionView,
    is_feasible,
    max_face_residual,
    reply_slack,
)
from .game import Utility, payoff

MASS_TOL = 1e-9
INDICATOR_SLACK = 1e-12
EXACT_ENUM_LIMIT = 10_000_000


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
    """Probability masses over a sorted action grid, plus base-measure weights."""

    grid: np.ndarray
    masses: np.ndarray
    base_weights: np.ndarray = None

    def __post_init__(self):
        self.grid = np.atleast_1d(np.asarray(self.grid, dtype=float))
        self.masses = np.atleast_1d(np.asarray(self.masses, dtype=float)).copy()
        if self.grid.ndim != 1 or self.grid.size < 1:
            raise ValueError("grid must be a non-empty 1-D array")
        if self.grid.size > 1 and np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if self.masses.shape != self.grid.shape:
            raise ValueError("masses must match grid length")
        if self.masses.min() < -1e-12:
            raise ValueError(f"negative mass {self.masses.min():.3e}")
        np.clip(self.masses, 0.0, None, out=self.masses)
        if abs(float(self.masses.sum()) - 1.0) > MASS_TOL:
            raise ValueError(f"masses sum to {self.masses.sum():.12f}, not 1")
        if self.base_weights is None:
            if self.grid.size > 1:
                step = (self.grid[-1] - self.grid[0]) / (self.grid.size - 1)
            else:
                step = 1.0
            self.base_weights = np.full(self.grid.size, step)
        else:
            self.base_weights = np.atleast_1d(np.asarray(self.base_weights, dtype=float))
            if self.base_weights.shape != self.grid.shape or np.any(self.base_weights <= 0):
                raise ValueError("base weights must be positive and match grid length")

    @property
    def n(self) -> int:
        return int(self.grid.size)

    @classmethod
    def uniform(cls, grid) -> "PopulationState":
        grid = np.asarray(grid, dtype=float)
        return cls(grid, np.full(grid.size, 1.0 / grid.size))

    @classmethod
    def dirac(cls, grid, value: float) -> "PopulationState":
        grid = np.asarray(grid, dtype=float)
        i = int(np.argmin(np.abs(grid - value)))
        if abs(grid[i] - value) > 1e-12:
            raise ValueError(f"value {value} is not a grid point (nearest {grid[i]})")
        masses = np.zeros(grid.size)
        masses[i] = 1.0
        return cls(grid, masses)

    def replace_masses(self, masses: np.ndarray) -> "PopulationState":
        return PopulationState(self.grid, masses, self.base_weights)


def mean_rate(state: PopulationState) -> float:
    return float(np.dot(state.grid, state.masses))


def symmetric_equilibrium(view: CapacityRegionView) -> float:
    """The equal split C(N)/m, the unique symmetric pure equilibrium rate."""
    if not view.model.symmetric:
        raise ValueError("symmetric equilibrium requires a symmetric channel")
    rstar = view.total / view.m
    if view.safe_rates.max() > rstar + 1e-12:
        raise ValueError("safe rate exceeds the equal split; channel data corrupt")
    if max_face_residual(view, np.full(view.m, rstar)) != 0.0:
        raise ValueError("equal split is off the maximal face; channel data corrupt")
    return rstar


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
    """Resident rate plus the mutant/invasion-share grids to probe."""

    resident: float
    mutant_grid: int = 50
    epsilon_grid: tuple = (0.1, 0.01, 0.001)

    def __post_init__(self):
        if self.mutant_grid < 2:
            raise ValueError("mutant grid needs at least 2 points")
        if not all(0.0 < e < 1.0 for e in self.epsilon_grid):
            raise ValueError("invasion shares must lie in (0, 1)")


@dataclass
class EssResult:
    is_ess: bool
    witness: Optional[tuple]       # failing (mutant, epsilon), if any
    infeasible_invasions: int = 0  # mutants whose invaded profile never fits the region


def ess_check(view: CapacityRegionView, g: Utility, spec: EssTestSpec) -> EssResult:
    """Invasion test for a symmetric resident rate.

    For each mutant rate on a grid over [0, C(N)/m] and the smallest
    invasion share that keeps the invaded monomorphic profile feasible, the
    resident must strictly outperform the mutant; the first failure is
    returned as a witness. Mutants that cannot invade feasibly at any share
    are counted separately and never threaten the resident.
    """
    m = view.m
    if not view.model.symmetric:
        raise ValueError("ESS test requires a symmetric channel")
    rstar = view.total / m
    r = float(spec.resident)
    if not -1e-12 <= r <= rstar + 1e-12:
        raise ValueError(f"resident {r} outside the feasible symmetric range [0, {rstar:g}]")
    g.validate(float(view.single_caps.max()))

    mutants = np.linspace(0.0, rstar, spec.mutant_grid)
    eps_sorted = sorted(spec.epsilon_grid)
    infeasible = 0
    for mut in mutants:
        mut = float(mut)
        if abs(mut - r) <= 1e-12:
            continue
        invaded = None
        for eps in eps_sorted:
            r_eps = eps * mut + (1.0 - eps) * r
            if is_feasible(view, np.full(m, r_eps)):
                invaded = (eps, r_eps)
                break
        if invaded is None:
            infeasible += 1
            continue
        eps, r_eps = invaded
        background = np.full(m, r_eps)
        res_profile = background.copy()
        res_profile[0] = r
        mut_profile = background.copy()
        mut_profile[0] = mut
        u_res = payoff(view, g, res_profile, 0)
        u_mut = payoff(view, g, mut_profile, 0)
        if not u_res > u_mut + 1e-12:
            return EssResult(is_ess=False, witness=(mut, eps),
                             infeasible_invasions=infeasible)
    return EssResult(is_ess=True, witness=None, infeasible_invasions=infeasible)


def _opponent_slack(view: CapacityRegionView, grid: np.ndarray) -> np.ndarray:
    """Reply slack of user 0 against every combination of m - 1 grid points, in C order."""
    k = view.m - 1
    combos = grid.size ** k
    if combos > EXACT_ENUM_LIMIT:
        raise ValueError(
            f"exact enumeration needs {combos} combos (> {EXACT_ENUM_LIMIT}); "
            "use the Monte Carlo method")
    idx = np.indices((grid.size,) * k).reshape(k, combos)
    return reply_slack(view, 0, grid[idx].T)


def _combo_weights(masses: np.ndarray, k: int) -> np.ndarray:
    """Product-measure weight of every combination of k opponents, in C order."""
    weights = masses if k else np.ones(1)
    for _ in range(k - 1):
        weights = np.multiply.outer(weights, masses).ravel()
    return weights


def _sampled_slack(view: CapacityRegionView, state: PopulationState, samples: int,
                   seed) -> np.ndarray:
    """Reply slack of user 0 against `samples` iid opponent draws; seed: int or SeedSequence."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.Philox(seed))
    idx = rng.choice(state.n, size=(samples, view.m - 1), p=state.masses)
    return reply_slack(view, 0, state.grid[idx])


def region_mass(view: CapacityRegionView, a: float, state: PopulationState) -> float:
    """Exact product-measure mass of opponent draws keeping (a, draws) feasible.

    The weight of the opponent grid combinations whose reply slack admits
    a; all n**(m-1) of them are enumerated, up to EXACT_ENUM_LIMIT.
    """
    slack = _opponent_slack(view, state.grid)
    weights = _combo_weights(state.masses, view.m - 1)
    return float(weights[(a >= -FEASIBILITY_TOL) & (a <= slack + FEASIBILITY_TOL)].sum())


def _indicator(view: CapacityRegionView, a: float, state: PopulationState) -> bool:
    bound = view.total - (view.m - 1) * mean_rate(state)
    return -INDICATOR_SLACK <= a <= bound + INDICATOR_SLACK


def expected_payoff(view: CapacityRegionView, g: Utility, a: float,
                    state: PopulationState, method: str = "exact",
                    samples: int = 100_000, seed: int = 0) -> float:
    """F(a, state): indicator times g(a) times the feasible opponent mass.

    method="exact" enumerates the full opponent grid (within the size cap);
    method="montecarlo" averages `samples` iid opponent draws, deterministic
    per seed. Use expected_payoff_mc for the standard error as well.
    """
    a = float(a)
    c1 = float(view.single_caps.max())
    if not -1e-12 <= a <= c1 + 1e-12:
        raise ValueError(f"action {a} outside [0, {c1:g}]")
    if not _indicator(view, a, state):
        return 0.0
    if method == "exact":
        return float(g(a)) * region_mass(view, a, state)
    if method == "montecarlo":
        value, _ = expected_payoff_mc(view, g, a, state, samples=samples, seed=seed)
        return value
    raise ValueError(f"unknown method '{method}'")


def expected_payoff_mc(view: CapacityRegionView, g: Utility, a: float,
                       state: PopulationState, samples: int = 100_000,
                       seed: int = 0) -> tuple:
    """Monte Carlo F(a, state) with its standard error, deterministic per seed."""
    a = float(a)
    if not _indicator(view, a, state):
        return 0.0, 0.0
    hits = a <= _sampled_slack(view, state, samples, seed) + FEASIBILITY_TOL
    p_hat = float(hits.mean())
    ga = float(g(a))
    stderr = ga * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
    return ga * p_hat, stderr
