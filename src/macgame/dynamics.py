"""Constrained evolutionary dynamics on the discretized action grid.

Three revision protocols drive the population flow, all built from the
expected payoffs F_i of the grid actions against the current state and
gated so that no mass ever flows toward an action outside the mixed
capacity region (target gating; mass on newly infeasible actions is free
to leave):

  bnn         inflow proportional to positive excess payoff over the
              population average, uniform outflow
  replicator  imitative: growth rate equals payoff minus average, so the
              support never grows
  smith       pairwise comparisons, switch rate max(F_j - F_i, 0)^theta

Velocities sum to zero by construction; explicit Euler with clip-and-
renormalize keeps states on the simplex and reports the per-step drift.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import FEASIBILITY_TOL, CapacityRegionView
from .game import Utility
from .evolution import (
    INDICATOR_SLACK,
    PopulationState,
    _combo_weights,
    _opponent_slack,
    _sampled_slack,
    mean_rate,
)


@dataclass(frozen=True)
class Protocol:
    """Revision protocol: kind, Smith exponent theta, growth parameter K."""

    kind: str
    theta: float = 1.0
    K: float = 1.0

    def __post_init__(self):
        if self.kind not in ("bnn", "replicator", "smith"):
            raise ValueError(f"unknown protocol '{self.kind}'")
        if self.kind == "smith" and self.theta < 1.0:
            raise ValueError("theta must be >= 1")
        if self.K <= 0.0:
            raise ValueError("growth parameter K must be positive")

    @classmethod
    def bnn(cls, K: float = 1.0) -> "Protocol":
        return cls("bnn", K=K)

    @classmethod
    def replicator(cls, K: float = 1.0) -> "Protocol":
        return cls("replicator", K=K)

    @classmethod
    def smith(cls, theta: float = 1.0, K: float = 1.0) -> "Protocol":
        return cls("smith", theta=theta, K=K)


def _gate(view: CapacityRegionView, grid: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Grid actions inside the mixed region against these masses."""
    bound = view.total - (view.m - 1) * float(np.dot(grid, masses))
    return grid <= bound + INDICATOR_SLACK


def _own_values(g: Utility, grid: np.ndarray) -> np.ndarray:
    """g at each grid rate; 0 where the rate is negative and so never feasible."""
    return np.where(grid >= -FEASIBILITY_TOL, np.asarray(g(grid), dtype=float), 0.0)


def _fit_mass(fits: np.ndarray, size: int, weights=None) -> np.ndarray:
    """Weight (1 per draw unweighted) of the draws admitting each of `size` grid points.

    fits[c] counts the grid points <= slack_c + tol, so draw c admits point
    i exactly when i < fits[c]; `_own_values` zeroes negative rates.
    """
    return np.bincount(fits, weights, minlength=size + 1)[::-1].cumsum()[::-1][1:]


class PayoffTable:
    """Exact F over one grid, from the reply slack of every opponent combination.

    Combination c of opponent grid points admits own rate a exactly when
    a <= slack_c + tol. The slacks never change, so the table keeps how
    many grid points fit each combination; each evaluation weights the
    n**(m-1) combinations by the product of their masses and reads F for
    the whole grid off one bincount and a reverse cumulative sum.
    """

    def __init__(self, view: CapacityRegionView, g: Utility, grid: np.ndarray):
        self.view = view
        self.grid = np.asarray(grid, dtype=float)
        self.m = view.m
        self.gvals = _own_values(g, self.grid)
        slack = _opponent_slack(view, self.grid)
        self.fits = np.searchsorted(self.grid, slack + FEASIBILITY_TOL, side="right")

    def payoffs(self, masses: np.ndarray) -> np.ndarray:
        """F over the whole grid for the state with these masses."""
        nu = _fit_mass(self.fits, self.grid.size, _combo_weights(masses, self.m - 1))
        return self.gvals * nu * _gate(self.view, self.grid, masses)


def _payoff_vector(view, g, state, table, payoff_method, samples, seed_seq):
    if table is not None or payoff_method == "exact":
        return (table or PayoffTable(view, g, state.grid)).payoffs(state.masses)
    if payoff_method == "montecarlo":
        # one opponent sample per call; every grid point reads F off it
        slack = _sampled_slack(view, state, samples, 0 if seed_seq is None else seed_seq)
        fits = np.searchsorted(state.grid, slack + FEASIBILITY_TOL, side="right")
        nu = _fit_mass(fits, state.n) / samples
        return _own_values(g, state.grid) * nu * _gate(view, state.grid, state.masses)
    raise ValueError(f"unknown payoff method '{payoff_method}'")


def _flow(view: CapacityRegionView, protocol: Protocol, state: PopulationState,
          F: np.ndarray) -> np.ndarray:
    """Protocol velocity given the payoff vector F at this state."""
    lam = state.masses
    w = state.base_weights
    K = protocol.K
    Fbar = float(np.dot(lam, F))
    gate = _gate(view, state.grid, lam)
    if protocol.kind == "bnn":
        excess = np.maximum(F - Fbar, 0.0)
        excess[~gate] = 0.0
        return K * (w * excess - lam * float(np.dot(w, excess)))
    if protocol.kind == "replicator":
        return K * lam * (F - Fbar)
    # smith: R[i, j] is the switch rate from j to i, gated on the target i
    R = np.maximum(F[:, None] - F[None, :], 0.0) ** protocol.theta
    R[~gate, :] = 0.0
    return K * (w * (R @ lam) - lam * (w @ R))


def velocity(view: CapacityRegionView, g: Utility, protocol: Protocol,
             state: PopulationState, table: PayoffTable = None,
             payoff_method: str = "exact", samples: int = 100_000,
             seed_seq=None) -> np.ndarray:
    """Population flow of the given protocol at this state; sums to zero."""
    F = _payoff_vector(view, g, state, table, payoff_method, samples, seed_seq)
    return _flow(view, protocol, state, F)


def euler_update(masses: np.ndarray, v: np.ndarray, dt: float) -> tuple:
    """One explicit Euler step on the simplex; returns (new masses, drift).

    Drift is how far the clipped update strays from total mass 1 before
    renormalization.
    """
    raw = masses + dt * v
    if not np.all(np.isfinite(raw)):
        raise ValueError("step size too large: masses diverged")
    clipped = np.maximum(raw, 0.0)
    s = float(clipped.sum())
    if s <= 0.0:
        raise ValueError("step size too large: all mass clipped away")
    return clipped / s, abs(s - 1.0)


def step(view: CapacityRegionView, g: Utility, protocol: Protocol,
         state: PopulationState, dt: float, table: PayoffTable = None) -> PopulationState:
    """Advance the state by one Euler step of the protocol flow."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    v = velocity(view, g, protocol, state, table=table)
    masses, _ = euler_update(state.masses, v, dt)
    return state.replace_masses(masses)


def rest_point_residual(view: CapacityRegionView, g: Utility, protocol: Protocol,
                        state: PopulationState, table: PayoffTable = None) -> float:
    """L1 norm of the protocol velocity; zero exactly at rest points."""
    return float(np.abs(velocity(view, g, protocol, state, table=table)).sum())


@dataclass
class DynamicsRun:
    """Everything one simulation needs, with explicit-Euler defaults."""

    protocol: Protocol
    state0: PopulationState
    dt: float = 0.01
    steps: int = 20_000
    record_every: int = 100
    seed: int = 0
    payoff_method: str = "exact"
    samples: int = 100_000

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.payoff_method not in ("exact", "montecarlo"):
            raise ValueError(f"unknown payoff method '{self.payoff_method}'")


@dataclass
class Trace:
    """Recorded trajectory: one row per sampled tick, plus the final state."""

    t: np.ndarray
    mean_rate: np.ndarray
    avg_payoff: np.ndarray
    velocity_l1: np.ndarray
    mass_drift: np.ndarray
    final_state: PopulationState

    @property
    def max_drift(self) -> float:
        return float(self.mass_drift.max())


def simulate(view: CapacityRegionView, g: Utility, run: DynamicsRun) -> Trace:
    """Iterate the Euler steps, recording every `record_every` ticks.

    Exact payoffs reuse one precomputed slack table; Monte Carlo payoffs
    draw one opponent sample per step from a deterministic substream and
    read every grid point off it, so traces are reproducible for a given
    seed either way.
    """
    state = run.state0
    table = None
    if run.payoff_method == "exact":
        table = PayoffTable(view, g, state.grid)

    rows = {k: [] for k in ("t", "mean_rate", "avg_payoff", "velocity_l1", "mass_drift")}

    def payoffs_at(k: int) -> np.ndarray:
        seq = None
        if run.payoff_method == "montecarlo":
            seq = np.random.SeedSequence(run.seed, spawn_key=(k,))
        return _payoff_vector(view, g, state, table, run.payoff_method,
                              run.samples, seq)

    def record(k: int, F: np.ndarray, v: np.ndarray, drift: float):
        rows["t"].append(k * run.dt)
        rows["mean_rate"].append(mean_rate(state))
        rows["avg_payoff"].append(float(np.dot(state.masses, F)))
        rows["velocity_l1"].append(float(np.abs(v).sum()))
        rows["mass_drift"].append(drift)

    F = payoffs_at(0)
    v = _flow(view, run.protocol, state, F)
    drift = 0.0
    record(0, F, v, drift)
    for k in range(1, run.steps + 1):
        masses, drift = euler_update(state.masses, v, run.dt)
        state = state.replace_masses(masses)
        F = payoffs_at(k)
        v = _flow(view, run.protocol, state, F)
        if k % run.record_every == 0 or k == run.steps:
            record(k, F, v, drift)
    return Trace(
        t=np.array(rows["t"]),
        mean_rate=np.array(rows["mean_rate"]),
        avg_payoff=np.array(rows["avg_payoff"]),
        velocity_l1=np.array(rows["velocity_l1"]),
        mass_drift=np.array(rows["mass_drift"]),
        final_state=state,
    )
