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

F comes from the run's one `evolution.PayoffTable`, exact or Monte Carlo,
read over the whole grid. The grid is strictly
increasing, so the mixed-region gate is a prefix of it and is carried as a
count (`evolution._gate_count`): the gated tail of F, of the BNN excess
and of the Smith rate rows is zeroed by one slice.
Velocities sum to zero by construction; explicit Euler with clip-and-
renormalize keeps the raw mass vector that `simulate` steps on the
simplex; the trace keeps each recorded step's drift and the largest of all.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import CapacityRegionView
from .game import Utility
from .evolution import (
    MC_SAMPLES,
    PayoffTable,
    PopulationState,
    _gate_count,
    mean_rate,
)

PROTOCOL_KINDS = ("bnn", "replicator", "smith")
PAYOFF_METHODS = ("exact", "montecarlo")


@dataclass(frozen=True)
class Protocol:
    """Revision protocol: kind, Smith exponent theta, growth parameter K."""

    kind: str
    theta: float = 1.0
    K: float = 1.0

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise ValueError(f"unknown protocol '{self.kind}'")
        if self.kind == "smith" and not self.theta >= 1.0:
            raise ValueError("theta must be >= 1")
        if not self.K > 0.0:
            raise ValueError("growth parameter K must be positive")

    # the defaults below are read from the fields above, in the class body
    @classmethod
    def bnn(cls, K: float = K) -> "Protocol":
        return cls("bnn", K=K)

    @classmethod
    def replicator(cls, K: float = K) -> "Protocol":
        return cls("replicator", K=K)

    @classmethod
    def smith(cls, theta: float = theta, K: float = K) -> "Protocol":
        return cls("smith", theta=theta, K=K)


def _flow(view: CapacityRegionView, protocol: Protocol, w: np.ndarray, lam: np.ndarray,
          F: np.ndarray, count: int, Fbar: float) -> np.ndarray:
    """Velocity at masses `lam`, base weights w, payoffs F (mean Fbar), no inflow beyond the
    first `count` grid points (the mixed-region gate); `view` is unread but keeps
    `protocol` second, where perfbench/tracing.py tags spans."""
    kind, K = protocol.kind, protocol.K
    if kind == "bnn":
        excess = np.maximum(F - Fbar, 0.0)
        excess[count:] = 0.0
        v = w * excess
        v -= lam * float(np.dot(w, excess))
    elif kind == "replicator":
        return K * lam * (F - Fbar)
    else:
        # smith: R[i, j] is the switch rate from j to i, gated on the target i
        R = np.subtract.outer(F, F)
        np.maximum(R, 0.0, out=R)
        theta = protocol.theta
        if theta == 2.0:
            R *= R   # numpy's ** 2.0 squares
        elif theta != 1.0:
            R **= theta
        R[count:] = 0.0
        v = w * (R @ lam)
        v -= lam * (w @ R)
    v *= K
    return v


def velocity(view: CapacityRegionView, g: Utility, protocol: Protocol,
             state: PopulationState, table: PayoffTable = None) -> np.ndarray:
    """Population flow of the given protocol at this state, on exact payoffs read off
    `table` (without one, a `PayoffTable` on the state's grid); sums to zero."""
    if table is None:
        table = PayoffTable(view, g, state.grid)
    count = _gate_count(state.grid, view.total, view.m - 1, mean_rate(state))
    F = table.payoffs(state.masses, count)
    return _flow(view, protocol, state.base_weights, state.masses, F, count,
                 float(np.dot(state.masses, F)))


# A function of its own so that perfbench/tracing.py times each step's payoffs in one span.
def _payoff_vector(table: PayoffTable, masses: np.ndarray, count: int) -> np.ndarray:
    return table.payoffs(masses, count)


def euler_update(masses: np.ndarray, v: np.ndarray, dt: float) -> tuple:
    """One explicit Euler step on the simplex; returns (new masses, drift).

    Drift is how far the clipped update strays from total mass 1 before
    renormalization.
    """
    raw = dt * v
    raw += masses
    if not np.logical_and.reduce(np.isfinite(raw)):
        raise ValueError("step size too large: masses diverged")
    np.maximum(raw, 0.0, out=raw)
    s = float(np.add.reduce(raw))
    if s <= 0.0:
        raise ValueError("step size too large: all mass clipped away")
    raw /= s
    return raw, abs(s - 1.0)


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
    samples: int = MC_SAMPLES

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.payoff_method not in PAYOFF_METHODS:
            raise ValueError(f"unknown payoff method '{self.payoff_method}'")
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")


@dataclass
class Trace:
    """Recorded trajectory: rows at the sampled ticks, final state, largest drift of any step."""

    t: np.ndarray
    mean_rate: np.ndarray
    avg_payoff: np.ndarray
    velocity_l1: np.ndarray
    mass_drift: np.ndarray
    final_state: PopulationState
    max_drift: float


def simulate(view: CapacityRegionView, g: Utility, run: DynamicsRun) -> Trace:
    """Iterate the Euler steps on the raw masses, recording every `record_every` ticks.

    Payoffs come off one `PayoffTable` for the run: exact, or Monte Carlo with
    step k drawing its sample from the seed's child stream k, so traces are
    reproducible for a given seed either way.
    """
    grid, w, masses = run.state0.grid, run.state0.base_weights, run.state0.masses
    table = (PayoffTable(view, g, grid) if run.payoff_method == "exact"
             else PayoffTable(view, g, grid, run.samples, run.seed))
    protocol, dt, steps, every = run.protocol, run.dt, run.steps, run.record_every
    points, total, others = grid.tolist(), view.total, view.m - 1
    rows, drift, top = [], 0.0, 0.0
    for k in range(steps + 1):
        if k:
            masses, drift = euler_update(masses, v, dt)
            top = drift if drift > top else top   # every step's, not only the recorded ones
        mean = float(np.dot(grid, masses))
        count = _gate_count(points, total, others, mean)
        F = _payoff_vector(table, masses, count)
        Fbar = float(np.dot(masses, F))
        v = _flow(view, protocol, w, masses, F, count, Fbar)
        if k % every == 0 or k == steps:
            rows.append((k * dt, mean, Fbar, float(np.add.reduce(np.abs(v))), drift))
    return Trace(*(np.array(col) for col in zip(*rows)),
                 final_state=PopulationState(grid, masses), max_drift=top)
