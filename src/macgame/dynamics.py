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

F comes from the payoff engine in `evolution`, read over the whole grid.
Velocities sum to zero by construction; explicit Euler with clip-and-
renormalize keeps the raw mass vector that `simulate` steps on the
simplex, and reports the per-step drift.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import CapacityRegionView
from .game import Utility
from .evolution import (
    MC_SAMPLES,
    PAYOFF_METHODS,
    PopulationState,
    _admitted_mass,
    _exact_fits,
    _fit_mass,
    _mixed_gate,
    _own_values,
    mean_rate,
)

PROTOCOL_KINDS = ("bnn", "replicator", "smith")


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


class PayoffTable:
    """Exact F over one grid, from the reply slack of every exact opponent draw.

    Draw c admits own rate a exactly when a <= slack_c + tol. The slacks
    never change, so the table keeps how many grid points fit each draw
    (`evolution._exact_fits`: sorted opponent multisets on a symmetric
    channel); each evaluation weights the draws and reads F for the whole
    grid off one bincount and a reverse cumulative sum.
    """

    def __init__(self, view: CapacityRegionView, g: Utility, grid: np.ndarray):
        self.view = view
        self.grid = np.asarray(grid, dtype=float)
        self.m = view.m
        self.gvals = _own_values(g, self.grid)
        self.fits, self.weights = _exact_fits(view, self.grid, self.grid)

    def payoffs(self, masses: np.ndarray, gate: np.ndarray = None) -> np.ndarray:
        """F over the whole grid for the state with these masses (and its mixed-region gate)."""
        if gate is None:
            gate = _mixed_gate(self.view, self.grid, float(np.dot(self.grid, masses)))
        return self.gvals * _fit_mass(self.fits, self.grid.size, self.weights(masses)) * gate


def _payoff_vector(view, g, grid, masses, gate, table=None, samples=None, seed=0):
    """F over the grid, gated: read off the exact table when there is one, else from
    one seeded sample of `samples` opponent draws (exact draws when samples is None)."""
    if table is not None:
        return table.payoffs(masses, gate)
    return _own_values(g, grid) * _admitted_mass(view, grid, grid, masses, samples, seed) * gate


def _flow(view: CapacityRegionView, protocol: Protocol, w: np.ndarray, lam: np.ndarray,
          F: np.ndarray, gate: np.ndarray, Fbar: float) -> np.ndarray:
    """Velocity at masses `lam`, base weights w, payoffs F (mean Fbar), mixed-region gate;
    `view` is unread but keeps `protocol` second, where perfbench/tracing.py tags spans."""
    K = protocol.K
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
             state: PopulationState, table: PayoffTable = None) -> np.ndarray:
    """Population flow of the given protocol at this state, on exact payoffs; sums to zero."""
    gate = _mixed_gate(view, state.grid, mean_rate(state))
    F = _payoff_vector(view, g, state.grid, state.masses, gate, table)
    return _flow(view, protocol, state.base_weights, state.masses, F, gate,
                 float(np.dot(state.masses, F)))


def euler_update(masses: np.ndarray, v: np.ndarray, dt: float) -> tuple:
    """One explicit Euler step on the simplex; returns (new masses, drift).

    Drift is how far the clipped update strays from total mass 1 before
    renormalization.
    """
    raw = masses + dt * v
    if not np.isfinite(raw).all():
        raise ValueError("step size too large: masses diverged")
    clipped = np.maximum(raw, 0.0)
    s = float(clipped.sum())
    if s <= 0.0:
        raise ValueError("step size too large: all mass clipped away")
    return clipped / s, abs(s - 1.0)


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
    """Iterate the Euler steps on the raw masses, recording every `record_every` ticks.

    Exact payoffs reuse one precomputed slack table; Monte Carlo payoffs
    draw one opponent sample per step from a deterministic substream, so
    traces are reproducible for a given seed either way.
    """
    grid, w, masses = run.state0.grid, run.state0.base_weights, run.state0.masses
    table = PayoffTable(view, g, grid) if run.payoff_method == "exact" else None
    rows, drift = [], 0.0
    for k in range(run.steps + 1):
        if k:
            masses, drift = euler_update(masses, v, run.dt)
        mean = float(np.dot(grid, masses))
        gate = _mixed_gate(view, grid, mean)
        seed = 0 if table is not None else np.random.SeedSequence(run.seed, spawn_key=(k,))
        F = _payoff_vector(view, g, grid, masses, gate, table, run.samples, seed)
        Fbar = float(np.dot(masses, F))
        v = _flow(view, run.protocol, w, masses, F, gate, Fbar)
        if k % run.record_every == 0 or k == run.steps:
            rows.append((k * run.dt, mean, Fbar, float(np.abs(v).sum()), drift))
    return Trace(*(np.array(col) for col in zip(*rows)),
                 final_state=PopulationState(grid, masses))
