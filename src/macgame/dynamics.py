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
count (`evolution._gate_count`): the gated tail of F and of the BNN
excess is zeroed by one slice, and the Smith rate rows past it stay 0.
Velocities sum to zero by construction; explicit Euler with clip-and-
renormalize keeps the raw mass vector that `simulate` steps on the
simplex; the trace keeps each recorded step's drift and the largest of all.

On a grid of tens of points a step costs numpy dispatch, not arithmetic,
so the step loop takes the cheapest call with the same bits: finiteness is
read off the two extremes raw[raw.argmin()] and raw[raw.argmax()] (argmin
and argmax land on a NaN if there is one), the clip at 0 runs only when
some mass is not positive (max(x, 0) is x for x > 0, but +0.0 for -0.0),
`dt` and the clip bound enter as 0-d arrays, which numpy does not convert
per call, and dot products call the array's `dot` method, which skips the
array-function dispatcher.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import CapacityRegionView
from .game import Utility
from .evolution import PayoffTable, PopulationState, _gate_count, mean_rate
# the run specs live in `specs`; callers still read `dynamics.PROTOCOL_KINDS`
from .specs import PROTOCOL_KINDS, DynamicsRun, Protocol  # noqa: F401

_ZERO = np.zeros(())   # the clip bound as an array, which numpy need not convert per call


def _flow(view: CapacityRegionView, protocol: Protocol, w: np.ndarray, lam: np.ndarray,
          F: np.ndarray, count: int, Fbar: float) -> np.ndarray:
    """Velocity at masses `lam`, base weights w, payoffs F (mean Fbar), no inflow beyond the
    first `count` grid points (the mixed-region gate); `view` is unread but keeps
    `protocol` second, where perfbench/tracing.py tags spans."""
    kind, K = protocol.kind, protocol.K
    if kind == "bnn":
        excess = F - Fbar
        np.maximum(excess, _ZERO, out=excess)
        excess[count:] = 0.0
        v = w * excess
        v -= lam * w.dot(excess)
    elif kind == "replicator":
        return K * lam * (F - Fbar)
    else:
        # smith: R[i, j] is the switch rate from j to i, gated on the target i (the rows
        # past the count stay 0)
        R = np.zeros((F.size, F.size))
        rates = R[:count]
        np.subtract(F[:count, None], F, out=rates)
        np.maximum(rates, _ZERO, out=rates)
        theta = protocol.theta
        if theta == 2.0:
            rates *= rates   # numpy's ** 2.0 squares
        elif theta != 1.0:
            rates **= theta
        v = w * R.dot(lam)
        v -= lam * w.dot(R)
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


def euler_update(masses: np.ndarray, v: np.ndarray, dt) -> tuple:
    """One explicit Euler step on the simplex; returns (new masses, drift).

    Drift is how far the clipped update strays from total mass 1 before
    renormalization. `dt` is a float or, as `simulate` passes it, a 0-d array.
    """
    raw = dt * v
    raw += masses
    lo, hi = raw[raw.argmin()], raw[raw.argmax()]   # a NaN is both, if there is one
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("step size too large: masses diverged")
    if lo <= 0.0:   # max(x, 0) is x for x > 0, but +0.0 for x = -0.0
        np.maximum(raw, _ZERO, out=raw)
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
    step = np.array(dt, dtype=float)
    points, total, others = grid.tolist(), view.total, view.m - 1
    rows, drift, top = [], 0.0, 0.0
    for k in range(steps + 1):
        if k:
            masses, drift = euler_update(masses, v, step)
            top = drift if drift > top else top   # every step's, not only the recorded ones
        mean = float(grid.dot(masses))
        count = _gate_count(points, total, others, mean)
        F = _payoff_vector(table, masses, count)
        Fbar = float(masses.dot(F))
        v = _flow(view, protocol, w, masses, F, count, Fbar)
        if k % every == 0 or k == steps:
            rows.append((k * dt, mean, Fbar, float(np.add.reduce(np.abs(v))), drift))
    return Trace(*(np.array(col) for col in zip(*rows)),
                 final_state=PopulationState(grid, masses), max_drift=top)
