"""One-shot constrained rate game: payoffs, best replies, equilibria, efficiency.

A user's payoff is g(own rate) when the joint profile is inside the
capacity region and 0 otherwise, for a positive strictly increasing g.
Best replies have a closed form (take the tightest remaining subset
constraint, never drop below the safe rate), the Nash set is exactly the
maximal face, and those profiles are also strong equilibria and Pareto
optimal. Coalition and Pareto verdicts here are brute-force grid checks,
so verdicts are exact up to grid resolution only.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .capacity import (
    CapacityRegionView,
    as_profile,
    face_vertices,
    feasible_rows,
    is_feasible,
    max_face_residual,
    reply_slack,
    sample_max_face,
)

IMPROVEMENT_MARGIN = 1e-9
NASH_TOL = 1e-9
LATTICE_BLOCK_ROWS = 200_000


@dataclass
class Utility:
    """Payoff shape g with optional derivative and inverse derivative."""

    kind: str
    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inv_deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    @classmethod
    def identity(cls) -> "Utility":
        return cls(
            kind="identity",
            fn=lambda x: np.asarray(x, dtype=float) + 0.0,
            deriv=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            inv_deriv=None,
        )

    @classmethod
    def log1p(cls) -> "Utility":
        return cls(
            kind="log1p",
            fn=np.log1p,
            deriv=lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float)),
            inv_deriv=lambda y: 1.0 / np.asarray(y, dtype=float) - 1.0,
        )

    @classmethod
    def power(cls, p: float) -> "Utility":
        if not 0.0 < p < 1.0:
            raise ValueError("power exponent must lie in (0, 1)")
        return cls(
            kind=f"power({p})",
            fn=lambda x: np.asarray(x, dtype=float) ** p,
            deriv=lambda x: p * np.asarray(x, dtype=float) ** (p - 1.0),
            inv_deriv=lambda y: (np.asarray(y, dtype=float) / p) ** (1.0 / (p - 1.0)),
        )

    @classmethod
    def from_table(cls, xs, ys) -> "Utility":
        """Piecewise-linear g from sample points; no derivatives available."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("table needs matching 1-D xs and ys, length >= 2")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("table xs must be strictly increasing")
        return cls(kind="table", fn=lambda x: np.interp(x, xs, ys))

    def validate(self, c_max: float, samples: int = 100) -> None:
        """Check positivity and strict increase on (0, c_max) by sampling."""
        xs = np.linspace(0.0, c_max, samples + 1)[1:]
        vals = self(xs)
        if np.any(vals <= 0.0):
            raise ValueError(f"utility '{self.kind}' is not positive on (0, {c_max:g})")
        if np.any(np.diff(vals) <= 0.0):
            raise ValueError(f"utility '{self.kind}' is not strictly increasing on (0, {c_max:g})")

    def require_strictly_concave(self, c_max: float, samples: int = 100) -> None:
        """Sampled check that g' exists and strictly decreases on (0, c_max)."""
        if self.deriv is None:
            raise ValueError(f"utility '{self.kind}' has no derivative")
        xs = np.linspace(0.0, c_max, samples + 1)[1:]
        dv = np.asarray(self.deriv(xs), dtype=float)
        if np.any(np.diff(dv) >= 0.0):
            raise ValueError(f"utility '{self.kind}' is not strictly concave on (0, {c_max:g})")


def payoff(view: CapacityRegionView, g: Utility, profile, user: int) -> float:
    """g(own rate) inside the region, 0 outside."""
    profile = as_profile(view.m, profile)
    if not is_feasible(view, profile):
        return 0.0
    return float(g(profile[int(user)]))


def best_response(view: CapacityRegionView, g: Utility, user: int, others) -> float:
    """Unique best reply: max(safe rate, tightest remaining subset slack).

    `others` holds the opponents' rates in user order with `user` removed.
    They must be jointly feasible on their own, else there is no feasible
    action for `user` at all.
    """
    user = int(user)
    others = np.atleast_1d(np.asarray(others, dtype=float))
    if others.shape != (view.m - 1,):
        raise ValueError(f"expected {view.m - 1} opponent rates, got {others.shape}")
    slack = reply_slack(view, user, others)
    if slack == -np.inf:
        raise ValueError("no feasible action set: opponents' rates violate the region")
    return max(float(view.safe_rates[user]), slack)


def is_nash(view: CapacityRegionView, g: Utility, profile, tol: float = NASH_TOL) -> bool:
    """Every user already plays its unique best reply, within `tol`."""
    profile = as_profile(view.m, profile)
    if not is_feasible(view, profile):
        return False
    for user in range(view.m):
        others = np.delete(profile, user)
        if abs(best_response(view, g, user, others) - profile[user]) > tol:
            return False
    return True


def _lattice_blocks(axes):
    """Cartesian product of 1-D axes, yielded as (rows, k) float blocks."""
    sizes = tuple(len(a) for a in axes)
    total = int(np.prod(sizes))
    for start in range(0, total, LATTICE_BLOCK_ROWS):
        flat = np.arange(start, min(start + LATTICE_BLOCK_ROWS, total))
        idx = np.unravel_index(flat, sizes)
        yield np.column_stack([np.asarray(axes[d])[idx[d]] for d in range(len(axes))])


def is_strong_equilibrium(view: CapacityRegionView, g: Utility, profile,
                          deviation_grid: int = 25) -> bool:
    """No coalition can make every member strictly better off, on a grid.

    Exhausts every nonempty coalition; each member deviates over a grid of
    `deviation_grid` points spanning [0, C({i})]. Improvements smaller than
    the grid resolution can escape detection.
    """
    m = view.m
    if m > 6:
        raise ValueError("coalition enumeration too large: supported for m <= 6")
    profile = as_profile(m, profile)
    if not is_feasible(view, profile):
        return False
    base_pay = g(profile)
    axes_all = [np.linspace(0.0, float(view.single_caps[i]), deviation_grid)
                for i in range(m)]
    for size in range(1, m + 1):
        for coalition in itertools.combinations(range(m), size):
            members = list(coalition)
            for joint in _lattice_blocks([axes_all[i] for i in members]):
                trial = np.broadcast_to(profile, (joint.shape[0], m)).copy()
                trial[:, members] = joint
                ok = feasible_rows(view, trial)
                if not ok.any():
                    continue
                gains = g(joint) > base_pay[members] + IMPROVEMENT_MARGIN
                if np.any(ok & np.all(gains, axis=1)):
                    return False
    return True


def is_pareto_optimal(view: CapacityRegionView, g: Utility, profile,
                      grid: int = 40) -> bool:
    """Grid oracle: no feasible profile weakly dominates with a strict gain."""
    m = view.m
    if m > 4:
        raise ValueError("Pareto grid oracle supported for m <= 4")
    profile = as_profile(m, profile)
    base = g(profile)
    axes = [np.linspace(0.0, float(view.single_caps[i]), grid) for i in range(m)]
    for cand in _lattice_blocks(axes):
        ok = feasible_rows(view, cand)
        if not ok.any():
            continue
        vals = g(cand)
        weak = np.all(vals >= base, axis=1)
        strict = np.any(vals > base + IMPROVEMENT_MARGIN, axis=1)
        if np.any(ok & weak & strict):
            return False
    return True


def potential(view: CapacityRegionView, g: Utility, profile) -> float:
    """Sum of utilities gated by feasibility; unilateral differences match payoffs."""
    profile = as_profile(view.m, profile)
    if not is_feasible(view, profile):
        return 0.0
    return float(np.sum(g(profile)))


def efficiency_metrics(view: CapacityRegionView, g: Utility,
                       face_samples: int = 500, seed: int = 0) -> dict:
    """Sampled strong price of anarchy, price of stability, and social optimum.

    Equilibrium candidates are face samples, the greedy face vertices, and
    the equal split when it lies on the face. The social optimum is the best
    welfare over those candidates plus interior points (scaled-down copies),
    which is exact for g = id and a face-sampling estimate otherwise.
    """
    g.validate(float(view.single_caps.max()))
    eq = [face_vertices(view)]
    if face_samples > 0:
        eq.append(sample_max_face(view, face_samples, seed=seed))
    split = np.full(view.m, view.total / view.m)
    if max_face_residual(view, split) == 0.0:
        eq.append(split[None, :])
    eq = np.concatenate(eq, axis=0)
    eq_welfare = g(eq).sum(axis=1)

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed + 1)))
    interior = eq * rng.uniform(0.0, 1.0, size=(eq.shape[0], 1))
    social = float(max(eq_welfare.max(), g(interior).sum(axis=1).max()))
    return {
        "spoa": float(eq_welfare.min()) / social,
        "pos": float(eq_welfare.max()) / social,
        "social_opt": social,
    }
