"""One-shot constrained rate game: payoffs, best replies, equilibria, efficiency.

A user's payoff is g(own rate) when the joint profile is inside the
capacity region and 0 otherwise, for a positive strictly increasing g.
Best replies have a closed form (take the tightest remaining subset
constraint, never drop below the safe rate), the Nash set is exactly the
maximal face, and those profiles are also strong equilibria and Pareto
optimal. The region is down-closed and g strictly increasing, so any
coalition gain or Pareto improvement can also be had by one member alone,
moving to its reply slack: all three verdicts read the same m slack
queries of the prefix oracle, exactly and for any m. Efficiency metrics
are scored on the face's greedy vertices and the exact welfare optimum.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .capacity import (
    CapacityRegionView,
    as_profile,
    face_vertices,
    is_feasible,
    max_weighted_base,
    reply_slack,
)

IMPROVEMENT_MARGIN = 1e-9
NASH_TOL = 1e-9


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


def _reply_slacks(view: CapacityRegionView, profile: np.ndarray):
    """Yield (user, reply slack against the rest of `profile`), lazily, in user order."""
    for user in range(view.m):
        yield user, reply_slack(view, user, np.delete(profile, user))


def is_nash(view: CapacityRegionView, g: Utility, profile, tol: float = NASH_TOL) -> bool:
    """Every user already plays its unique best reply, within `tol`."""
    profile = as_profile(view.m, profile)
    return is_feasible(view, profile) and all(
        abs(max(float(view.safe_rates[user]), slack) - profile[user]) <= tol
        for user, slack in _reply_slacks(view, profile))


def is_strong_equilibrium(view: CapacityRegionView, g: Utility, profile,
                          tol: float = IMPROVEMENT_MARGIN) -> bool:
    """No coalition can raise every member's payoff by more than `tol`.

    Exact: a coalition that could would let each member gain alone by
    moving to its reply slack (down-closed region, increasing g), so the
    test is that the profile is feasible and g(slack_i) <= g(alpha_i) + tol
    for every user i. O(m^2 log m), no cap on m.
    """
    profile = as_profile(view.m, profile)
    return is_feasible(view, profile) and all(
        g(slack) <= g(profile[user]) + tol for user, slack in _reply_slacks(view, profile))


def is_pareto_optimal(view: CapacityRegionView, g: Utility, profile,
                      tol: float = IMPROVEMENT_MARGIN) -> bool:
    """Feasible, and no feasible profile weakly dominates it with a gain above `tol`.

    A dominating profile lifts some user i by more than `tol`, and so does
    (slack_i, others), which it dominates; the test is therefore the same
    exact one as `is_strong_equilibrium`.
    """
    profile = as_profile(view.m, profile)
    return is_feasible(view, profile) and all(
        g(slack) <= g(profile[user]) + tol for user, slack in _reply_slacks(view, profile))


def potential(view: CapacityRegionView, g: Utility, profile) -> float:
    """Sum of utilities gated by feasibility; unilateral differences match payoffs."""
    profile = as_profile(view.m, profile)
    if not is_feasible(view, profile):
        return 0.0
    return float(np.sum(g(profile)))


def efficiency_metrics(view: CapacityRegionView, g: Utility, seed: int = 0) -> dict:
    """Strong price of anarchy, price of stability, and social optimum.

    The Nash set is the maximal face, where a concave welfare is lowest at
    a greedy vertex: all m! of them are scored for m <= 6, a sample drawn
    with `seed` beyond. For increasing g the social optimum lies on the
    face too; when g has an inverse derivative the exact tau = 1 optimum
    (`max_weighted_base`) joins the candidates, else the best vertex
    stands in (exact for g = id).
    """
    g.validate(float(view.single_caps.max()))
    eq = face_vertices(view, seed=seed)
    if g.inv_deriv is not None:
        opt, _ = max_weighted_base(view, g.deriv, g.inv_deriv, np.ones(view.m))
        eq = np.vstack([eq, opt])
    welfare = g(eq).sum(axis=1)
    social = float(welfare.max())
    return {"spoa": float(welfare.min()) / social, "pos": float(welfare.max()) / social,
            "social_opt": social}
