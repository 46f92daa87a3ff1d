"""One-shot constrained rate game: payoffs, best replies, equilibria, efficiency.

A user's payoff is g(own rate) when the joint profile is inside the
capacity region and 0 otherwise, for a positive strictly increasing g.
Best replies have a closed form (take the tightest remaining subset
constraint, never drop below the safe rate), the Nash set is exactly the
maximal face, and those profiles are also strong equilibria and Pareto
optimal. The region is down-closed and g strictly increasing, so any
coalition gain or Pareto improvement can also be had by one member alone,
moving to its reply slack: all three verdicts read every user's slack
from one ratio sort of the profile, exactly and for any m. g is read at
max(rate, 0), as feasible rates may dip to -FEASIBILITY_TOL. For concave
g the worst equilibrium is the face vertex serving users by decreasing SNR.
Each verdict makes the fewest numpy calls with the same bits, as `capacity` sets out.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .capacity import (
    FEASIBILITY_TOL,
    CapacityRegionView,
    _ratio_prefixes,
    as_profile,
    is_feasible,
    max_weighted_base,
    reply_slack,
)

IMPROVEMENT_MARGIN = 1e-9
NASH_TOL = 1e-9
SLACK_BLOCK_CELLS = 1 << 16
UTILITY_CHECK_POINTS = 100


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

    def validate(self, c_max: float) -> None:
        """Check positivity and strict increase at UTILITY_CHECK_POINTS points of (0, c_max]."""
        vals = self(np.linspace(0.0, c_max, UTILITY_CHECK_POINTS + 1)[1:])
        if (vals <= 0.0).any():
            raise ValueError(f"utility '{self.kind}' is not positive on (0, {c_max:g})")
        if (vals[1:] - vals[:-1] <= 0.0).any():
            raise ValueError(f"utility '{self.kind}' is not strictly increasing on (0, {c_max:g})")

    def require_strictly_concave(self, c_max: float) -> None:
        """Check that g' exists and strictly decreases at UTILITY_CHECK_POINTS points."""
        if self.deriv is None:
            raise ValueError(f"utility '{self.kind}' has no derivative")
        xs = np.linspace(0.0, c_max, UTILITY_CHECK_POINTS + 1)[1:]
        dv = np.asarray(self.deriv(xs), dtype=float)
        if (dv[1:] - dv[:-1] >= 0.0).any():
            raise ValueError(f"utility '{self.kind}' is not strictly concave on (0, {c_max:g})")


def payoff(view: CapacityRegionView, g: Utility, profile, user: int) -> float:
    """g(own rate) inside the region, 0 outside."""
    profile = as_profile(view.m, profile)
    return float(g(max(profile[int(user)], 0.0))) if is_feasible(view, profile) else 0.0


def best_response(view: CapacityRegionView, g: Utility, user: int, others) -> float:
    """Unique best reply: max(safe rate, tightest remaining subset slack).

    `others` holds the opponents' rates in user order with `user` removed.
    They must be jointly feasible on their own, else there is no feasible
    action for `user` at all.
    """
    user = int(user)
    others = np.asarray(others, dtype=float)
    if others.ndim == 0:
        others = others.reshape(1)
    if others.shape != (view.m - 1,):
        raise ValueError(f"expected {view.m - 1} opponent rates, got {others.shape}")
    slack = reply_slack(view, user, others)
    if slack == -np.inf:
        # a non-finite rate also reads as -inf; it is checked only on this path
        if not np.isfinite(others).all():
            raise ValueError("rate profile must be finite")
        raise ValueError("no feasible action set: opponents' rates violate the region")
    return max(float(view.safe_rates[user]), slack)


def _reply_slacks(view: CapacityRegionView, profile: np.ndarray):
    """Every user's reply slack against the rest of `profile`, from one ratio sort.

    None if the profile is infeasible (the test of `is_feasible`); else its
    opponents are feasible too. Removing user i keeps the others' ratio
    order, so with A_k, S_k the rate and SNR sums of the first k sorted
    users, i's slack is the minimum over k = 0..m of ln(1 + s_i + S_k) - A_k
    for the prefixes before i (k = 0 gives C({i})) and alpha_i + ln(1 + S_k)
    - A_k for those holding i: an (m, m + 1) table, O(m^2) time, filled
    SLACK_BLOCK_CELLS cells of users at a time so memory stays O(m).
    """
    order, cum_rates, cum_snr = _ratio_prefixes(profile, view.model.snr)
    excess = cum_rates - np.log1p(cum_snr)
    if profile[profile.argmin()] < -FEASIBILITY_TOL or excess[excess.argmax()] > FEASIBILITY_TOL:
        return None
    rank, snr, m = order.argsort(), view.model.snr, profile.size
    prefixes = np.zeros((3, m + 1))
    prefixes[0, 1:], prefixes[1, 1:], prefixes[2, 1:] = cum_rates, cum_snr, excess
    if m * (m + 1) <= SLACK_BLOCK_CELLS:
        return _slack_rows(snr, rank, profile, *prefixes)
    step = max(1, SLACK_BLOCK_CELLS // (m + 1))
    return np.concatenate([_slack_rows(snr[lo:lo + step], rank[lo:lo + step],
                                       profile[lo:lo + step], *prefixes)
                           for lo in range(0, m, step)])


def _slack_rows(snr, rank, rates, rates0, snr0, excess0) -> np.ndarray:
    """`_reply_slacks` for the users with these SNRs, ratio ranks and rates."""
    before = np.arange(rates0.size) <= rank[:, None]
    return np.where(before, np.log1p(snr[:, None] + snr0) - rates0,
                    rates[:, None] - excess0).min(axis=1)


def is_nash(view: CapacityRegionView, g: Utility, profile, tol: float = NASH_TOL) -> bool:
    """Every user already plays its unique best reply, within `tol`."""
    profile = as_profile(view.m, profile)
    slacks = _reply_slacks(view, profile)
    if slacks is None:
        return False
    gaps = np.abs(np.maximum(view.safe_rates, slacks) - profile)
    return bool(gaps[gaps.argmax()] <= tol)


def _no_solo_gain(view: CapacityRegionView, g: Utility, profile, tol: float) -> bool:
    """Feasible, and g(slack_i) <= g(alpha_i) + tol for every user i (g read at >= 0)."""
    profile = as_profile(view.m, profile)
    slacks = _reply_slacks(view, profile)
    return slacks is not None and bool(
        (g(np.maximum(slacks, 0.0)) <= g(np.maximum(profile, 0.0)) + tol).all())


def is_strong_equilibrium(view: CapacityRegionView, g: Utility, profile,
                          tol: float = IMPROVEMENT_MARGIN) -> bool:
    """No coalition can raise every member's payoff by more than `tol`.

    Exact: a coalition that could would let each member gain alone by
    moving to its reply slack (down-closed region, increasing g), so the
    test is that the profile is feasible and g(slack_i) <= g(alpha_i) + tol
    for every user i. One ratio sort, O(m^2), no cap on m.
    """
    return _no_solo_gain(view, g, profile, tol)


def is_pareto_optimal(view: CapacityRegionView, g: Utility, profile,
                      tol: float = IMPROVEMENT_MARGIN) -> bool:
    """Feasible, and no feasible profile weakly dominates it with a gain above `tol`.

    A dominating profile lifts some user i by more than `tol`, and so does
    (slack_i, others), which it dominates; the test is therefore the same
    exact one as `is_strong_equilibrium`.
    """
    return _no_solo_gain(view, g, profile, tol)


def potential(view: CapacityRegionView, g: Utility, profile) -> float:
    """Sum of utilities gated by feasibility; unilateral differences match payoffs."""
    profile = as_profile(view.m, profile)
    return float(np.sum(g(np.maximum(profile, 0.0)))) if is_feasible(view, profile) else 0.0


def greedy_welfare(g: Utility, served: np.ndarray) -> np.ndarray:
    """Welfare of the greedy face vertex that serves each row's SNRs in order.

    Each user takes ln(1 + s / (1 + SNR served before)): a difference of two
    ln1p values loses a weak user's digits (2e-4 of the welfare at snr
    (10, 1e-13), g = x ** 0.05).
    """
    before = np.zeros(served.shape)
    np.add.accumulate(served[:, :-1], axis=1, out=before[:, 1:])
    return g(np.log1p(served / (1.0 + before))).sum(axis=1)


def efficiency_metrics(view: CapacityRegionView, g: Utility, seed: int = 0) -> dict:
    """Strong price of anarchy, price of stability and social optimum, exact for any m.

    g must be concave. The Nash set is the maximal face, and its vertex
    serving users by decreasing SNR majorizes every face point (its k
    largest rates sum to the largest k-user capacity); a sum of concave g
    is Schur-concave, so that vertex is the worst equilibrium. The social
    optimum, the tau = 1 `max_weighted_base` if g has an inverse derivative
    (else the vertex's welfare, exact for g = id), lies on the face too, so
    the price of stability is 1. `seed` is accepted and unused.
    """
    g.validate(float(view.single_caps.max()))
    worst = social = float(greedy_welfare(g, -np.sort(-view.model.snr)[None])[0])
    if g.inv_deriv is not None:
        opt, _ = max_weighted_base(view, g.deriv, g.inv_deriv, np.ones(view.m))
        social = float(g(opt).sum())
    return {"spoa": worst / social, "pos": 1.0, "social_opt": social}
