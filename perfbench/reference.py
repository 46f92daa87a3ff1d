"""Independent reference route for the benchmark's answer checks.

Everything here is computed from the SNRs by itertools subset enumeration
and closed forms; nothing calls macgame, and `subset_sums` (the program's
bitmask route) is not used. The benchmark evaluates it untimed during
set-up and compares the program's answers against it.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

TOL = 1e-9  # the program's FEASIBILITY_TOL and NASH_TOL


@functools.lru_cache(maxsize=None)
def _subsets(m: int):
    """Every nonempty subset as a member tuple and as a 0/1 row, (size, lex) order."""
    subsets = [J for k in range(1, m + 1) for J in itertools.combinations(range(m), k)]
    member = np.zeros((len(subsets), m))
    for row, J in enumerate(subsets):
        member[row, list(J)] = 1.0
    rows_with = [np.flatnonzero(member[:, i]) for i in range(m)]
    rows_without = [np.flatnonzero(member[:, i] == 0) for i in range(m)]
    return subsets, member, rows_with, rows_without


def greedy_vertex(snr: np.ndarray, perm) -> np.ndarray:
    """Corner of the maximal face that serves users in `perm` order."""
    v = np.empty(len(snr))
    v[perm] = np.diff(np.log1p(np.cumsum(snr[perm])), prepend=0.0)
    return v


class Region:
    """Rank function, safe rates and per-profile verdicts of one channel."""

    def __init__(self, snr):
        self.snr = np.asarray(snr, dtype=float)
        self.m = self.snr.size
        self.subsets, self.member, self.rows_with, self.rows_without = _subsets(self.m)
        self.caps = np.log1p(self.member @ self.snr)
        s = float(self.snr.sum())
        self.total = math.log1p(s)
        self.safe = np.array([self.total - math.log1p(s - x) for x in self.snr])

    def rank_table(self) -> dict:
        """C(J) keyed by 0-based member tuple."""
        return dict(zip(self.subsets, self.caps.tolist()))

    def feasible_rows(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        return (rows.min(axis=1) >= -TOL) & np.all(rows @ self.member.T <= self.caps + TOL, axis=1)

    def analyse(self, profile) -> dict:
        """Membership, face residual, best replies and the Nash verdict.

        br[i] is None when the opponents of user i are infeasible on their
        own, which is when the program's best_response raises.
        """
        a = np.asarray(profile, dtype=float)
        m = self.m
        slack = self.caps - self.member @ a
        feasible = a.min() >= -TOL and slack.min() >= -TOL
        worst = max(-float(a.min()), -float(slack.min()), float((self.safe - a).max()),
                    abs(float(a.sum()) - self.total))
        br = []
        for i in range(m):
            others_min = float(np.delete(a, i).min()) if m > 1 else 0.0
            reply = float(slack[self.rows_with[i]].min()) + a[i]   # J containing i
            without_i = slack[self.rows_without[i]].min() if m > 1 else math.inf
            if others_min < -TOL or without_i < -TOL or reply < -TOL:
                br.append(None)
            else:
                br.append(max(float(self.safe[i]), float(reply)))
        nash = feasible and all(b is not None and abs(b - x) <= TOL for b, x in zip(br, a))
        return {"feasible": bool(feasible), "residual": 0.0 if worst <= TOL else worst,
                "br": br, "nash": bool(nash)}

    def opponent_mass(self, a: float, grid: np.ndarray, masses: np.ndarray) -> float:
        """Exact product-measure mass of opponent draws keeping (a, draws) feasible."""
        idx = np.array(list(itertools.product(range(grid.size), repeat=self.m - 1)),
                       dtype=np.intp).reshape(-1, self.m - 1)
        rows = np.column_stack([np.full(idx.shape[0], a), grid[idx]])
        probs = np.prod(masses[idx], axis=1)
        return float(probs[self.feasible_rows(rows)].sum())

    def exact_payoff(self, a: float, grid, masses) -> float:
        """F(a) = [a <= C(N) - (m-1) E] a nu(a), for the identity utility."""
        mean = float(np.dot(grid, masses))
        if a > self.total - (self.m - 1) * mean + 1e-12:
            return 0.0
        return a * self.opponent_mass(a, grid, masses)
