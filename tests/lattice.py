"""Grid second route for the strong-equilibrium and Pareto verdicts.

Brute force over lattices of deviations, independent of the reply-slack
test in `macgame.game`: exact only up to grid resolution, and exponential
in the number of users, so it serves the tests alone.
"""

import itertools

import numpy as np

from macgame import is_feasible
from macgame.capacity import feasible_rows
from macgame.game import IMPROVEMENT_MARGIN

LATTICE_BLOCK_ROWS = 200_000


def _lattice_blocks(axes):
    """Cartesian product of 1-D axes, yielded as (rows, k) float blocks."""
    sizes = tuple(len(a) for a in axes)
    total = int(np.prod(sizes))
    for start in range(0, total, LATTICE_BLOCK_ROWS):
        flat = np.arange(start, min(start + LATTICE_BLOCK_ROWS, total))
        idx = np.unravel_index(flat, sizes)
        yield np.column_stack([np.asarray(axes[d])[idx[d]] for d in range(len(axes))])


def strong_by_lattice(view, g, profile, deviation_grid=25) -> bool:
    """No coalition can make every member strictly better off, on a grid.

    Exhausts every nonempty coalition; each member deviates over a grid of
    `deviation_grid` points spanning [0, C({i})].
    """
    m = view.m
    profile = np.asarray(profile, dtype=float)
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


def pareto_by_lattice(view, g, profile, grid=40) -> bool:
    """Feasible, and no feasible grid profile weakly dominates with a strict gain."""
    profile = np.asarray(profile, dtype=float)
    if not is_feasible(view, profile):
        return False
    base = g(profile)
    axes = [np.linspace(0.0, float(view.single_caps[i]), grid) for i in range(view.m)]
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
