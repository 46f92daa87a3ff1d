"""The verify battery's exact side: `expected_payoffs`, one shared opponent listing for all
of `montecarlo-payoffs`' trials."""

import math

import numpy as np
import pytest

from macgame import (ChannelModel, PopulationState, Utility, build_view, expected_payoff,
                     expected_payoffs, mean_rate, parse_scenario)
from macgame.checks import _random_mixed_state, rest_points
from macgame.capacity import FEASIBILITY_TOL, reply_slack
from macgame.evolution import INDICATOR_SLACK, region_mass

CHANNELS = {"symmetric": [1.5] * 5, "asymmetric": [3.0, 1.0, 0.5, 2.0, 0.7]}
UTILITIES = {"identity": Utility.identity(), "log1p": Utility.log1p(),
             "power": Utility.power(0.5)}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("channel", sorted(CHANNELS))
@pytest.mark.parametrize("gname", sorted(UTILITIES))
def test_shared_listing_matches_expected_payoff(m, channel, gname):
    view, g = build_view(ChannelModel(np.array(CHANNELS[channel][:m]))), UTILITIES[gname]
    grid = np.linspace(0.0, float(view.single_caps.max()), 9)
    rng = np.random.default_rng(m)
    states = [_random_mixed_state(rng, grid, view.total / max(m - 1, 1)) for _ in range(6)]
    bound = [min(grid[-1], view.total - (m - 1) * float(s.grid @ s.masses)) for s in states]
    cases = [(s, float(rng.uniform(0.0, b))) for s, b in zip(states, bound)]
    cases += [(states[0], cases[1][1]), (states[2], cases[1][1]),   # tied actions
              (states[3], 0.0), (states[4], float(grid[1])), (states[5], float(grid[3])),
              (states[1], float(grid[3])),
              # a Dirac on the top of the grid gates its own point out (m >= 2)
              (PopulationState.dirac(grid, grid[-1]), float(grid[-1]))]
    got = expected_payoffs(view, g, cases)
    want = [expected_payoff(view, g, a, state) for state, a in cases]
    # inside the gate a <= C(N) - (m-1)E a one-case read is g(a) times its own region_mass,
    # off the same one-action listing, bit for bit
    inside = [a <= view.total - (m - 1) * mean_rate(s) + INDICATOR_SLACK for s, a in cases]
    gvals = [float(g(np.array([a]))[0]) for _, a in cases]
    assert [x.hex() for x in want] == [(ga * region_mass(view, a, s)).hex() if ok
                                       else (0.0).hex()
                                       for (s, a), ga, ok in zip(cases, gvals, inside)]
    # the shared listing splits its runs by every case's action, so its sums differ from the
    # one-case ones in the last bits: each is within 1e-15 * g(a) of math.fsum of the
    # ordered opponent tuples' product masses
    k = m - 1
    idx = np.indices((grid.size,) * k).reshape(k, grid.size ** k)
    slack = reply_slack(view, 0, grid[idx].T)
    for x, (s, a), ga, ok in zip(got, cases, gvals, inside):
        exact = ga * math.fsum(np.prod(s.masses[idx], axis=0)[a <= slack + FEASIBILITY_TOL])
        assert abs(x - (exact if ok else 0.0)) <= 1e-15 * max(ga, 1.0)
    assert (want[-1] == 0.0) == (m >= 2) and min(want[:-1]) >= 0.0


@pytest.mark.parametrize("m, snr", [(2, 1e-20), (3, 1.78e-26), (5, 1e-19)])
def test_rest_points_place_split_rounded_to_single_cap(m, snr):
    # C(N)/m rounds to C({1}) or one ulp above it; the probe's grid clamps it to C({1})
    scenario = parse_scenario(f"m = {m}\nsnr = {','.join([repr(snr)] * m)}\ngrid_points = 21\n")
    view = build_view(ChannelModel(np.full(m, snr)))
    check = rest_points(scenario, view, Utility.log1p(), np.random.default_rng(0))
    assert check.verdict is True, check.detail
