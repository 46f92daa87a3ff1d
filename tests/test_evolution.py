"""Evolutionary statics: symmetric equilibrium, ESS, mixed region, payoffs."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macgame import (
    ChannelModel,
    DynamicsRun,
    EssResult,
    EssTestSpec,
    PopulationState,
    Protocol,
    Utility,
    build_view,
    ess_check,
    expected_payoff,
    expected_payoff_mc,
    expected_payoffs,
    is_feasible,
    make_grid,
    max_face_residual,
    mean_rate,
    mixed_feasible,
    parse_scenario,
    payoff,
    simulate,
)
from macgame import evolution
from macgame.capacity import FEASIBILITY_TOL, reply_slack
from macgame.evolution import (ESS_SHARE, EXACT_ENUM_LIMIT, MC_BLOCK, _admitted_mass, _exact_fits,
                               _fit_mass, exact_rows, mc_route, region_mass)

LN2 = math.log(2.0)
LN3 = math.log(3.0)


@pytest.fixture
def sym2():
    return build_view(ChannelModel(np.array([1.0, 1.0])))


def three_point_state():
    return PopulationState(np.array([0.0, 0.3, 0.6]), np.full(3, 1.0 / 3.0))


def pure_profile_ess_check(view, g, spec, shares=(ESS_SHARE,)):
    """Second route to `ess_check`: the pure-game oracle on each invaded profile.

    For each mutant, the smallest of `shares` whose monomorphic invaded
    profile (b, ..., b) is feasible (a mutant with none is skipped), then the
    payoffs of (r, b, ..., b) and (mutant, b, ..., b) to user 0, at the
    oracle's FEASIBILITY_TOL.
    """
    m, rstar, r = view.m, view.total / view.m, float(spec.resident)
    if not -1e-12 <= r <= rstar + 1e-12:
        raise ValueError(f"resident {r} outside [0, {rstar:g}]")
    for mut in np.linspace(0.0, rstar, spec.mutant_grid):
        mut = float(mut)
        if abs(mut - r) <= 1e-12:
            continue
        fitting = [e for e in sorted(shares)
                   if is_feasible(view, np.full(m, e * mut + (1.0 - e) * r))]
        if not fitting:
            continue
        b = np.full(m, fitting[0] * mut + (1.0 - fitting[0]) * r)
        u_res = payoff(view, g, np.r_[r, b[1:]], 0)
        u_mut = payoff(view, g, np.r_[mut, b[1:]], 0)
        if not u_res > u_mut + 1e-12:
            return EssResult(is_ess=False, witness=(mut, fitting[0]))
    return EssResult(is_ess=True, witness=None)


ESS_USERS = (1, 2, 3, 4, 5, 8, 13, 30, 1001)
# share grids the reference route also invades at, to check that no share moves a verdict
ESS_SHARES = ((0.1, 0.01, 0.001), (0.5,), (0.3, 0.9, 0.01), (1e-12,), (1e-12, 0.01))


class TestPopulationState:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            PopulationState(np.array([0.0, 0.5]), np.array([0.4, 0.4]))

    def test_tiny_negatives_clipped(self):
        s = PopulationState(np.array([0.0, 0.5]), np.array([-1e-13, 1.0]))
        assert s.masses[0] == 0.0

    def test_real_negatives_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            PopulationState(np.array([0.0, 0.5]), np.array([-0.1, 1.1]))

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            PopulationState(np.array([0.5, 0.2]), np.array([0.5, 0.5]))

    def test_default_base_weights_uniform(self):
        s = PopulationState.uniform(np.linspace(0.0, LN2, 51))
        assert np.allclose(s.base_weights, LN2 / 50.0)
        assert PopulationState.uniform(np.array([0.2])).base_weights.tolist() == [1.0]

    def test_dirac_requires_grid_point(self):
        grid = np.linspace(0.0, LN2, 11)
        with pytest.raises(ValueError, match="grid point"):
            PopulationState.dirac(grid, 0.1234)
        with pytest.raises(ValueError, match="grid point"):
            PopulationState.dirac(grid, math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_point_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PopulationState(np.array([0.0, 0.2, bad]), np.array([0.5, 0.5, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            PopulationState(np.array([bad]), np.array([1.0]))

    def test_nan_mass_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PopulationState(np.array([0.0, 0.2, 0.4]), np.array([0.5, 0.5, math.nan]))

    @pytest.mark.parametrize("masses", [[1.0], [0.25, 0.25, 0.5], [[0.5, 0.5], [0.5, 0.5]]])
    def test_masses_must_match_grid(self, masses):
        with pytest.raises(ValueError, match="match grid length"):
            PopulationState(np.array([0.0, 0.5]), np.array(masses))

    def test_make_grid_snaps_included_value(self):
        grid = make_grid(LN2, 51, include=LN3 / 2)
        assert LN3 / 2 in grid
        assert np.all(np.diff(grid) > 0)

    def test_make_grid_refuses_value_above_top(self):
        # callers clamp the equal split to C({1}); the grid's own range check stays exact
        with pytest.raises(ValueError, match="outside"):
            make_grid(LN2, 11, include=np.nextafter(LN2, np.inf))


def equal_split(view):
    """C(N)/m, asserted to be the symmetric pure equilibrium: on the maximal face and
    no lower than any safe rate."""
    rstar = view.total / view.m
    assert max_face_residual(view, np.full(view.m, rstar)) == 0.0
    assert view.safe_rates.max() <= rstar + 1e-12
    return rstar


class TestSymmetricEquilibrium:
    def test_two_user(self, sym2):
        assert equal_split(sym2) == pytest.approx(LN3 / 2, abs=1e-15)

    def test_three_user_example(self):
        view = build_view(ChannelModel(np.full(3, 25.0 * 1.0 / 0.1)))
        assert equal_split(view) == pytest.approx(math.log(751.0) / 3.0, abs=1e-12)

    def test_single_user(self):
        view = build_view(ChannelModel(np.array([1.0])))
        assert equal_split(view) == pytest.approx(LN2, abs=1e-15)

    def test_asymmetric_rejected(self):
        # the equal split leaves the region, and the ESS test refuses the channel
        view = build_view(ChannelModel(np.array([3.0, 1.0])))
        assert not is_feasible(view, np.full(2, view.total / 2))
        with pytest.raises(ValueError, match="symmetric"):
            ess_check(view, Utility.identity(), EssTestSpec(resident=0.1))


class TestEssCheck:
    def test_equal_split_is_ess(self, sym2):
        spec = EssTestSpec(resident=sym2.total / 2, mutant_grid=50)
        result = ess_check(sym2, Utility.identity(), spec)
        assert result.is_ess and result.witness is None

    def test_lower_resident_is_invaded(self, sym2):
        g = Utility.identity()
        rstar = sym2.total / 2
        spec = EssTestSpec(resident=0.9 * rstar, mutant_grid=50)
        result = ess_check(sym2, g, spec)
        assert not result.is_ess
        mut, eps = result.witness
        assert mut > 0.9 * rstar
        # confirm the witness by direct payoff evaluation
        r_eps = eps * mut + (1.0 - eps) * 0.9 * rstar
        u_res = payoff(sym2, g, [0.9 * rstar, r_eps], 0)
        u_mut = payoff(sym2, g, [mut, r_eps], 0)
        assert u_mut >= u_res

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("gname", ["identity", "log1p"])
    def test_equal_split_stable_for_random_snr(self, m, gname):
        g = Utility.identity() if gname == "identity" else Utility.log1p()
        rng = np.random.default_rng(m * 7 + len(gname))
        for _ in range(5):
            view = build_view(ChannelModel(np.full(m, float(rng.uniform(0.1, 40.0)))))
            spec = EssTestSpec(resident=view.total / m, mutant_grid=40)
            assert ess_check(view, g, spec).is_ess

    def test_resident_out_of_range_rejected(self, sym2):
        with pytest.raises(ValueError, match="resident"):
            ess_check(sym2, Utility.identity(), EssTestSpec(resident=0.6))

    @pytest.mark.parametrize("shares", ESS_SHARES)
    @pytest.mark.parametrize("m", ESS_USERS)
    def test_matches_pure_profile_route(self, m, shares):
        # residents at or below the split: 0, the split, a mutant grid point, uniform below,
        # and 5e-11 above a grid point, where the mutant below scores within 1e-9 of it.
        # The route at ESS_SHARE gives the same result; at the first fitting share of
        # `shares` it gives the same verdict and witness mutant.
        rng = np.random.default_rng([m, len(shares), int(1e3 * shares[-1])])
        for kind in range(10):
            view = build_view(ChannelModel(np.full(m, math.exp(rng.uniform(-9.0, 9.0)))))
            g = (Utility.identity(), Utility.log1p(), Utility.power(0.5))[kind % 3]
            k = int(rng.integers(2, 51))
            rstar = view.total / m
            grid = np.linspace(0.0, rstar, k)
            r = (0.0, rstar, float(grid[rng.integers(k)]), rstar * rng.uniform(),
                 float(grid[rng.integers(k - 1)]) + 5e-11)[kind % 5]
            spec = EssTestSpec(resident=r, mutant_grid=k)
            got = ess_check(view, g, spec)
            assert got == pure_profile_ess_check(view, g, spec)
            other = pure_profile_ess_check(view, g, spec, shares)
            assert other.is_ess == got.is_ess
            assert (other.witness or (None,))[0] == (got.witness or (None,))[0]

    @pytest.mark.parametrize("m", [2, 3, 1001])
    def test_band_above_split_rejected(self, m):
        # the pure route admits residents up to 1e-12 above the split and answers them at
        # the oracle's 1e-9 tolerance; the gate admits m r <= C(N) + 1e-12
        view = build_view(ChannelModel(np.ones(m)))
        with pytest.raises(ValueError, match="outside the feasible symmetric range"):
            ess_check(view, Utility.identity(), EssTestSpec(resident=view.total / m + 1e-12))


class TestMeanAndMixedRegion:
    def test_dirac_mean(self):
        s = PopulationState(np.array([0.0, 0.5]), np.array([0.0, 1.0]))
        assert mean_rate(s) == 0.5

    def test_uniform_three_point_mean(self):
        assert mean_rate(three_point_state()) == pytest.approx(0.3)

    def test_mean_stays_in_hull(self):
        rng = np.random.default_rng(0)
        grid = np.linspace(0.0, LN2, 17)
        for _ in range(20):
            s = PopulationState(grid, rng.dirichlet(np.ones(17)))
            assert grid[0] <= mean_rate(s) <= grid[-1]

    def test_shared_state_below_threshold(self, sym2):
        assert mixed_feasible(sym2, three_point_state())

    def test_dirac_at_single_cap_infeasible(self, sym2):
        s = PopulationState(np.array([0.0, LN2]), np.array([0.0, 1.0]))
        assert not mixed_feasible(sym2, s)

    def test_zero_dirac_feasible(self, sym2):
        s = PopulationState(np.array([0.0, LN2]), np.array([1.0, 0.0]))
        assert mixed_feasible(sym2, s)

    def test_per_user_states(self, sym2):
        lo = PopulationState(np.array([0.0, 0.2]), np.array([0.0, 1.0]))
        hi = PopulationState(np.array([0.0, 0.65]), np.array([0.0, 1.0]))
        assert mixed_feasible(sym2, [lo, hi])
        assert not mixed_feasible(sym2, [hi, hi])

    def test_monotone_under_downward_shift(self, sym2):
        # moving mass toward lower rates never breaks membership
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, LN2, 21)
        for _ in range(20):
            masses = rng.dirichlet(np.ones(21))
            state = PopulationState(grid, masses)
            if not mixed_feasible(sym2, state):
                continue
            shifted = masses.copy()
            j = int(rng.integers(1, 21))
            shifted[0] += shifted[j]
            shifted[j] = 0.0
            assert mixed_feasible(sym2, PopulationState(grid, shifted))


class TestExpectedPayoff:
    def test_exact_all_opponents_compatible(self, sym2):
        val = expected_payoff(sym2, Utility.identity(), 0.4, three_point_state())
        assert val == pytest.approx(0.4, abs=1e-12)

    def test_exact_one_opponent_excluded(self, sym2):
        val = expected_payoff(sym2, Utility.identity(), 0.6, three_point_state())
        assert val == pytest.approx(0.6 * 2.0 / 3.0, abs=1e-12)

    def test_indicator_cuts_high_actions(self, sym2):
        state = PopulationState(np.array([0.0, 0.5]), np.array([0.0, 1.0]))
        # bound = C(N) - E = ln3 - 0.5 = 0.5986; anything above scores zero
        assert expected_payoff(sym2, Utility.identity(), 0.62, state) == 0.0

    def test_exact_matches_hand_enumeration(self, sym2):
        g = Utility.log1p()
        state = three_point_state()
        a = 0.55
        acc = 0.0
        for b, p in zip(state.grid, state.masses):
            if a + b <= LN3 + 1e-9 and a <= LN2 and b <= LN2:
                acc += p
        expect = float(g(a)) * acc
        assert expected_payoff(sym2, g, a, state) == pytest.approx(expect, abs=1e-12)

    def test_exact_too_large_rejected(self):
        view = build_view(ChannelModel(np.ones(4)))
        state = PopulationState.uniform(np.linspace(0.0, LN2, 500))
        with pytest.raises(ValueError, match="Monte Carlo"):
            expected_payoff(view, Utility.identity(), 0.1, state)

    def test_gated_out_cases_build_no_listing(self):
        # symmetric m = 4 on 500 points: the orbit table would exceed the row limit
        view = build_view(ChannelModel(np.ones(4)))
        grid = np.linspace(0.0, LN2, 500)
        assert exact_rows(view, grid.size) > EXACT_ENUM_LIMIT
        # all on ln 2: the gate bound ln 5 - 3 ln 2 < 0 shuts out every action
        top = PopulationState.dirac(grid, LN2)
        cases = [(top, 0.0), (top, 0.3), (top, LN2)]
        assert expected_payoffs(view, Utility.identity(), cases) == [0.0, 0.0, 0.0]
        # a uniform state's gate holds 0.1, so the listing is needed, and refused
        cases.append((PopulationState.uniform(grid), 0.1))
        with pytest.raises(ValueError, match="Monte Carlo"):
            expected_payoffs(view, Utility.identity(), cases)

    def test_states_on_two_grids_rejected(self, sym2):
        coarse = PopulationState.uniform(np.linspace(0.0, LN2, 5))
        for grid in (np.linspace(0.0, LN2, 6), np.linspace(0.0, 0.5, 5)):
            with pytest.raises(ValueError, match="one grid"):
                expected_payoffs(sym2, Utility.identity(),
                                 [(coarse, 0.1), (PopulationState.uniform(grid), 0.1)])

    def test_no_cases(self, sym2):
        assert expected_payoffs(sym2, Utility.identity(), []) == []

    def test_unknown_payoff_method_rejected_by_run_and_scenario(self, sym2):
        # the dynamics run is the one place a payoff method is still named
        state0 = PopulationState.uniform(np.linspace(0.0, LN2, 11))
        with pytest.raises(ValueError, match="unknown payoff method 'bogus'"):
            DynamicsRun(protocol=Protocol.bnn(), state0=state0, payoff_method="bogus")
        with pytest.raises(ValueError, match="payoff_method must be exact or montecarlo"):
            parse_scenario("m = 2\nsnr = 1,1\npayoff_method = bogus\n")

    @pytest.mark.parametrize("func", [expected_payoff, expected_payoff_mc])
    # above C({1}) = ln 2, inside (0.75) and outside (0.8) the gate ln 3 - 0.3 = 0.799; NaN
    @pytest.mark.parametrize("a", [0.75, 0.8, math.nan])
    def test_action_out_of_range_rejected(self, sym2, func, a):
        with pytest.raises(ValueError, match=r"^action .* outside \[0, 0\.693147\]$"):
            func(sym2, Utility.identity(), a, three_point_state())

    def test_mc_deterministic_per_seed(self, sym2):
        state = three_point_state()
        a, b, c = (expected_payoff_mc(sym2, Utility.identity(), 0.6, state, samples=5000,
                                      seed=seed)[0] for seed in (11, 11, 12))
        assert a == b
        assert a != c

    def test_mc_needs_a_sample(self, sym2):
        with pytest.raises(ValueError, match="samples"):
            expected_payoff_mc(sym2, Utility.identity(), 0.3, three_point_state(), samples=0)

    def test_mc_agrees_with_exact(self, sym2):
        rng = np.random.default_rng(17)
        grid = np.linspace(0.0, LN2, 21)
        g = Utility.identity()
        misses = 0
        for t in range(100):
            state = PopulationState(grid, rng.dirichlet(np.ones(21)))
            a = float(rng.uniform(0.0, LN2))
            exact = expected_payoff(sym2, g, a, state)
            est, se = expected_payoff_mc(sym2, g, a, state, samples=100_000, seed=t)
            if abs(est - exact) > 3.0 * max(se, 1e-12) and abs(est - exact) > 1e-9:
                misses += 1
        assert misses <= 1

    def test_dirac_at_equal_split_peaks_there(self, sym2):
        # with everyone at C(N)/m the best reply over the a-grid is C(N)/m
        rstar = sym2.total / 2
        grid = make_grid(LN2, 200, include=rstar)
        state = PopulationState.dirac(grid, rstar)
        g = Utility.identity()
        vals = np.array([expected_payoff(sym2, g, float(a), state) for a in grid])
        assert grid[int(vals.argmax())] == pytest.approx(rstar, abs=1e-15)

    def test_single_user(self):
        view = build_view(ChannelModel(np.array([1.0])))
        state = PopulationState(np.array([0.0, 0.3]), np.array([0.5, 0.5]))
        assert expected_payoff(view, Utility.identity(), 0.4, state) == pytest.approx(0.4)


def admitted_mass(view, actions, grid, masses, samples, seed):
    """Monte Carlo nu on the route `mc_route` picks for this sample size."""
    route = listing_route if mc_route(view, grid.size, samples) == "listing" else per_draw_route
    return route(view, actions, grid, masses, samples, seed)


def per_draw_route(view, actions, grid, masses, samples, seed):
    """`_admitted_mass`: the per-draw route, whatever the sample size."""
    return _admitted_mass(view, actions, grid, masses, samples, seed)


def listing_route(view, actions, grid, masses, samples, seed):
    """`_fit_mass` drawing over the runs of `_exact_fits`: the listing route, whatever the
    sample size."""
    weights, runs = _exact_fits(view, actions, grid)
    return _fit_mass(weights(masses), runs, (samples, seed, masses.sum() ** (view.m - 1)))


def per_draw_admitted_mass(view, actions, grid, masses, samples, seed):
    """Second route to per-draw Monte Carlo nu: the whole sample drawn by `Generator.choice`
    in one array, one reply slack per draw."""
    rng = np.random.Generator(np.random.Philox(seed))
    idx = rng.choice(grid.size, size=(samples, view.m - 1), p=masses)
    slack = reply_slack(view, 0, grid[idx])
    return (actions <= slack[:, None] + FEASIBILITY_TOL).sum(axis=0) / samples


def multinomial_admitted_mass(view, actions, grid, masses, samples, seed):
    """Second route to listing Monte Carlo nu: the sample's count in each run of the
    `_exact_fits` listing from one `Generator.multinomial` call over the run masses (each
    run summed on its own, times its multiplicity, over the masses' total to the power
    m - 1), the draws admitting nothing in one explicit last cell; an action's nu adds the
    counts of the runs up to its last admitting one, one run at a time."""
    weights, (starts, mult, last, top) = _exact_fits(view, actions, grid)
    w = weights(masses)
    run_mass = np.array([np.add.reduceat(w[lo:hi], [0])[0]
                         for lo, hi in zip(starts, [*starts[1:], w.size])])
    if mult is not None:
        run_mass = run_mass * mult
    p = run_mass / max(masses.sum() ** (view.m - 1), run_mass.sum())
    counts = np.random.Generator(np.random.Philox(seed)).multinomial(
        samples, [*p, max(1.0 - p.sum(), 0.0)])
    return np.array([sum(counts[:last[i] + 1].tolist()) if i < top else 0
                     for i in range(actions.size)]) / samples


MC_CHANNELS = {"symmetric": [1.5, 1.5, 1.5, 1.5], "asymmetric": [3.0, 1.0, 0.5, 2.0]}


class TestMonteCarloLookup:
    """`mc_route` picks the listing when its `exact_rows` are no more than the sample. At
    any sample size the listing route gives the nu of one `multinomial` call over the runs
    of `_exact_fits`, and the per-draw route that of `Generator.choice` with one slack per
    draw, bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("channel", sorted(MC_CHANNELS))
    @pytest.mark.parametrize("which", ["one", "grid", "off-grid"])
    def test_each_route_matches_its_reference(self, m, channel, which):
        view = build_view(ChannelModel(np.array(MC_CHANNELS[channel][:m])))
        n = 5
        grid = np.linspace(0.0, float(view.single_caps.max()), n)
        rng = np.random.default_rng(10 * m + len(channel))
        masses = rng.dirichlet(np.ones(n))
        masses[1] = 0.0                     # a grid point no draw can land on
        masses /= masses.sum()
        actions = {"one": grid[2:3], "grid": grid,
                   "off-grid": np.sort(rng.uniform(0.0, 1.1 * grid[-1], 6))}[which]
        rows = exact_rows(view, n)
        for samples in (rows - 1, rows, rows + 1):
            if samples < 1:
                continue
            route = mc_route(view, n, samples)
            assert route == ("per-draw" if samples < rows else "listing")
            for seed in (0, 7, np.random.SeedSequence(3, spawn_key=(5,))):
                got = per_draw_route(view, actions, grid, masses, samples, seed)
                want = per_draw_admitted_mass(view, actions, grid, masses, samples, seed)
                assert np.array_equal(got, want), ("per-draw", samples, seed)
                got = listing_route(view, actions, grid, masses, samples, seed)
                want = multinomial_admitted_mass(view, actions, grid, masses, samples, seed)
                assert np.array_equal(got, want), ("listing", samples, seed)

    def test_needs_a_sample(self, sym2):
        with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
            mc_route(sym2, 5, 0)

    def test_listing_within_the_exact_limit(self):
        # asymmetric m = 6, n = 31: 28,629,151 rows, fewer than these draws but more than an
        # exact listing may hold, so the sample is walked
        view = build_view(ChannelModel(np.array([3.0, 1.0, 0.5, 2.0, 0.7, 1.2])))
        assert EXACT_ENUM_LIMIT < exact_rows(view, 31) <= 30_000_000
        assert mc_route(view, 31, 30_000_000) == "per-draw"
        assert mc_route(view, 25, 30_000_000) == "listing"   # 9,765,625 rows

    @pytest.mark.parametrize("channel", sorted(MC_CHANNELS))
    def test_listing_longer_than_a_block(self, channel):
        # 150**2 = 22,500 listed tuples (C(151, 2) = 11,325 on the symmetric channel), more
        # than a per-draw block holds: one multinomial
        view = build_view(ChannelModel(np.array(MC_CHANNELS[channel][:3])))
        grid = np.linspace(0.0, float(view.single_caps.max()), 150)
        samples = 3 * MC_BLOCK + 5
        assert MC_BLOCK < exact_rows(view, grid.size) <= samples
        masses = np.random.default_rng(150).dirichlet(np.ones(grid.size))
        got = admitted_mass(view, grid, grid, masses, samples, 7)
        want = multinomial_admitted_mass(view, grid, grid, masses, samples, 7)
        assert np.array_equal(got, want)

    def test_listing_solved_in_blocks(self):
        # asymmetric m = 4, n = 67: the 300,763 listed tuples are no more than the draws, so
        # the sample is drawn as counts over their runs. Solving every tuple's slack in one
        # call peaked at 50.6 MB; EXACT_BLOCK_ROWS tuples at a time peak at about 13 MB
        view = build_view(ChannelModel(np.array(BLOCK_CHANNELS["asymmetric"][:4])))
        grid = np.linspace(0.0, float(view.single_caps.max()), 67)
        samples = 310_000
        assert exact_rows(view, grid.size) <= samples
        masses = np.random.default_rng(67).dirichlet(np.ones(grid.size))
        tracemalloc.start()
        try:
            admitted_mass(view, grid, grid, masses, samples, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30_000_000


class TestListingDrawEdges:
    """The listing route's multinomial gets valid probabilities on every valid state: masses
    summing to 1 -+ 1e-10, Diracs, and m = 1 and 2, where the listing keeps the run admitting
    nothing and one run can hold all of the mass. On a Dirac every draw is the same, so nu
    is exactly 1 where exact nu is positive, else 0."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1.0 - 1e-10, 1.0, 1.0 + 1e-10])
    def test_masses_off_one_and_diracs(self, m, scale):
        view = build_view(ChannelModel(np.array([3.0, 1.0, 0.5][:m])))
        grid = np.linspace(0.0, float(view.single_caps.max()), 9)
        samples = 100   # at least the 9**(m-1) listed draws
        assert mc_route(view, grid.size, samples) == "listing"
        g = Utility.identity()
        table = evolution.PayoffTable(view, g, grid, samples, 5)
        smooth = np.random.default_rng(m).dirichlet(np.ones(grid.size))
        for masses in (smooth, np.eye(grid.size)[0], np.eye(grid.size)[4], np.eye(grid.size)[-1]):
            state = PopulationState(grid, masses * scale)
            nu = listing_route(view, grid, grid, state.masses, samples, 5)
            assert np.all((0.0 <= nu) & (nu <= 1.0)) and np.all(np.diff(nu) <= 0.0)
            if masses is not smooth:
                exact = np.array([region_mass(view, float(a), state) for a in grid])
                assert np.array_equal(nu, (exact > 0.0).astype(float))
            F = table.payoffs(state.masses)
            assert np.all(F >= 0.0) and np.all(F <= g(grid))
            assert expected_payoff_mc(view, g, float(grid[2]), state, samples, 5)[0] >= 0.0

    def test_one_run_holds_all_mass(self):
        # m = 2, snr 3 and 3, 21 points: the first 9 opponent rates admit every action, so
        # they form one run, summed in another order than the masses; on about 1 state in 6
        # here that run's sum is an ulp above the masses' total
        view = build_view(ChannelModel(np.array([3.0, 3.0])))
        grid = np.linspace(0.0, float(view.single_caps.max()), 21)
        assert _exact_fits(view, grid, grid)[1][0][:2].tolist() == [0, 9]
        for seed in range(20):
            masses = np.zeros(grid.size)
            masses[:9] = np.random.default_rng(seed).dirichlet(np.ones(9))
            for scale in (1.0 - 1e-10, 1.0, 1.0 + 1e-10):
                nu = listing_route(view, grid, grid, masses * scale, 50, seed)
                assert np.array_equal(nu, np.ones(grid.size)), (seed, scale)


class TestRoutesShareOneLaw:
    """Both routes count an iid sample of `samples` opponent draws from the state, so over
    many seeds each action's nu has one law on both: the binomial share, mean nu and
    standard deviation sqrt(nu (1 - nu) / samples). The listing route's runs carry
    multiplicities 1, 3 and 6 on the symmetric channel and 1 and 2 on the two-class one."""

    SEEDS, SAMPLES = 2000, 400

    # 7 points: 49 ordered tuples, C(9, 3) = 84 and C(8, 2) * 7 = 196 class cells <= 400 draws
    @pytest.mark.parametrize("snr", [[2.0, 1.5, 1.0], [1.5] * 4, [2.0, 1.5, 1.5, 1.0]],
                             ids=["distinct", "symmetric", "two-class"])
    def test_mean_and_spread_agree(self, snr):
        view = build_view(ChannelModel(np.array(snr)))
        grid = np.linspace(0.0, float(view.single_caps.max()), 7)
        masses = np.array([0.3, 0.25, 0.15, 0.1, 0.1, 0.05, 0.05])
        state = PopulationState(grid, masses)
        # nu from 0.94 (symmetric), 0.737 (distinct) or 0.659 (two-class) on the first
        # points down to 0.483, 0.385 or 0.257 at C({1})
        nu = np.array([region_mass(view, float(a), state) for a in grid])
        inner = (nu > 0.05) & (nu < 0.95)
        assert inner.all()
        sd = np.sqrt(nu * (1.0 - nu) / self.SAMPLES)[inner]
        assert mc_route(view, grid.size, self.SAMPLES) == "listing"
        weights, runs = _exact_fits(view, grid, grid)
        mass = masses.sum() ** (view.m - 1)
        routes = {"listing": lambda seed: _fit_mass(weights(masses), runs,
                                                     (self.SAMPLES, seed, mass)),
                  "per-draw": lambda seed: per_draw_route(view, grid, grid, masses,
                                                          self.SAMPLES, seed)}
        shares = {}
        for name, route in routes.items():
            shares[name] = np.array([route(seed) for seed in range(self.SEEDS)])[:, inner]
            # each route against the exact law: mean within 4 standard errors, spread 10 %
            mean, spread = shares[name].mean(axis=0), shares[name].std(axis=0, ddof=1)
            assert np.all(np.abs(mean - nu[inner]) <= 4.0 * sd / math.sqrt(self.SEEDS))
            assert np.all((0.9 <= spread / sd) & (spread / sd <= 1.1))
        a, b = shares["listing"], shares["per-draw"]
        se = np.sqrt((a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)) / self.SEEDS)
        assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 4.0 * se)
        ratio = a.std(axis=0, ddof=1) / b.std(axis=0, ddof=1)
        assert np.all((0.9 <= ratio) & (ratio <= 1.1))


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 4), symmetric=st.booleans(), n=st.integers(2, 6),
       samples=st.integers(1, 300), case=st.integers(0, 2 ** 32 - 1),
       seed=st.integers(0, 2 ** 63))
def test_admitted_mass_properties(m, symmetric, n, samples, case, seed):
    """On either route nu lies in [0, 1], never rises along the sorted actions, is exactly 1
    where every ordered tuple admits the action and exactly 0 where none does, and one seed
    gives one set of bytes."""
    rng = np.random.default_rng(case)
    view = build_view(ChannelModel(np.full(m, 1.5) if symmetric else rng.uniform(0.2, 4.0, m)))
    grid = np.linspace(0.0, float(view.single_caps.max()), n)
    masses = rng.dirichlet(np.full(n, 0.5))
    actions = np.sort(rng.uniform(-0.1, 1.1, 8)) * grid[-1]
    slack = reply_slack(view, 0, grid[np.indices((n,) * (m - 1)).reshape(m - 1, n ** (m - 1))].T)
    every = actions <= slack.min() + FEASIBILITY_TOL
    none = actions > slack.max() + FEASIBILITY_TOL
    for route in (listing_route, per_draw_route):
        nu = route(view, actions, grid, masses, samples, seed)
        assert np.all((0.0 <= nu) & (nu <= 1.0)) and np.all(np.diff(nu) <= 0.0)
        assert np.all(nu[every] == 1.0) and np.all(nu[none] == 0.0)
        assert route(view, actions, grid, masses, samples, seed).tobytes() == nu.tobytes()


BLOCK_CHANNELS = {"symmetric": [1.5] * 5, "asymmetric": [3.0, 1.0, 0.5, 2.0, 0.7]}


class TestMonteCarloBlocks:
    """The per-draw route walks its sample in blocks of MC_BLOCK draws and gives the nu of
    the whole sample drawn in one `Generator.choice` array, bit for bit, on either side of
    each block boundary."""

    SAMPLES = (MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 3 * MC_BLOCK + 5)

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_any_block_size_reads_one_stream(self, m, monkeypatch):
        # Philox yields 4 outputs per counter; blocks of 7 draws of m - 1 outputs each end
        # inside a counter here, and the next block must still read on from there
        monkeypatch.setattr(evolution, "MC_BLOCK", 7)
        channel = BLOCK_CHANNELS["asymmetric"] + [1.2]
        view = build_view(ChannelModel(np.array(channel[:m])))
        grid = np.linspace(0.0, float(view.single_caps.max()), 9)
        masses = np.random.default_rng(m).dirichlet(np.ones(grid.size))
        actions = np.sort(np.random.default_rng(m).uniform(0.0, grid[-1], 25))
        for samples in (1, 6, 7, 8, 29, 81, 300):
            got = per_draw_route(view, actions, grid, masses, samples, 11)
            want = per_draw_admitted_mass(view, actions, grid, masses, samples, 11)
            assert np.array_equal(got, want), samples

    # a 5-point grid, whose listing serves every sample size here, and a 40-point one
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [5, 40])
    @pytest.mark.parametrize("channel", sorted(BLOCK_CHANNELS))
    def test_matches_single_array_route(self, m, n, channel):
        view = build_view(ChannelModel(np.array(BLOCK_CHANNELS[channel][:m])))
        grid = np.linspace(0.0, float(view.single_caps.max()), n)
        rng = np.random.default_rng(10 * m + len(channel))
        masses = rng.dirichlet(np.ones(n))
        masses[1] = 0.0
        masses /= masses.sum()
        actions = np.sort(rng.uniform(0.0, 1.1 * grid[-1], 9))
        for samples in self.SAMPLES:
            for seed in (5, np.random.SeedSequence(3, spawn_key=(5,))):
                got = per_draw_route(view, actions, grid, masses, samples, seed)
                want = per_draw_admitted_mass(view, actions, grid, masses, samples, seed)
                assert np.array_equal(got, want), (samples, seed)

    def test_working_memory_is_one_block(self):
        # m = 6, n = 31: 31**5 tuples outnumber the draws, so each draw solves its slack.
        # Holding the whole sample's uniforms, indices and rates at once peaked at 32 MB;
        # one block of 8192 draws peaks at 3.0 MB, about 370 bytes per draw
        view = build_view(ChannelModel(np.ones(6)))
        grid = np.linspace(0.0, float(view.single_caps.max()), 31)
        masses = np.random.default_rng(6).dirichlet(np.ones(31))
        tracemalloc.start()
        try:
            admitted_mass(view, grid, grid, masses, 100_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8_000_000


class TestSingleUserMonteCarlo:
    """At m = 1 there are no opponents: every draw is empty and admits every gated action."""

    @pytest.fixture
    def solo(self):
        view = build_view(ChannelModel(np.array([2.0])))
        grid = make_grid(float(view.single_caps.max()), 11)
        return view, PopulationState(grid, np.random.default_rng(1).dirichlet(np.ones(11)))

    @pytest.mark.parametrize("samples", [1, 2, 1000])
    def test_admitted_mass_is_one(self, solo, samples):
        view, state = solo
        nu = admitted_mass(view, state.grid, state.grid, state.masses, samples, 4)
        assert np.array_equal(nu, np.ones(state.n))
        assert np.array_equal(nu, [region_mass(view, float(a), state) for a in state.grid])

    def test_expected_payoff_mc_matches_exact(self, solo):
        view, state = solo
        g = Utility.log1p()
        for a in state.grid:
            val, se = expected_payoff_mc(view, g, float(a), state, samples=500, seed=2)
            assert (val, se) == (expected_payoff(view, g, float(a), state), 0.0)
            assert val == float(g(a))

    def test_simulate_matches_exact(self, solo):
        view, state = solo
        traces = [simulate(view, Utility.log1p(),
                           DynamicsRun(protocol=Protocol.bnn(), state0=state, steps=30,
                                       record_every=10, payoff_method=method, samples=200))
                  for method in ("exact", "montecarlo")]
        for field in ("t", "mean_rate", "avg_payoff", "velocity_l1", "mass_drift"):
            assert np.array_equal(getattr(traces[0], field), getattr(traces[1], field))
        assert np.array_equal(traces[0].final_state.masses, traces[1].final_state.masses)


def draw_states(n):
    """Named mass vectors on n points: smooth, sparse, Dirac, 1e-300 masses, bucket edges."""
    rng = np.random.default_rng(n)
    smooth = rng.dirichlet(np.ones(n))
    sparse = rng.dirichlet(np.full(n, 0.3))
    sparse[rng.random(n) < 0.5] = 0.0
    sparse[-1] += 1.0 - sparse.sum()
    tiny = np.full(n, 1e-300)
    tiny[n // 2] = 1.0 - (n - 1) * 1e-300
    states = {"smooth": smooth, "sparse": sparse, "dirac-first": np.eye(n)[0],
              "dirac-last": np.eye(n)[-1], "tiny": tiny}
    if n % 4 == 0 or n == 2:
        states["uniform"] = np.full(n, 1.0 / n)    # every cdf value on a bucket edge
    return states


class TestAdmittedMassDraws:
    """The per-draw route draws its opponents as `Generator.choice` does, and the listing
    route counts them as one `Generator.multinomial` call does: on every mass vector each
    gives its reference's nu. Neither repeats numpy's checks on the masses: the callers
    pass a `PopulationState`'s masses, checked when the state was built
    (`TestPopulationState`), or the masses `euler_update` keeps on the simplex."""

    CHANNEL = [3.0, 1.0, 0.5]   # asymmetric, so the order of a draw's opponents matters
    # samples x (m - 1) draws: 20,000 x 2, 1 x 1, 3,000 x 3 and 50 x 0
    SIZES = ((3, 20_000), (2, 1), (4, 3000), (1, 50))

    def nu(self, route, n, masses, m, samples, seed):
        view = build_view(ChannelModel(np.array(self.CHANNEL[:m])))
        grid = np.linspace(0.0, float(view.single_caps.max()), n)
        return route(view, grid, grid, masses, samples, seed)

    @pytest.mark.parametrize("n", [2, 21, 31, 51, 201])
    def test_matches_choice(self, n):
        seeds = (0, 12345, np.random.SeedSequence(7, spawn_key=(3,)))
        for name, masses in draw_states(n).items():
            for m, samples in self.SIZES:
                for seed in seeds:
                    got = self.nu(per_draw_route, n, masses, m, samples, seed)
                    want = self.nu(per_draw_admitted_mass, n, masses, m, samples, seed)
                    assert np.array_equal(got, want), (name, m, samples, seed)

    @pytest.mark.parametrize("n", [2, 21, 51])
    def test_matches_multinomial(self, n):
        seeds = (0, 12345, np.random.SeedSequence(7, spawn_key=(3,)))
        for name, masses in draw_states(n).items():
            for m, samples in self.SIZES:
                for seed in seeds:
                    got = self.nu(listing_route, n, masses, m, samples, seed)
                    want = self.nu(multinomial_admitted_mass, n, masses, m, samples, seed)
                    assert np.array_equal(got, want), (name, m, samples, seed)

    @pytest.mark.parametrize("masses", [[0.25, 0.25, 0.5], [0.5, 0.0, 0.25, 0.25],
                                        [0.0, 0.0, 1.0], [0.75, 0.25, 0.0]])
    def test_cdf_on_bucket_edges(self, masses):
        for seed in range(5):
            got = self.nu(per_draw_route, len(masses), masses, 3, 100_000, seed)
            want = self.nu(per_draw_admitted_mass, len(masses), masses, 3, 100_000, seed)
            assert np.array_equal(got, want), seed
