"""Evolutionary statics: symmetric equilibrium, ESS, mixed region, payoffs."""

import math
import tracemalloc

import numpy as np
import pytest

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
    is_feasible,
    make_grid,
    max_face_residual,
    mean_rate,
    mixed_feasible,
    parse_scenario,
    payoff,
    simulate,
)
from macgame.capacity import FEASIBILITY_TOL, reply_slack
from macgame.evolution import ESS_SHARE, MC_BLOCK, _admitted_mass, _draw_indices, region_mass

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

    def test_make_grid_snaps_included_value(self):
        grid = make_grid(LN2, 51, include=LN3 / 2)
        assert LN3 / 2 in grid
        assert np.all(np.diff(grid) > 0)


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


def per_draw_admitted_mass(view, actions, grid, masses, samples, seed):
    """Second route to Monte Carlo nu: one reply slack for every sampled opponent draw."""
    rng = np.random.Generator(np.random.Philox(seed))
    idx = rng.choice(grid.size, size=(samples, view.m - 1), p=masses)
    slack = reply_slack(view, 0, grid[idx])
    return (actions <= slack[:, None] + FEASIBILITY_TOL).sum(axis=0) / samples


MC_CHANNELS = {"symmetric": [1.5, 1.5, 1.5, 1.5], "asymmetric": [3.0, 1.0, 0.5, 2.0]}


class TestMonteCarloLookup:
    """Draws read their fit count off the ordered listing when it is no longer than the
    sample (n**(m-1) <= samples); against a longer listing each draw solves its own slack."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("channel", sorted(MC_CHANNELS))
    @pytest.mark.parametrize("which", ["one", "grid", "off-grid"])
    def test_matches_per_draw_route(self, m, channel, which):
        view = build_view(ChannelModel(np.array(MC_CHANNELS[channel][:m])))
        n = 5
        grid = np.linspace(0.0, float(view.single_caps.max()), n)
        rng = np.random.default_rng(10 * m + len(channel))
        masses = rng.dirichlet(np.ones(n))
        masses[1] = 0.0                     # a grid point no draw can land on
        masses /= masses.sum()
        actions = {"one": grid[2:3], "grid": grid,
                   "off-grid": np.sort(rng.uniform(0.0, 1.1 * grid[-1], 6))}[which]
        rows = n ** (m - 1)
        for samples in (rows - 1, rows, rows + 1):
            if samples < 1:
                continue
            for seed in (0, 7, np.random.SeedSequence(3, spawn_key=(5,))):
                got = _admitted_mass(view, actions, grid, masses, samples, seed)
                want = per_draw_admitted_mass(view, actions, grid, masses, samples, seed)
                assert np.array_equal(got, want), (samples, seed)


def single_array_admitted_mass(view, actions, grid, masses, samples, seed):
    """The Monte Carlo route before blocks: the whole sample's indices in one array, then
    every draw's fit count, off the ordered listing when n**(m-1) <= samples."""
    rng = np.random.Generator(np.random.Philox(seed))
    n, k = grid.size, view.m - 1
    idx = rng.choice(n, size=(samples, k), p=masses)
    if n ** k <= samples:
        listing = np.indices((n,) * k).reshape(k, n ** k)
        tuple_slack = reply_slack(view, 0, grid[listing].T)
        tuple_fits = np.searchsorted(actions, tuple_slack + FEASIBILITY_TOL, side="right")
        flat = np.zeros(samples, np.intp)
        for col in idx.T:
            flat = flat * n + col
        fits = tuple_fits[flat]
    else:
        fits = np.searchsorted(actions, reply_slack(view, 0, grid[idx]) + FEASIBILITY_TOL,
                               side="right")
    counts = np.bincount(fits, minlength=actions.size + 1)
    return np.add.accumulate(counts[::-1])[actions.size - 1::-1] / samples


BLOCK_CHANNELS = {"symmetric": [1.5] * 5, "asymmetric": [3.0, 1.0, 0.5, 2.0, 0.7]}


class TestMonteCarloBlocks:
    """The sample walked in blocks of MC_BLOCK draws gives the single-array route's nu,
    bit for bit, on either side of each block boundary."""

    SAMPLES = (MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 3 * MC_BLOCK + 5)

    def test_block_starts_on_a_philox_counter(self):
        # Philox yields 4 uniforms per counter; a block starting inside one would shift
        # every later draw
        assert MC_BLOCK % 4 == 0

    # with no opponents (m = 1) the one-tuple listing always serves
    @pytest.mark.parametrize("m, route", [(1, "listing")] + [
        (m, route) for m in (2, 3, 4, 5) for route in ("listing", "per-draw")])
    @pytest.mark.parametrize("channel", sorted(BLOCK_CHANNELS))
    def test_matches_single_array_route(self, m, route, channel):
        k = m - 1
        view = build_view(ChannelModel(np.array(BLOCK_CHANNELS[channel][:m])))
        # the listing serves when n**(m-1) <= samples, so a listing of 5**(m-1) <= 625
        # rows always does and one longer than the largest sample never does
        n = 5 if route == "listing" else 1 + math.floor(max(self.SAMPLES) ** (1.0 / k))
        assert all((n ** k <= samples) == (route == "listing") for samples in self.SAMPLES)
        grid = np.linspace(0.0, float(view.single_caps.max()), n)
        rng = np.random.default_rng(10 * m + len(channel))
        masses = rng.dirichlet(np.ones(n))
        masses[1] = 0.0
        masses /= masses.sum()
        actions = np.sort(rng.uniform(0.0, 1.1 * grid[-1], 9))
        for samples in self.SAMPLES:
            for seed in (5, np.random.SeedSequence(3, spawn_key=(5,))):
                got = _admitted_mass(view, actions, grid, masses, samples, seed)
                want = single_array_admitted_mass(view, actions, grid, masses, samples, seed)
                assert np.array_equal(got, want), (samples, seed)

    @pytest.mark.parametrize("channel", sorted(BLOCK_CHANNELS))
    def test_listing_longer_than_a_block(self, channel):
        # 150**2 = 22,500 listed tuples: more than one block holds, fewer than the draws
        view = build_view(ChannelModel(np.array(BLOCK_CHANNELS[channel][:3])))
        grid = np.linspace(0.0, float(view.single_caps.max()), 150)
        samples = 3 * MC_BLOCK + 5
        assert MC_BLOCK < grid.size ** 2 <= samples
        masses = np.random.default_rng(150).dirichlet(np.ones(grid.size))
        got = _admitted_mass(view, grid, grid, masses, samples, 7)
        want = single_array_admitted_mass(view, grid, grid, masses, samples, 7)
        assert np.array_equal(got, want)

    def test_working_memory_is_one_block(self):
        # m = 6, n = 31: 31**5 tuples outnumber the draws, so each draw solves its slack.
        # Holding the whole sample's uniforms, indices and rates at once peaked at 32 MB;
        # one block of 8192 draws peaks at 3.0 MB, about 370 bytes per draw
        view = build_view(ChannelModel(np.ones(6)))
        grid = np.linspace(0.0, float(view.single_caps.max()), 31)
        masses = np.random.default_rng(6).dirichlet(np.ones(31))
        tracemalloc.start()
        try:
            _admitted_mass(view, grid, grid, masses, 100_000, 1)
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
        nu = _admitted_mass(view, state.grid, state.grid, state.masses, samples, 4)
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


class TestDrawIndices:
    """`_draw_indices` returns `Generator.choice`'s draws, one for one."""

    @staticmethod
    def choice(n, masses, shape, seed):
        return np.random.Generator(np.random.Philox(seed)).choice(n, size=shape, p=masses)

    @staticmethod
    def draw(n, masses, shape, seed):
        return _draw_indices(np.random.Generator(np.random.Philox(seed)), n, masses, shape)

    @pytest.mark.parametrize("n", [2, 21, 31, 51, 201])
    def test_matches_choice(self, n):
        seeds = (0, 12345, np.random.SeedSequence(7, spawn_key=(3,)))
        for name, masses in draw_states(n).items():
            for shape in ((20_000, 2), (1, 1), (3000, 3), (50, 0)):
                for seed in seeds:
                    got = self.draw(n, masses, shape, seed)
                    want = self.choice(n, masses, shape, seed)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert np.array_equal(got, want), (name, shape, seed)

    @pytest.mark.parametrize("masses", [[0.25, 0.25, 0.5], [0.5, 0.0, 0.25, 0.25],
                                        [0.0, 0.0, 1.0], [0.75, 0.25, 0.0]])
    def test_cdf_on_bucket_edges(self, masses):
        for seed in range(5):
            assert np.array_equal(self.draw(len(masses), masses, (100_000, 2), seed),
                                  self.choice(len(masses), masses, (100_000, 2), seed))

    def test_single_user_shape(self):
        masses = draw_states(21)["smooth"]
        got = self.draw(21, masses, (1000, 0), 4)
        assert got.shape == (1000, 0)
        assert np.array_equal(got, self.choice(21, masses, (1000, 0), 4))

    @pytest.mark.parametrize("masses, match", [
        ([0.5, -0.1, 0.6], "non-negative"),
        ([0.5, np.nan, 0.5], "NaN"),
        ([0.5, 0.5 - 1e-6], "sum to 1"),
        ([0.5, 0.5 + 1e-6], "sum to 1"),
        ([[0.5, 0.5], [0.5, 0.5]], "1-dimensional"),
    ])
    def test_invalid_masses_rejected_as_choice_does(self, masses, match):
        n = len(masses)
        with pytest.raises(ValueError):
            self.choice(n, masses, (10, 2), 0)
        with pytest.raises(ValueError, match=match):
            self.draw(n, masses, (10, 2), 0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same size"):
            self.draw(3, [0.5, 0.5], (10, 2), 0)
