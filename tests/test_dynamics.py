"""Protocol flows, Euler stepping, traces, and rest-point structure."""

import itertools
import math

import numpy as np
import pytest

from macgame import (
    ChannelModel,
    DynamicsRun,
    PayoffTable,
    PopulationState,
    Protocol,
    Utility,
    build_view,
    expected_payoff,
    make_grid,
    rest_point_residual,
    simulate,
    step,
    velocity,
)
from macgame.capacity import FEASIBILITY_TOL, subset_sums
from macgame.dynamics import _payoff_vector, euler_update

LN2 = math.log(2.0)
LN3 = math.log(3.0)

ALL_PROTOCOLS = [Protocol.bnn(), Protocol.replicator(), Protocol.smith(1.0),
                 Protocol.smith(2.0)]


@pytest.fixture
def sym2():
    return build_view(ChannelModel(np.array([1.0, 1.0])))


@pytest.fixture
def gid():
    return Utility.identity()


def grid_with_rstar(view, n=51):
    return make_grid(float(view.single_caps.max()), n, include=view.total / view.m)


def random_mixed_state(rng, view, grid):
    """Full-support state with mean safely inside the mixed region."""
    masses = np.maximum(rng.dirichlet(np.ones(grid.size)), 1e-6)
    masses /= masses.sum()
    mean = float(np.dot(grid, masses))
    target = (view.total / view.m) * rng.uniform(0.5, 0.95)
    if mean > target:
        t = 1.0 - target / mean
        floor = np.zeros(grid.size)
        floor[0] = 1.0
        masses = (1.0 - t) * masses + t * floor
    return PopulationState(grid, masses)


class TestProtocol:
    def test_smith_theta_bound(self):
        with pytest.raises(ValueError, match="theta"):
            Protocol.smith(0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            Protocol("brownian")

    def test_positive_growth(self):
        with pytest.raises(ValueError, match="K"):
            Protocol.bnn(K=0.0)


class TestVelocity:
    @pytest.mark.parametrize("proto", ALL_PROTOCOLS, ids=lambda p: f"{p.kind}-{p.theta}")
    @pytest.mark.parametrize("m", [2, 3])
    def test_dirac_at_equal_split_is_rest(self, proto, m, gid):
        view = build_view(ChannelModel(np.ones(m)))
        grid = grid_with_rstar(view)
        state = PopulationState.dirac(grid, view.total / m)
        assert np.abs(velocity(view, gid, proto, state)).max() < 1e-10

    @pytest.mark.parametrize("proto", ALL_PROTOCOLS, ids=lambda p: f"{p.kind}-{p.theta}")
    def test_flow_conserves_mass(self, proto, sym2, gid):
        rng = np.random.default_rng(4)
        grid = grid_with_rstar(sym2)
        for _ in range(10):
            state = random_mixed_state(rng, sym2, grid)
            assert abs(velocity(sym2, gid, proto, state).sum()) < 1e-12

    def test_bnn_signs_from_uniform(self, sym2, gid):
        grid = grid_with_rstar(sym2)
        state = PopulationState.uniform(grid)
        v = velocity(sym2, gid, Protocol.bnn(), state)
        rstar = sym2.total / 2
        assert v[int(np.argmin(np.abs(grid - rstar)))] > 0.0
        assert v[0] < 0.0

    def test_bnn_drains_gated_actions(self, sym2, gid):
        # concentrate mass high: the top grid actions fall outside the mixed
        # region, so their inflow is gated and the flow there is negative
        grid = grid_with_rstar(sym2)
        masses = np.zeros(grid.size)
        masses[-8:] = 1.0 / 8.0
        state = PopulationState(grid, masses)
        bound = sym2.total - (sym2.m - 1) * float(np.dot(grid, masses))
        gated = grid > bound + 1e-12
        assert gated.any()
        v = velocity(sym2, gid, Protocol.bnn(), state)
        active = gated & (state.masses > 0)
        assert np.all(v[active] < 0.0)

    def test_replicator_preserves_support(self, sym2, gid):
        grid = grid_with_rstar(sym2)
        masses = np.zeros(grid.size)
        masses[5] = 0.4
        masses[20] = 0.6
        state = PopulationState(grid, masses)
        v = velocity(sym2, gid, Protocol.replicator(), state)
        assert np.all(v[masses == 0.0] == 0.0)

    def test_smith_zero_set_invariant_in_theta(self, sym2, gid):
        rng = np.random.default_rng(8)
        grid = grid_with_rstar(sym2)
        dirac = PopulationState.dirac(grid, sym2.total / 2)
        for theta in (1.0, 2.0, 3.0):
            assert rest_point_residual(sym2, gid, Protocol.smith(theta), dirac) == 0.0
        for _ in range(5):
            state = random_mixed_state(rng, sym2, grid)
            zeros = [rest_point_residual(sym2, gid, Protocol.smith(t), state) == 0.0
                     for t in (1.0, 2.0, 3.0)]
            assert len(set(zeros)) == 1

    def test_table_matches_pointwise_payoffs(self, sym2):
        g = Utility.log1p()
        rng = np.random.default_rng(2)
        grid = grid_with_rstar(sym2, n=31)
        table = PayoffTable(sym2, g, grid)
        for _ in range(5):
            state = random_mixed_state(rng, sym2, grid)
            from_table = table.payoffs(state.masses)
            direct = np.array([expected_payoff(sym2, g, float(a), state) for a in grid])
            assert np.allclose(from_table, direct, atol=1e-12)


def brute_payoffs(view, g, grid, masses):
    """F over the grid by listing every opponent combination and testing each
    joint profile against the 2**m rank table."""
    F = np.zeros(grid.size)
    bound = view.total - (view.m - 1) * float(np.dot(grid, masses))
    for combo in itertools.product(range(grid.size), repeat=view.m - 1):
        weight = math.prod(masses[j] for j in combo)
        profiles = np.column_stack([grid] + [np.full(grid.size, grid[j]) for j in combo])
        fits = np.all(subset_sums(profiles) <= view.cap + FEASIBILITY_TOL, axis=1)
        F += weight * fits
    return np.asarray(g(grid)) * F * (grid <= bound + 1e-12)


class TestPayoffEngine:
    @pytest.mark.parametrize("snr", [[2.0], [1.0, 1.0], [3.0, 1.0], [1.5, 1.5, 1.5],
                                     [3.0, 1.0, 0.5], [1.0, 1.0, 1.0, 1.0],
                                     [4.0, 0.3, 1.0, 2.0]])
    def test_table_matches_brute_force(self, snr):
        view = build_view(ChannelModel(np.array(snr)))
        g = Utility.log1p()
        rng = np.random.default_rng(len(snr))
        n = 9 if len(snr) < 4 else 6
        grid = make_grid(float(view.single_caps.max()), n, include=view.total / view.m)
        table = PayoffTable(view, g, grid)
        for _ in range(3):
            masses = rng.dirichlet(np.ones(n))
            assert np.max(np.abs(table.payoffs(masses)
                                 - brute_payoffs(view, g, grid, masses))) <= 1e-12

    def test_montecarlo_within_three_standard_errors(self):
        view = build_view(ChannelModel(np.array([3.0, 1.0, 0.5])))
        g = Utility.identity()
        grid = np.linspace(0.0, float(view.single_caps.max()), 21)
        masses = np.random.default_rng(3).dirichlet(np.ones(21)) * np.exp(-4.0 * grid)
        state = PopulationState(grid, masses / masses.sum())   # mean low enough to gate few
        samples = 50_000
        exact = PayoffTable(view, g, grid).payoffs(state.masses)
        mc = _payoff_vector(view, g, state, None, "montecarlo", samples,
                            np.random.SeedSequence(11))
        gvals = g(grid)
        p = np.divide(exact, gvals, out=np.zeros_like(exact), where=gvals > 0)
        se = gvals * np.sqrt(p * (1.0 - p) / samples)
        assert np.count_nonzero((exact > 0) & (exact < gvals)) >= 5
        assert np.all(np.abs(mc - exact) <= 3.0 * se + 1e-12)


class TestStep:
    def test_zero_velocity_is_identity(self, sym2, gid):
        grid = grid_with_rstar(sym2)
        state = PopulationState.dirac(grid, sym2.total / 2)
        after = step(sym2, gid, Protocol.bnn(), state, dt=0.01)
        assert np.array_equal(after.masses, state.masses)

    def test_mass_stays_normalized(self, sym2, gid):
        grid = grid_with_rstar(sym2)
        state = PopulationState.uniform(grid)
        for _ in range(50):
            state = step(sym2, gid, Protocol.bnn(K=32.0), state, dt=0.01)
        assert abs(state.masses.sum() - 1.0) < 1e-12
        assert state.masses.min() >= 0.0

    def test_divergent_step_rejected(self):
        with pytest.raises(ValueError, match="step size"):
            euler_update(np.array([0.5, 0.5]), np.array([np.nan, 0.0]), 0.01)

    def test_all_mass_clipped_rejected(self):
        with pytest.raises(ValueError, match="step size"):
            euler_update(np.array([0.5, 0.5]), np.array([-1.0, -1.0]), 1.0)

    def test_euler_first_order_in_dt(self, sym2, gid):
        # Richardson probe at a fixed horizon: halving dt should roughly halve
        # the defect against the next refinement
        grid = grid_with_rstar(sym2, n=21)
        horizon = 1.0

        def run_to(dt):
            state = PopulationState.uniform(grid)
            table = PayoffTable(sym2, gid, grid)
            for _ in range(int(round(horizon / dt))):
                v = velocity(sym2, gid, Protocol.bnn(K=8.0), state, table=table)
                masses, _ = euler_update(state.masses, v, dt)
                state = state.replace_masses(masses)
            return state.masses

        d1 = np.abs(run_to(0.1) - run_to(0.05)).sum()
        d2 = np.abs(run_to(0.05) - run_to(0.025)).sum()
        assert 1.5 < d1 / d2 < 3.0


class TestRestPointResidual:
    def test_dirac_zero(self, sym2, gid):
        grid = grid_with_rstar(sym2)
        dirac = PopulationState.dirac(grid, sym2.total / 2)
        assert rest_point_residual(sym2, gid, Protocol.bnn(), dirac) < 1e-10

    def test_uniform_not_rest_under_bnn(self, sym2, gid):
        grid = grid_with_rstar(sym2)
        state = PopulationState.uniform(grid)
        assert rest_point_residual(sym2, gid, Protocol.bnn(), state) > 1e-3

    def test_dirac_at_zero_moves_under_bnn(self, sym2, gid):
        grid = grid_with_rstar(sym2)
        state = PopulationState.dirac(grid, 0.0)
        assert rest_point_residual(sym2, gid, Protocol.bnn(), state) > 0.0


class TestSimulate:
    def test_zero_steps_single_record(self, sym2, gid):
        grid = grid_with_rstar(sym2)
        run = DynamicsRun(protocol=Protocol.bnn(), state0=PopulationState.uniform(grid),
                          steps=0)
        trace = simulate(sym2, gid, run)
        assert trace.t.size == 1 and trace.t[0] == 0.0

    def test_trace_deterministic(self, sym2, gid):
        grid = grid_with_rstar(sym2, n=21)
        run = DynamicsRun(protocol=Protocol.smith(2.0),
                          state0=PopulationState.uniform(grid),
                          steps=200, record_every=50, seed=5)
        a = simulate(sym2, gid, run)
        b = simulate(sym2, gid, run)
        assert np.array_equal(a.mean_rate, b.mean_rate)
        assert np.array_equal(a.final_state.masses, b.final_state.masses)

    def test_montecarlo_payoffs_deterministic(self, sym2, gid):
        grid = grid_with_rstar(sym2, n=11)
        run = DynamicsRun(protocol=Protocol.bnn(K=8.0),
                          state0=PopulationState.uniform(grid),
                          steps=5, record_every=1, seed=7,
                          payoff_method="montecarlo", samples=2000)
        a = simulate(sym2, gid, run)
        b = simulate(sym2, gid, run)
        assert np.array_equal(a.final_state.masses, b.final_state.masses)
        other = DynamicsRun(protocol=Protocol.bnn(K=8.0),
                            state0=PopulationState.uniform(grid),
                            steps=5, record_every=1, seed=8,
                            payoff_method="montecarlo", samples=2000)
        c = simulate(sym2, gid, other)
        assert not np.array_equal(a.final_state.masses, c.final_state.masses)

    def test_short_run_moves_toward_equal_split(self, sym2, gid):
        grid = grid_with_rstar(sym2)
        state0 = PopulationState.uniform(grid)
        run = DynamicsRun(protocol=Protocol.bnn(K=32.0), state0=state0, steps=2000,
                          record_every=500)
        trace = simulate(sym2, gid, run)
        rstar = sym2.total / 2
        assert abs(trace.mean_rate[-1] - rstar) < abs(trace.mean_rate[0] - rstar)
        assert trace.max_drift < 1e-12

    @pytest.mark.parametrize("proto", [Protocol.bnn(K=32.0), Protocol.replicator(),
                                       Protocol.smith(1.0, K=8.0)],
                             ids=lambda p: p.kind)
    def test_long_run_mass_conservation(self, sym2, gid, proto):
        grid = grid_with_rstar(sym2, n=26)
        run = DynamicsRun(protocol=proto, state0=PopulationState.uniform(grid),
                          steps=100_000, record_every=10_000)
        trace = simulate(sym2, gid, run)
        assert abs(trace.final_state.masses.sum() - 1.0) <= 1e-9
        assert trace.max_drift <= 1e-9
        assert trace.final_state.masses.min() >= 0.0
