"""Protocol flows, Euler stepping, traces, and rest-point structure."""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    mean_rate,
    rest_point_residual,
    simulate,
    velocity,
)
from macgame import dynamics, evolution
from macgame.capacity import FEASIBILITY_TOL, reply_slack, subset_sums
from macgame.checks import _random_mixed_states
from macgame.dynamics import _flow, _gate_count, _payoff_vector, euler_update
from macgame.evolution import (EXACT_ENUM_LIMIT, INDICATOR_SLACK, _admitted_mass, _exact_fits,
                               _fit_mass, _mixed_gate, _own_values, exact_rows, mc_route,
                               region_mass)

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


class TestProtocol:
    def test_smith_theta_bound(self):
        with pytest.raises(ValueError, match="theta"):
            Protocol.smith(0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            Protocol("brownian")

    def test_nan_settings_rejected(self, sym2):
        nan = float("nan")
        with pytest.raises(ValueError, match="theta"):
            Protocol.smith(nan)
        with pytest.raises(ValueError, match="K must be positive"):
            Protocol.bnn(K=nan)
        state0 = PopulationState.uniform(grid_with_rstar(sym2, n=11))
        with pytest.raises(ValueError, match="dt must be positive"):
            DynamicsRun(protocol=Protocol.bnn(), state0=state0, dt=nan)

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
        for state in _random_mixed_states(rng, grid, sym2.total / sym2.m, 10):
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
        for state in _random_mixed_states(rng, grid, sym2.total / sym2.m, 5):
            zeros = [rest_point_residual(sym2, gid, Protocol.smith(t), state) == 0.0
                     for t in (1.0, 2.0, 3.0)]
            assert len(set(zeros)) == 1

    def test_table_matches_pointwise_payoffs(self, sym2):
        g = Utility.log1p()
        rng = np.random.default_rng(2)
        grid = grid_with_rstar(sym2, n=31)
        table = PayoffTable(sym2, g, grid)
        for state in _random_mixed_states(rng, grid, sym2.total / sym2.m, 5):
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
        count = _gate_count(grid, view.total, view.m - 1, mean_rate(state))
        mc = _payoff_vector(PayoffTable(view, g, grid, samples, 11), state.masses, count)
        gvals = g(grid)
        p = np.divide(exact, gvals, out=np.zeros_like(exact), where=gvals > 0)
        se = gvals * np.sqrt(p * (1.0 - p) / samples)
        assert np.count_nonzero((exact > 0) & (exact < gvals)) >= 5
        assert np.all(np.abs(mc - exact) <= 3.0 * se + 1e-12)

    def test_retains_at_most_32_bytes_per_row(self):
        # per sorted row that admits some action: the pair index and three further index
        # columns, 8 bytes each; no multiplicity or fit count is kept per row, and the full
        # (m - 1, rows) index array is freed. The build peaks below 119 bytes per row.
        view = build_view(ChannelModel(np.ones(6)))
        grid = np.linspace(0.0, float(view.single_caps.max()), 31)
        rows = exact_rows(view, grid.size)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = PayoffTable(view, Utility.identity(), grid)
            retained, peak = (x - before for x in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        kept = table.weights(np.ones(grid.size)).size
        assert rows == 324_632 and 0 < kept <= rows
        assert retained <= 32 * kept + 64 * 1024   # a fixed 64 KiB for the per-grid part
        assert peak <= 119 * rows + 64 * 1024

    def test_class_listing_built_in_place(self):
        # two SNR classes of opponents (2 + 3) are written column by column into the one
        # index array, with no tiled copy per class, so the same bounds hold
        view = build_view(ChannelModel(np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.5])))
        grid = np.linspace(0.0, float(view.single_caps.max()), 21)
        rows = exact_rows(view, grid.size)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = PayoffTable(view, Utility.identity(), grid)
            retained, peak = (x - before for x in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        kept = table.weights(np.ones(grid.size)).size
        assert rows == math.comb(22, 2) * math.comb(23, 3) and 0 < kept <= rows
        assert retained <= 32 * kept + 64 * 1024
        assert peak <= 119 * rows + 64 * 1024


def ordered_listing(view, grid):
    """Every ordered opponent tuple as (m - 1, n**(m-1)) grid indices, and user
    0's reply slack against each: the listing the orbit table replaces."""
    k = view.m - 1
    idx = np.indices((grid.size,) * k).reshape(k, grid.size ** k)
    return idx, reply_slack(view, 0, grid[idx].T)


def ordered_nu(listing, actions, masses, by_fit=False):
    """nu at each sorted action over the ordered listing, product-mass weights.

    Pairwise sums over the draws admitting each action (np.sum; error
    O(eps log rows)), or, by fit, as the engine sums an ordered listing: the
    admitting draws stably sorted by fit count, largest first, one
    `np.add.reduceat` sum per fit count, accumulated in that order."""
    idx, slack = listing
    fits = np.searchsorted(actions, slack + FEASIBILITY_TOL, side="right")
    weights = np.prod(masses[idx], axis=0)
    if not by_fit:
        return np.array([weights[fits > i].sum() for i in range(actions.size)])
    order = np.argsort(-fits, kind="stable")
    order = order[fits[order] > 0]
    fits, weights = fits[order], weights[order]
    counts = sorted(set(fits.tolist()), reverse=True)
    if not counts:
        return np.zeros(actions.size)
    partial, acc = [], 0.0
    for part in np.add.reduceat(weights, [int(np.argmax(fits == f)) for f in counts]):
        acc += float(part)
        partial.append(acc)
    return np.array([partial[sum(f > i for f in counts) - 1] if counts[0] > i else 0.0
                     for i in range(actions.size)])


def ordered_payoffs(view, g, grid, masses, listing, by_fit=False):
    gate = grid <= view.total - (view.m - 1) * float(np.dot(grid, masses)) + 1e-12
    return np.asarray(g(grid)) * ordered_nu(listing, grid, masses, by_fit) * gate


def brute_orbits(view, g, grid, masses):
    """Multiplicities and F from every sorted opponent tuple, listed with
    itertools and tested against the 2**m rank table."""
    n, k = grid.size, view.m - 1
    combos = list(itertools.combinations_with_replacement(range(n), k))
    mult = np.array([math.factorial(k) / math.prod(math.factorial(c) for c in
                                                   Counter(combo).values())
                     for combo in combos])
    weights = mult * np.array([math.prod(masses[j] for j in combo) for combo in combos])
    others = grid[np.array(combos, dtype=int).reshape(len(combos), k)]
    profiles = np.column_stack([np.tile(grid, len(combos))]
                               + [np.repeat(others[:, j], n) for j in range(k)])
    fits = np.all(subset_sums(profiles) <= view.cap + FEASIBILITY_TOL, axis=1)
    nu = np.array([math.fsum(col) for col in (weights[:, None] * fits.reshape(len(combos), n)).T])
    bound = view.total - k * float(np.dot(grid, masses))
    return mult, np.asarray(g(grid)) * nu * (grid <= bound + 1e-12)


class TestOrbitTable:
    """Sorted opponent multisets within each SNR class, with multinomial weights, against
    the ordered listing and a brute-force combination listing."""

    @staticmethod
    def _states(rng, grid, rstar):
        dirac = np.zeros(grid.size)
        dirac[int(np.argmin(np.abs(grid - rstar)))] = 1.0
        return [rng.dirichlet(np.ones(grid.size)), rng.dirichlet(np.full(grid.size, 0.3)),
                np.full(grid.size, 1.0 / grid.size), dirac]

    @pytest.mark.parametrize("snr", [1e-4, 1e4])
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 6) for n in (2, 3, 7, 31)]
                             + [(6, 3), (6, 7)])
    def test_matches_ordered_and_brute_force(self, m, n, snr):
        view = build_view(ChannelModel(np.full(m, snr)))
        g = Utility.log1p()
        rstar = view.total / m
        grid = make_grid(float(view.single_caps.max()), n, include=rstar)
        table = PayoffTable(view, g, grid)
        listing = ordered_listing(view, grid)
        k = m - 1
        rows = exact_rows(view, n)
        assert rows == math.comb(n + k - 1, k)
        # below every slack each draw admits the one action: all rows stay, one run each
        # multiplicity, and with unit masses nu counts the ordered tuples
        weights, runs = _exact_fits(view, np.array([-np.inf]), grid)
        ones = weights(np.ones(n))
        assert ones.size == rows and _fit_mass(ones, runs)[0] == n ** k
        starts, run_mult = runs[:2]
        mult = np.ones(rows) if run_mult is None else np.repeat(
            run_mult, np.diff(np.append(starts, rows)))
        # each fit count's draws are summed pairwise, so nu stays within 1e-15 of the
        # exact sum however many rows there are (one weight at a time in row order it
        # would be up to 1.5e-11 off on the ordered listing at m = 5, n = 31)
        tol = 1e-15
        gmax = float(g(grid[-1]))
        rng = np.random.default_rng(100 * m + n)
        for masses in self._states(rng, grid, rstar):
            F = table.payoffs(masses)
            if m <= 2:
                assert np.array_equal(F, ordered_payoffs(view, g, grid, masses, listing, True))
            ref = ordered_payoffs(view, g, grid, masses, listing)
            assert np.max(np.abs(F - ref)) <= tol * gmax
            nu = _fit_mass(table.weights(masses), table.runs)
            assert np.max(np.abs(nu - ordered_nu(listing, grid, masses))) <= tol
            if rows * n <= 20_000:
                brute_mult, brute_F = brute_orbits(view, g, grid, masses)
                assert np.array_equal(np.sort(mult), np.sort(brute_mult))
                assert np.max(np.abs(F - brute_F)) <= tol * gmax
            state = PopulationState(grid, masses)
            bound = view.total - k * float(np.dot(grid, masses)) + 1e-12
            for a in (grid[0], rstar, 0.5 * (grid[0] + grid[-1]), grid[-1]):
                ref = float(ordered_nu(listing, np.array([a]), masses)[0])
                assert abs(region_mass(view, a, state) - ref) <= tol
                assert abs(expected_payoff(view, g, a, state)
                           - float(g(a)) * ref * (a <= bound)) <= tol * gmax

    @pytest.mark.parametrize("n", [3, 7, 13])
    @pytest.mark.parametrize("snr", [
        [2.0, 1.0, 1.0, 1.0],            # user 0 alone in its class, opponents one class
        [1.0, 1.0, 1.0, 2.0],            # user 0 in the class of three: opponents 2 + 1
        [2.0, 2.0, 0.5, 0.5],            # 2 + 2 users: opponents 1 + 2
        [1.0, 2.0, 1.0, 2.0],            # opponent classes {2, 4} and {3}, interleaved
        [2.0, 1.0, 1.0, 0.5, 0.5],       # 1 + 2 + 2 users
        [1e4, 1e-4, 1e4, 1e-4, 1e-4],    # 1e4 beside 1e-4
    ], ids=lambda s: "-".join(map(str, s)))
    def test_mixed_classes_match_ordered_listing(self, snr, n):
        view = build_view(ChannelModel(np.array(snr)))
        g = Utility.log1p()
        k, opp = view.m - 1, snr[1:]
        grid = make_grid(float(view.single_caps.max()), n)
        # multiplicities: how many ordered tuples each orbit under equal-SNR swaps holds
        orbits = Counter(tuple(sorted((opp[j], i) for j, i in enumerate(combo)))
                         for combo in itertools.product(range(n), repeat=k))
        weights, runs = _exact_fits(view, np.array([-np.inf]), grid)
        starts, run_mult = runs[:2]
        rows = exact_rows(view, n)
        assert weights(np.ones(n)).size == rows == len(orbits) < n ** k
        mult = np.repeat(run_mult, np.diff(np.append(starts, rows)))
        assert np.array_equal(np.sort(mult), np.sort(list(orbits.values())).astype(float))
        assert _fit_mass(weights(np.ones(n)), runs)[0] == n ** k
        listing = ordered_listing(view, grid)
        fits = np.searchsorted(grid, listing[1] + FEASIBILITY_TOL, side="right")
        table = PayoffTable(view, g, grid)
        rng = np.random.default_rng(n)
        tiny = np.full(n, 1e-12)
        tiny[n // 2] = 1.0 - (n - 1) * 1e-12
        for masses in self._states(rng, grid, grid[n // 2]) + [tiny]:
            nu = _fit_mass(table.weights(masses), table.runs)
            w = np.prod(masses[listing[0]], axis=0)
            exact = np.array([math.fsum(w[fits > i]) for i in range(n)])
            assert np.max(np.abs(nu - exact)) <= 1e-15
            ref = ordered_payoffs(view, g, grid, masses, listing)
            assert np.max(np.abs(table.payoffs(masses) - ref)) <= 1e-15 * float(g(grid[-1]))
            state = PopulationState(grid, masses)
            for a in (grid[0], 0.5 * (grid[0] + grid[-1]), grid[-1]):
                ref = float(ordered_nu(listing, np.array([a]), masses)[0])
                assert abs(region_mass(view, a, state) - ref) <= 1e-15

    @pytest.mark.parametrize("snr", [[1.0, 3.0, 0.5, 2.0], [1.5] * 4, [3.0, 1.0, 1.0, 1.0],
                                     [1.0, 2.0, 1.0, 2.0], [2.0, 1.0, 1.0, 0.5, 0.5]])
    def test_listing_order(self, snr, monkeypatch):
        # one class lists combinations_with_replacement, singleton classes the C order, and
        # mixed classes their product, the class of the lowest-numbered opponent slowest
        view = build_view(ChannelModel(np.array(snr)))
        n, opp, k = 5, snr[1:], view.m - 1
        classes = [[j for j, s in enumerate(opp) if s == c] for c in dict.fromkeys(opp)]
        want = []
        for cells in itertools.product(*(itertools.combinations_with_replacement(
                range(n), len(c)) for c in classes)):
            row = [0] * k
            for c, cell in zip(classes, cells):
                for col, i in zip(c, cell):
                    row[col] = i
            want.append(row)
        solve, listed = evolution._listing_fits, []
        monkeypatch.setattr(evolution, "_listing_fits",
                            lambda *args: listed.append(args[3].copy()) or solve(*args))
        PayoffTable(view, Utility.identity(), np.linspace(0.0, float(view.total), n))
        assert np.array_equal(listed[0], np.array(want).T)
        if len(classes) == k:
            assert np.array_equal(listed[0], np.indices((n,) * k).reshape(k, n ** k))
        if len(classes) == 1:
            assert np.array_equal(listed[0].T, list(
                itertools.combinations_with_replacement(range(n), k)))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_equal_split_on_face_admitted(self, m):
        # all opponents at C(N)/m: own rate C(N)/m puts the profile exactly on the face
        view = build_view(ChannelModel(np.full(m, 2.5)))
        rstar = view.total / m
        grid = make_grid(float(view.single_caps.max()), 31, include=rstar)
        state = PopulationState.dirac(grid, rstar)
        assert ordered_nu(ordered_listing(view, grid), np.array([rstar]), state.masses)[0] == 1.0
        assert region_mass(view, rstar, state) == 1.0
        i = int(np.argmin(np.abs(grid - rstar)))
        F = PayoffTable(view, Utility.identity(), grid).payoffs(state.masses)
        assert F[i] == rstar
        assert np.all(F[i + 1:] == 0.0)

    @pytest.mark.parametrize("snr", [[3.0, 1.0, 0.5], [1e4, 1e-4, 1.0], [4.0, 0.3, 1.0, 2.0],
                                     [1.0, 1.0, 1.0 + 1e-13], [1e-13, 9e-13, 1e-13]])
    def test_asymmetric_channels_stay_ordered(self, snr):
        view = build_view(ChannelModel(np.array(snr)))
        g = Utility.log1p()
        n = 9
        grid = make_grid(float(view.single_caps.max()), n)
        table = PayoffTable(view, g, grid)
        assert exact_rows(view, n) == n ** (view.m - 1) and table.runs[1] is None
        assert np.all(table.weights(np.ones(n)) == 1.0)
        rng = np.random.default_rng(len(snr))
        for _ in range(3):
            masses = rng.dirichlet(np.ones(n))
            assert np.array_equal(table.payoffs(masses), ordered_payoffs(
                view, g, grid, masses, ordered_listing(view, grid), by_fit=True))

    @pytest.mark.parametrize("snr", [[1.0, 1.0], [3.0, 1.0]])
    def test_two_users_below_zero_leave_the_grid_order(self, snr):
        # an opponent below -tol breaks the region alone (slack -inf), so at m = 2 the sort
        # moves those draws last, and the weights follow the sorted listing, not the grid
        view = build_view(ChannelModel(np.array(snr)))
        grid = np.linspace(-0.1, float(view.single_caps.max()), 9)
        table = PayoffTable(view, Utility.log1p(), grid)
        assert not np.array_equal(table.weights(np.arange(9.0)), np.arange(9.0))
        listing = ordered_listing(view, grid)
        for masses in np.random.default_rng(4).dirichlet(np.ones(9), size=3):
            assert np.array_equal(_fit_mass(table.weights(masses), table.runs),
                                  ordered_nu(listing, grid, masses, by_fit=True))

    @pytest.mark.parametrize("snr", [[2.5] * 4, [1e-19] * 5, [1.78e-26] * 3, [1.5] * 2, [1.5],
                                     [1e-13, 9e-13, 1e-13], [1.0, 1.0, 1.0 + 2**-52],
                                     [3.0, 1.0], [3.0, 1.0, 1.0], [1.0, 2.0, 1.0, 2.0],
                                     [0.6, 0.6, 0.6, 0.3, 0.3, 0.3]])
    def test_rows_count_sorted_multisets_per_snr_class(self, snr):
        # one row per orbit of the ordered tuples under swaps of equal-SNR opponents
        view = build_view(ChannelModel(np.array(snr)))
        k, n = view.m - 1, 7
        opp = snr[1:]
        orbits = {tuple(sorted((opp[j], i) for j, i in enumerate(combo)))
                  for combo in itertools.product(range(n), repeat=k)}
        assert exact_rows(view, n) == len(orbits)

    @pytest.mark.parametrize("snr,rows", [
        ([2.5] * 4, math.comb(33, 3)),                        # one class: the orbit table
        ([3.0, 1.0, 1.0], math.comb(32, 2)),                  # one class, not symmetric
        ([1.0, 2.0, 1.0, 2.0], math.comb(32, 2) * 31),        # classes {2, 4} and {3}
        ([0.6, 0.6, 0.6, 0.3, 0.3, 0.3], 2_706_176),          # 3+3 users: 31**5 = 28,629,151
        ([4.0, 0.3, 1.0, 2.0], 31 ** 3),                      # singletons: ordered tuples
    ])
    def test_rows_at_31_points(self, snr, rows):
        view = build_view(ChannelModel(np.array(snr)))
        assert exact_rows(view, 31) == rows <= EXACT_ENUM_LIMIT

    def test_size_limit_counts_rows_built(self):
        sym6 = build_view(ChannelModel(np.ones(6)))
        assert exact_rows(sym6, 51) == 3_478_761 <= EXACT_ENUM_LIMIT
        sym8 = build_view(ChannelModel(np.ones(8)))
        with pytest.raises(ValueError, match=r"exact table needs 264385836 rows"):
            PayoffTable(sym8, Utility.identity(), np.linspace(0.0, LN2, 51))


class TestFitMassAccuracy:
    """nu read off a built table (g = 1) against math.fsum of the same draws' weights.

    Each run of equal fit count is summed pairwise, so the error stays within
    1e-15 whatever the row count; summed one weight at a time in row order it
    grew with the rows (uniform masses: 5.4e-15 at symmetric m = 5, n = 31, and
    1.7e-14 on asymmetric m = 5, n = 21)."""

    @pytest.mark.parametrize("snr,n,rows", [([1.5] * 5, 31, 46_376),
                                            ([1.0, 0.9, 0.8, 0.7, 0.6], 21, 194_481)],
                             ids=["sym5-n31", "asym5-n21"])
    def test_nu_within_1e15_of_fsum(self, snr, n, rows):
        view = build_view(ChannelModel(np.array(snr)))
        grid = np.linspace(0.0, float(view.single_caps.max()), n)
        k = view.m - 1
        if view.model.symmetric:
            combos = np.array(list(itertools.combinations_with_replacement(range(n), k))).T
            mult = np.array([math.factorial(k) / math.prod(map(math.factorial,
                                                              Counter(c).values()))
                             for c in combos.T.tolist()])
        else:   # the ordered listing, in EXACT_BLOCK_ROWS = 8,192-row blocks: 24 here
            combos, mult = np.indices((n,) * k).reshape(k, n ** k), 1.0
        assert combos.shape[1] == exact_rows(view, n) == rows
        slack = reply_slack(view, 0, grid[combos].T)
        fits = np.searchsorted(grid, slack + FEASIBILITY_TOL, side="right")
        table = PayoffTable(view, np.ones_like, grid)
        for masses in (np.full(n, 1.0 / n), np.random.default_rng(5).dirichlet(np.ones(n))):
            weights = mult * np.prod(masses[combos], axis=0)
            exact = np.array([math.fsum(weights[fits > i]) for i in range(n)])
            assert np.max(np.abs(table.payoffs(masses, n) - exact)) <= 1e-15


class TestStep:
    def test_zero_velocity_is_identity(self, sym2, gid):
        grid = grid_with_rstar(sym2)
        state = PopulationState.dirac(grid, sym2.total / 2)
        run = DynamicsRun(protocol=Protocol.bnn(), state0=state, dt=0.01, steps=1)
        after = simulate(sym2, gid, run).final_state
        assert np.array_equal(after.masses, state.masses)

    def test_mass_stays_normalized(self, sym2, gid):
        grid = grid_with_rstar(sym2)
        state = PopulationState.uniform(grid)
        for _ in range(50):
            run = DynamicsRun(protocol=Protocol.bnn(K=32.0), state0=state, dt=0.01, steps=1)
            state = simulate(sym2, gid, run).final_state
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
    @pytest.mark.parametrize("method", ["exact", "montecarlo"])
    @pytest.mark.parametrize("proto", [Protocol.bnn(K=8.0), Protocol.replicator(K=4.0),
                                       Protocol.smith(2.0, K=8.0)],
                             ids=lambda p: p.kind)
    def test_matches_public_step_loop(self, proto, method):
        view = build_view(ChannelModel(np.array([3.0, 1.0])))
        g = Utility.log1p()
        grid = make_grid(float(view.single_caps.max()), 21)
        run = DynamicsRun(protocol=proto, state0=PopulationState.uniform(grid), steps=30,
                          record_every=7, seed=3, payoff_method=method, samples=500)
        trace = simulate(view, g, run)

        # exact payoffs step through the public velocity; Monte Carlo ones draw one
        # sample per step from the seed's substream k, through _payoff_vector and _flow
        table = (PayoffTable(view, g, grid) if method == "exact"
                 else PayoffTable(view, g, grid, run.samples, run.seed))
        state, rows, drift = run.state0, [], 0.0
        for k in range(run.steps + 1):
            count = _gate_count(grid, view.total, view.m - 1, mean_rate(state))
            F = _payoff_vector(table, state.masses, count)
            if method == "exact":
                v = velocity(view, g, proto, state, table=table)
            else:
                v = _flow(view, proto, state.base_weights, state.masses, F, count,
                          float(np.dot(state.masses, F)))
            if k % run.record_every == 0 or k == run.steps:
                rows.append((k * run.dt, mean_rate(state), float(np.dot(state.masses, F)),
                             float(np.abs(v).sum()), drift))
            if k < run.steps:
                masses, drift = euler_update(state.masses, v, run.dt)
                state = state.replace_masses(masses)
        got = np.column_stack([trace.t, trace.mean_rate, trace.avg_payoff,
                               trace.velocity_l1, trace.mass_drift])
        assert np.array_equal(got, np.array(rows))
        assert np.array_equal(trace.final_state.masses, state.masses)

    def test_montecarlo_needs_a_sample(self, sym2):
        state0 = PopulationState.uniform(grid_with_rstar(sym2, n=11))
        with pytest.raises(ValueError, match="samples"):
            DynamicsRun(protocol=Protocol.bnn(), state0=state0, payoff_method="montecarlo",
                        samples=0)
        with pytest.raises(ValueError, match="samples"):   # when built, not when first read
            PayoffTable(sym2, Utility.identity(), state0.grid, 0)

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

    def test_max_drift_covers_unrecorded_steps(self, gid):
        # sym3's channel at dt = 0.08: step 4 clips the masses to a sum of 17.7, between
        # the recorded ticks 0 and 10, whose own drifts are 0
        view = build_view(ChannelModel(np.full(3, 250.0)))
        grid = make_grid(float(view.single_caps.max()), 31, include=view.total / 3)

        def traced(every):
            return simulate(view, gid, DynamicsRun(
                protocol=Protocol.bnn(K=32.0), state0=PopulationState.uniform(grid), dt=0.08,
                steps=10, record_every=every))
        sparse, dense = traced(100), traced(1)
        assert sparse.t.tolist() == [0.0, 0.8] and sparse.mass_drift.max() == 0.0
        assert sparse.max_drift == dense.max_drift == dense.mass_drift.max() > 16.0
        assert dense.mass_drift.argmax() == 4


class TestNegativeGridPoints:
    @pytest.mark.parametrize("method", ["exact", "montecarlo"])
    def test_power_utility_finite_below_zero(self, sym2, method):
        # grid points in [-1e-9, 0) count as feasible; g is read at max(a, 0)
        grid = np.linspace(-5e-10, LN2, 21)
        g = Utility.power(0.5)
        state = PopulationState.uniform(grid)
        count = _gate_count(grid, sym2.total, sym2.m - 1, mean_rate(state))
        table = (PayoffTable(sym2, g, grid) if method == "exact"
                 else PayoffTable(sym2, g, grid, 500, 1))
        F = _payoff_vector(table, state.masses, count)
        assert np.all(np.isfinite(F)) and F[0] == 0.0
        v = _flow(sym2, Protocol.bnn(), state.base_weights, state.masses, F, count,
                  float(np.dot(state.masses, F)))
        assert np.all(np.isfinite(v))
        if method == "exact":
            assert np.array_equal(v, velocity(sym2, g, Protocol.bnn(), state))
        run = DynamicsRun(protocol=Protocol.bnn(K=8.0), state0=state, steps=20,
                          record_every=5, payoff_method=method, samples=500)
        trace = simulate(sym2, g, run)
        assert np.all(np.isfinite(trace.avg_payoff)) and trace.max_drift < 1e-12


# -- the step loop with a boolean gate: the reference the count-gated loop must match ---------

def ref_run_sums(w, runs):
    """Each run's pairwise sum times its multiplicity, one run at a time."""
    starts, mult = runs[:2]
    sums = [np.add.reduceat(w[lo:hi], [0]) for lo, hi in zip(starts, [*starts[1:], w.size])]
    return np.array([float(part[0] if mult is None else (part * mult[r])[0])
                     for r, part in enumerate(sums)])


def ref_fit_mass(w, runs):
    """`_fit_mass` one run at a time: the run sums added up in a Python loop in run order,
    and read at each action's last admitting run."""
    last, top = runs[2:]
    partial, acc = [], 0.0
    for part in ref_run_sums(w, runs):
        acc += part
        partial.append(acc)
    return np.array([partial[last[i]] if i < top else 0.0 for i in range(last.size)])


def ref_payoffs(table, masses, gate):
    return table.gvals * ref_fit_mass(table.weights(masses), table.runs) * gate


def ref_payoff_vector(view, g, grid, masses, gate, table=None, samples=None, seed=0):
    if table is not None:
        return ref_payoffs(table, masses, gate)
    if mc_route(view, grid.size, samples) == "per-draw":
        nu = _admitted_mass(view, grid, grid, masses, samples, seed)
    else:   # the listing solved afresh at every step, its run counts one multinomial draw
        weights, runs = _exact_fits(view, grid, grid)
        p = ref_run_sums(weights(masses), runs)
        p /= max(masses.sum() ** (view.m - 1), p.sum())
        counts = np.random.Generator(np.random.Philox(seed)).multinomial(
            samples, [*p, max(1.0 - p.sum(), 0.0)])
        last, top = runs[2:]
        nu = np.array([sum(counts[:last[i] + 1].tolist()) if i < top else 0
                       for i in range(grid.size)]) / samples
    return _own_values(g, grid) * nu * gate


def ref_flow(protocol, w, lam, F, gate, Fbar):
    K = protocol.K
    if protocol.kind == "bnn":
        excess = np.maximum(F - Fbar, 0.0)
        excess[~gate] = 0.0
        return K * (w * excess - lam * float(np.dot(w, excess)))
    if protocol.kind == "replicator":
        return K * lam * (F - Fbar)
    R = np.maximum(F[:, None] - F[None, :], 0.0) ** protocol.theta
    R[~gate, :] = 0.0
    return K * (w * (R @ lam) - lam * (w @ R))


def ref_euler_update(masses, v, dt):
    raw = masses + dt * v
    if not np.isfinite(raw).all():
        raise ValueError("step size too large: masses diverged")
    clipped = np.maximum(raw, 0.0)
    s = float(clipped.sum())
    if s <= 0.0:
        raise ValueError("step size too large: all mass clipped away")
    return clipped / s, abs(s - 1.0)


def ref_simulate(view, g, run):
    grid, w, masses = run.state0.grid, run.state0.base_weights, run.state0.masses
    table = PayoffTable(view, g, grid) if run.payoff_method == "exact" else None
    rows, drift = [], 0.0
    for k in range(run.steps + 1):
        if k:
            masses, drift = ref_euler_update(masses, v, run.dt)
        mean = float(np.dot(grid, masses))
        gate = _mixed_gate(view, grid, mean)
        seed = 0 if table is not None else np.random.SeedSequence(run.seed, spawn_key=(k,))
        F = ref_payoff_vector(view, g, grid, masses, gate, table, run.samples, seed)
        Fbar = float(np.dot(masses, F))
        v = ref_flow(run.protocol, w, masses, F, gate, Fbar)
        if k % run.record_every == 0 or k == run.steps:
            rows.append((k * run.dt, mean, Fbar, float(np.abs(v).sum()), drift))
    return [np.array(col) for col in zip(*rows)], masses


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# K off the powers of two, so that where K enters the product shows in the bits
BIT_PROTOCOLS = [Protocol.bnn(K=7.3), Protocol.replicator(K=3.7)] + [
    Protocol.smith(theta, K=6.1) for theta in (1.0, 1.5, 2.0, 3.0)]
BIT_CHANNELS = [[1.5], [1.5, 1.5], [1.5, 1.5, 1.5], [1.5] * 4,
                [3.0, 1.0], [3.0, 1.0, 0.5], [4.0, 0.3, 1.0, 2.0]]


class TestStepLoopBitIdentity:
    """`simulate` and its helpers, gated by a prefix count, against a copy of the loop
    gated by the boolean `_mixed_gate` (`excess[~gate]`, `R[~gate, :]`, `** theta`,
    `masses + dt * v`): every trace column and the final masses, byte for byte."""

    @staticmethod
    def check(view, g, run):
        trace = simulate(view, g, run)
        cols, masses = ref_simulate(view, g, run)
        for got, want in zip((trace.t, trace.mean_rate, trace.avg_payoff, trace.velocity_l1,
                              trace.mass_drift), cols):
            assert_same_bytes(got, want)
        assert_same_bytes(trace.final_state.masses, masses)
        return trace

    @pytest.mark.parametrize("snr", BIT_CHANNELS, ids=lambda s: "-".join(map(str, s)))
    @pytest.mark.parametrize("method", ["exact", "montecarlo"])
    @pytest.mark.parametrize("proto", BIT_PROTOCOLS, ids=lambda p: f"{p.kind}-{p.theta}")
    def test_trace_bytes_match_boolean_gate(self, proto, method, snr):
        view = build_view(ChannelModel(np.array(snr)))
        n = 11 if view.m < 4 else 7
        include = view.total / view.m if view.model.symmetric else None
        grid = make_grid(float(view.single_caps.max()), n, include=include)
        masses = np.random.default_rng(view.m).dirichlet(np.ones(n))
        run = DynamicsRun(protocol=proto, state0=PopulationState(grid, masses), steps=40,
                          record_every=3, seed=9, payoff_method=method, samples=200)
        self.check(view, Utility.log1p(), run)

    def test_montecarlo_listing_solved_once(self, monkeypatch):
        # the 11**2 listed draws are no more than the samples, so every step draws counts
        # over the listing's runs; the run's table solves it once, not once per step
        view = build_view(ChannelModel(np.array([3.0, 1.0, 0.5])))
        grid = make_grid(float(view.single_caps.max()), 11)
        run = DynamicsRun(protocol=Protocol.bnn(K=7.3), state0=PopulationState.uniform(grid),
                          steps=5, record_every=1, seed=9, payoff_method="montecarlo",
                          samples=200)
        solve, calls = evolution._listing_fits, []
        monkeypatch.setattr(evolution, "_listing_fits",
                            lambda *args: calls.append(args) or solve(*args))
        trace = simulate(view, Utility.log1p(), run)
        assert len(calls) == 1
        monkeypatch.undo()
        cols, masses = ref_simulate(view, Utility.log1p(), run)
        for got, want in zip((trace.t, trace.mean_rate, trace.avg_payoff, trace.velocity_l1,
                              trace.mass_drift), cols):
            assert_same_bytes(got, want)
        assert_same_bytes(trace.final_state.masses, masses)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("proto", BIT_PROTOCOLS, ids=lambda p: f"{p.kind}-{p.theta}")
    def test_gate_flips_at_equal_split(self, proto, m):
        # the equal split is snapped onto the grid; a Dirac there is on the gate bound, and
        # mass just above it pushes the mean past it, so the count changes along the run
        view = build_view(ChannelModel(np.full(m, 2.0)))
        rstar = view.total / m
        grid = make_grid(float(view.single_caps.max()), 21, include=rstar)
        i = int(np.argmin(np.abs(grid - rstar)))
        assert grid[i] == rstar and _mixed_gate(view, grid, rstar).sum() == i + 1
        masses = np.zeros(grid.size)
        masses[i - 2:i + 3] = (0.05, 0.1, 0.6, 0.2, 0.05)
        run = DynamicsRun(protocol=proto, state0=PopulationState(grid, masses), steps=150,
                          record_every=1)
        trace = self.check(view, Utility.identity(), run)
        counts = {int(_mixed_gate(view, grid, mean).sum()) for mean in trace.mean_rate}
        assert len(counts) > 1
        dirac = DynamicsRun(protocol=proto, state0=PopulationState.dirac(grid, rstar), steps=5,
                            record_every=1)
        self.check(view, Utility.identity(), dirac)

    @staticmethod
    def step_minima(monkeypatch):
        """Each step's smallest unclipped mass, read beside `simulate`'s euler_update."""
        update, minima = dynamics.euler_update, []

        def recorded(masses, v, dt):
            minima.append(float((masses + dt * v).min()))
            return update(masses, v, dt)
        monkeypatch.setattr(dynamics, "euler_update", recorded)
        return minima

    @pytest.mark.parametrize("proto", BIT_PROTOCOLS, ids=lambda p: f"{p.kind}-{p.theta}")
    def test_clipping_run(self, proto, monkeypatch):
        # sym3 (snr 250) at dt = 0.04 clips negative masses on many steps (ROADMAP 12a)
        view = build_view(ChannelModel(np.full(3, 250.0)))
        grid = make_grid(float(view.single_caps.max()), 31, include=view.total / 3)
        run = DynamicsRun(protocol=Protocol(proto.kind, proto.theta, 32.0),
                          state0=PopulationState.uniform(grid), dt=0.04, steps=100,
                          record_every=1)
        minima = self.step_minima(monkeypatch)
        self.check(view, Utility.identity(), run)
        assert sum(lo < 0.0 for lo in minima) >= 5   # 9 to 47 of the 100 steps clip

    @pytest.mark.parametrize("method", ["exact", "montecarlo"])
    @pytest.mark.parametrize("proto", BIT_PROTOCOLS, ids=lambda p: f"{p.kind}-{p.theta}")
    def test_dirac_start(self, sym2, proto, method, monkeypatch):
        # the masses off the support stay exactly 0, so every step takes the clip branch
        # with nothing to clip; a Dirichlet start takes the branch that skips the clip
        grid = grid_with_rstar(sym2)
        for start in (PopulationState.dirac(grid, grid[5]),
                      PopulationState(grid, np.random.default_rng(2).dirichlet(np.ones(51)))):
            run = DynamicsRun(protocol=proto, state0=start, steps=60, record_every=7,
                              payoff_method=method, samples=300)
            minima = self.step_minima(monkeypatch)
            self.check(sym2, Utility.identity(), run)
            monkeypatch.undo()
            if start.masses[0] == 0.0:
                assert minima and all(lo == 0.0 for lo in minima)
            else:
                assert minima and all(lo > 0.0 for lo in minima)

    @pytest.mark.parametrize("method", ["exact", "montecarlo"])
    @pytest.mark.parametrize("proto", BIT_PROTOCOLS, ids=lambda p: f"{p.kind}-{p.theta}")
    def test_negative_grid_point(self, sym2, proto, method):
        grid = np.linspace(-5e-10, LN2, 21)
        run = DynamicsRun(protocol=proto, state0=PopulationState.uniform(grid), steps=30,
                          record_every=4, payoff_method=method, samples=300)
        self.check(sym2, Utility.power(0.5), run)

    @pytest.mark.parametrize("proto", BIT_PROTOCOLS, ids=lambda p: f"{p.kind}-{p.theta}")
    def test_velocity_and_payoffs(self, proto):
        view = build_view(ChannelModel(np.array([3.0, 1.0, 0.5])))
        g = Utility.log1p()
        grid = make_grid(float(view.single_caps.max()), 9)
        table = PayoffTable(view, g, grid)
        rng = np.random.default_rng(6)
        for _ in range(5):
            state = PopulationState(grid, rng.dirichlet(np.full(grid.size, 0.5)))
            gate = _mixed_gate(view, grid, mean_rate(state))
            F = ref_payoffs(table, state.masses, gate)
            assert_same_bytes(table.payoffs(state.masses), F)
            want = ref_flow(proto, state.base_weights, state.masses, F, gate,
                            float(np.dot(state.masses, F)))
            assert_same_bytes(velocity(view, g, proto, state, table=table), want)
            assert_same_bytes(velocity(view, g, proto, state), want)

    @pytest.mark.parametrize("proto", BIT_PROTOCOLS, ids=lambda p: f"{p.kind}-{p.theta}")
    def test_flow_gates_any_payoffs(self, proto):
        # in the loop F is zero past the count already; _flow gates the targets by itself
        rng = np.random.default_rng(3)
        n = 13
        w = np.full(n, 0.1)
        for count in range(n + 1):
            lam = rng.dirichlet(np.ones(n))
            F = rng.random(n) + 0.5
            Fbar = float(np.dot(lam, F))
            want = ref_flow(proto, w, lam, F, np.arange(n) < count, Fbar)
            assert_same_bytes(_flow(None, proto, w, lam, F, count, Fbar), want)

    @pytest.mark.parametrize("snr,n", [([1.0], 7), ([1.5, 1.5], 51), ([3.0, 1.0, 0.5], 11),
                                       ([1.5] * 4, 13), ([1.5] * 5, 9), ([1e4] * 3, 7)])
    def test_fit_mass_matches_run_loop(self, snr, n):
        view = build_view(ChannelModel(np.array(snr)))
        grid = make_grid(float(view.single_caps.max()), n)
        weights, runs = _exact_fits(view, grid, grid)
        rng = np.random.default_rng(12)
        for masses in (np.full(n, 1.0 / n), rng.dirichlet(np.ones(n)),
                       rng.dirichlet(np.full(n, 0.2))):
            w = weights(masses)
            assert_same_bytes(_fit_mass(w, runs), ref_fit_mass(w, runs))

    def test_step_errors_unchanged(self):
        for masses, v, dt in ((np.array([0.5, 0.5]), np.array([np.nan, 0.0]), 0.01),
                              (np.array([0.5, 0.5]), np.array([-np.inf, 0.0]), 0.01),
                              (np.array([0.5, 0.5]), np.array([-1.0, -1.0]), 1.0),
                              (np.array([0.5, 0.5]), np.array([0.0, np.inf]), 0.01),
                              (np.array([0.4, 0.3, 0.3]), np.array([-np.inf, 0.0, np.nan]), 0.01),
                              (np.array([0.4, 0.3, 0.3]), np.array([np.nan, 0.0, -np.inf]), 0.01),
                              (np.array([0.5, 0.5]), np.array([-np.inf, np.inf]), 0.01),
                              (np.array([0.5, 0.5]), np.array([np.inf, -np.inf]), 0.01)):
            with pytest.raises(ValueError) as want:
                ref_euler_update(masses, v, dt)
            with pytest.raises(ValueError) as got:
                euler_update(masses, v, dt)
            assert str(got.value) == str(want.value)
        # finite but past the float range when summed: not a divergence, as before
        huge = (np.array([0.5, 0.5]), np.array([1e308, 1e308]), 1.5)
        with np.errstate(over="ignore"):
            pairs = zip(euler_update(*huge), ref_euler_update(*huge))
            for got, want in pairs:
                assert_same_bytes(np.asarray(got), np.asarray(want))
        # -0.0 is not below 0, yet clipping turns it into +0.0, as it always did
        for masses, v, dt in ((np.array([-0.0, 0.5, 0.5]), np.array([-0.0, 0.0, 0.0]), 0.01),
                              (np.array([0.0, 0.5, 0.5]), np.array([-0.0, 1.0, -1.0]),
                               np.array(0.01))):
            pairs = zip(euler_update(masses, v, dt), ref_euler_update(masses, v, float(dt)))
            for got, want in pairs:
                assert_same_bytes(np.asarray(got), np.asarray(want))

    @given(st.lists(st.floats(-1.0, 3.0), min_size=1, max_size=40, unique=True),
           st.sampled_from([[1.0], [1.0, 1.0], [3.0, 1.0, 0.5], [2.0] * 5]),
           st.floats(-1.0, 4.0), st.integers(-1, 40))
    @settings(max_examples=300, deadline=None)
    def test_count_is_the_gate_prefix(self, points, snr, mean, on):
        view = build_view(ChannelModel(np.array(snr)))
        if 0 <= on < len(points):   # put a grid point exactly on the bound
            points[on] = view.total - (view.m - 1) * mean + INDICATOR_SLACK
        grid = np.unique(np.array(points))
        gate = _mixed_gate(view, grid, mean)
        for points in (grid, grid.tolist()):   # simulate bisects the grid as a list
            count = _gate_count(points, view.total, view.m - 1, mean)
            assert count == int(gate.sum())
            assert np.array_equal(gate, np.arange(grid.size) < count)
