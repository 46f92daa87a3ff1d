"""The one-shot game: payoffs, best replies, equilibrium tests, efficiency."""

import itertools
import math
import timeit
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macgame import (
    ChannelModel,
    Utility,
    best_response,
    build_view,
    capacity_of,
    efficiency_metrics,
    is_nash,
    is_pareto_optimal,
    is_strong_equilibrium,
    max_face_residual,
    payoff,
    potential,
    sample_max_face,
)
from macgame.capacity import (MAX_BISECT_ITER, _greedy_corners, feasible_rows, is_feasible,
                              reply_slack, worst_excess)
from macgame import game as game_module
from macgame.evolution import (ESS_MARGIN, ESS_SHARE, EssTestSpec, _mixed_gate, _own_values,
                               ess_check)
from macgame.game import (IMPROVEMENT_MARGIN, NASH_TOL, UTILITY_CHECK_POINTS, _reply_slacks,
                          greedy_welfare)
from macgame.selection import (KKT_TOL, NormalizedEqConfig, goodman_certificate,
                               normalized_equilibrium)

from lattice import greedy_vertices, pareto_by_lattice, strong_by_lattice
from test_capacity import outcome, ref_as_profile, ref_ratio_prefixes, ref_reply_slacks

LN2 = math.log(2.0)
LN3 = math.log(3.0)


@pytest.fixture
def sym2():
    return build_view(ChannelModel(np.array([1.0, 1.0])))


@pytest.fixture
def sym3():
    return build_view(ChannelModel(np.full(3, 25.0 * 1.0 / 0.1)))


@pytest.fixture
def gid():
    return Utility.identity()


class TestUtility:
    def test_kinds_validate(self):
        for g in (Utility.identity(), Utility.log1p(), Utility.power(0.5)):
            g.validate(LN2)

    @staticmethod
    def _table(ys):
        return Utility(kind="table", fn=lambda x: np.interp(x, [0.0, 0.5, 1.0], ys))

    def test_table_kind(self):
        g = self._table([0.0, 0.4, 0.6])
        g.validate(1.0)
        assert g(0.25) == pytest.approx(0.2)

    def test_decreasing_table_rejected_by_validate(self):
        g = self._table([0.0, 0.5, 0.3])
        with pytest.raises(ValueError, match="increasing"):
            g.validate(1.0)

    def test_identity_not_concave(self):
        with pytest.raises(ValueError, match="concave"):
            Utility.identity().require_strictly_concave(LN2)

    def test_power_exponent_range(self):
        with pytest.raises(ValueError):
            Utility.power(1.5)


class TestPayoff:
    def test_feasible_profile(self, sym2, gid):
        assert payoff(sym2, gid, [0.4, 0.5], 0) == pytest.approx(0.4)

    def test_infeasible_profile_scores_zero(self, sym2, gid):
        assert payoff(sym2, gid, [0.70, 0.40], 0) == 0.0

    def test_zero_profile(self, sym2):
        assert payoff(sym2, Utility.log1p(), np.zeros(2), 1) == 0.0

    def test_rate_just_below_zero_reads_g_at_zero(self, sym2):
        # -1e-12 is within the feasibility tolerance; g = x ** 0.5 must not
        # see it (a NaN would raise here: RuntimeWarnings are errors)
        g = Utility.power(0.5)
        assert payoff(sym2, g, [-1e-12, LN2], 0) == 0.0
        assert payoff(sym2, g, [-1e-12, LN2], 1) == pytest.approx(math.sqrt(LN2), abs=1e-15)


class TestBestResponse:
    def test_unconstrained_opponent(self, sym2, gid):
        assert best_response(sym2, gid, 0, [0.2]) == pytest.approx(LN2, abs=1e-12)

    def test_opponent_at_capacity(self, sym2, gid):
        br = best_response(sym2, gid, 0, [LN2])
        assert br == pytest.approx(math.log(1.5), abs=1e-12)
        assert br == pytest.approx(float(sym2.safe_rates[0]), abs=1e-12)

    def test_single_user(self, gid):
        view = build_view(ChannelModel(np.array([1.0])))
        assert best_response(view, gid, 0, []) == pytest.approx(LN2, abs=1e-15)

    def test_infeasible_opponents_rejected(self, sym2, gid):
        with pytest.raises(ValueError, match="no feasible action set"):
            best_response(sym2, gid, 0, [0.75])

    @given(st.integers(0, 2**31 - 1), st.floats(0.3, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_argmax_against_grid_search(self, seed, shrink):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 4))
        view = build_view(ChannelModel(rng.uniform(0.2, 20.0, size=m)))
        g = Utility.log1p()
        base = sample_max_face(view, 1, seed=seed)[0] * shrink
        user = int(rng.integers(m))
        others = np.delete(base, user)
        br = best_response(view, g, user, others)
        br_pay = payoff(view, g, np.insert(others, user, br), user)
        ys = np.linspace(0.0, float(view.single_caps[user]), 10_000)
        trials = np.tile(np.insert(others, user, 0.0), (ys.size, 1))
        trials[:, user] = ys
        pays = np.where(feasible_rows(view, trials), g(ys), 0.0)
        assert br_pay >= pays.max() - 1e-9
        assert abs(br - ys[pays.argmax()]) <= ys[1] - ys[0] + 1e-12


class TestNash:
    def test_equal_split_is_nash(self, sym2, gid):
        assert is_nash(sym2, gid, [LN3 / 2, LN3 / 2])

    def test_interior_point_is_not(self, sym2, gid):
        assert not is_nash(sym2, gid, [0.3, 0.3])

    def test_face_corner_is_nash(self, sym2, gid):
        assert is_nash(sym2, gid, [math.log(1.5), LN2])

    def test_infeasible_is_not(self, sym2, gid):
        assert not is_nash(sym2, gid, [0.8, 0.8])

    @pytest.mark.parametrize("snr", [[1.0, 1.0], [3.0, 1.0], [1.0, 1.0, 1.0]])
    def test_matches_face_membership(self, snr, gid):
        view = build_view(ChannelModel(np.array(snr)))
        rng = np.random.default_rng(5)
        on_face = sample_max_face(view, 100, seed=11)
        perturbed = np.maximum(on_face + rng.normal(0.0, 0.05, size=on_face.shape), 0.0)
        for p in np.concatenate([on_face, perturbed]):
            assert is_nash(view, gid, p) == (max_face_residual(view, p) == 0.0)


def _large_game_corners(m):
    """A greedy corner of a random m-user channel, and that corner scaled by 0.999."""
    view = build_view(ChannelModel(10.0 ** np.random.default_rng(m).uniform(-2.0, 2.0, size=m)))
    corner = greedy_vertices(view, 1, seed=m)[0]
    return view, corner, corner * 0.999


class TestStrongEquilibrium:
    def test_face_samples_are_strong(self, sym3, gid):
        for p in sample_max_face(sym3, 5, seed=3):
            assert is_strong_equilibrium(sym3, gid, p)

    def test_interior_point_is_not(self, sym3, gid):
        assert not is_strong_equilibrium(sym3, gid, np.ones(3))

    def test_single_user_at_capacity(self, gid):
        view = build_view(ChannelModel(np.array([1.0])))
        assert is_strong_equilibrium(view, gid, [LN2])

    def test_large_games_answered(self, gid):
        for m in (7, 50, 1000):
            view, corner, inside = _large_game_corners(m)
            assert is_strong_equilibrium(view, gid, corner)
            assert not is_strong_equilibrium(view, gid, inside)

    def test_rate_just_below_zero_reads_g_at_zero(self, sym2):
        # user 0 can move up to ln 3 - ln 2 alone, so the verdict is False
        # and must come without a NaN from g = x ** 0.5
        assert is_strong_equilibrium(sym2, Utility.power(0.5), [-1e-12, LN2]) is False

    def test_agrees_with_nash(self, sym2, gid):
        pts = list(sample_max_face(sym2, 10, seed=1))
        pts += [np.array([0.3, 0.3]), np.array([0.1, 0.6]), np.zeros(2)]
        for p in pts:
            assert is_strong_equilibrium(sym2, gid, p) == is_nash(sym2, gid, p)


class TestPareto:
    def test_face_corner(self, sym2, gid):
        assert is_pareto_optimal(sym2, gid, [math.log(1.5), LN2])

    def test_interior_dominated(self, sym2, gid):
        assert not is_pareto_optimal(sym2, gid, [0.3, 0.3])

    def test_origin_dominated(self, sym2, gid):
        assert not is_pareto_optimal(sym2, gid, np.zeros(2))

    def test_infeasible_profile_is_not(self, sym2, gid):
        # above the face no feasible profile dominates, but the profile
        # itself is outside the region
        assert not is_pareto_optimal(sym2, gid, [0.69, 0.69])
        assert not is_pareto_optimal(sym2, Utility.log1p(), [LN3 / 2 + 1e-3, LN3 / 2])

    def test_rate_just_below_zero_reads_g_at_zero(self, sym2):
        assert is_pareto_optimal(sym2, Utility.power(0.5), [-1e-12, LN2]) is False

    def test_large_games_answered(self, gid):
        for m in (7, 50, 1000):
            view, corner, inside = _large_game_corners(m)
            assert is_pareto_optimal(view, gid, corner)
            assert not is_pareto_optimal(view, gid, inside)


class TestExactAgainstLattice:
    """The reply-slack verdicts against the grid second route (tests/lattice.py).

    Grids of 13 points leave a witness on the grid for every interior point
    below: the best-placed user can gain at least 0.4 C(N) / m alone, more
    than a grid step C({i}) / 12, and rounding every rate of an interior
    point up to the grid stays inside the region for m <= 4.
    """

    GRID = 13

    @staticmethod
    def _channel(rng, m):
        kind = rng.integers(4)
        if kind == 0:                      # every ratio tied at the equal split
            return np.full(m, 10.0 ** rng.uniform(-3.0, 3.0))
        if kind == 1:                      # tiny next to huge
            return 10.0 ** rng.choice([-4.0, 4.0], size=m) * rng.uniform(1.0, 2.0, size=m)
        if kind == 2:                      # pairs of tied SNRs
            return np.repeat(10.0 ** rng.uniform(-2.0, 2.0, size=(m + 1) // 2), 2)[:m]
        return 10.0 ** rng.uniform(-3.0, 3.0, size=m)

    def _verdicts(self, view, g, p):
        exact = is_strong_equilibrium(view, g, p)
        assert is_pareto_optimal(view, g, p) == exact
        return exact, (strong_by_lattice(view, g, p, deviation_grid=self.GRID),
                       pareto_by_lattice(view, g, p, grid=self.GRID))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_channels(self, seed):
        rng = np.random.default_rng(seed)
        for m in (1, 2, 3, 4):
            view = build_view(ChannelModel(self._channel(rng, m)))
            g = Utility.log1p() if rng.random() < 0.5 else Utility.identity()
            face = sample_max_face(view, 2, seed=seed)
            if view.model.symmetric:
                face[0] = view.total / m
            on_face = np.concatenate([face, face * (1.0 + 1e-12), face * (1.0 - 1e-12)])
            interior = face * rng.uniform(0.3, 0.6, size=(2, 1))
            outside = face * rng.uniform(1.02, 1.3, size=(2, 1))
            for p, want in [(p, True) for p in on_face] + [
                    (p, False) for p in np.concatenate([interior, outside])]:
                exact, lattice = self._verdicts(view, g, p)
                assert exact is want
                assert lattice == (want, want)
            # inside the face by less than a grid step the lattice can miss
            # the gain (test_near_face_gain_below_grid_step); the exact
            # verdict must not
            exact, _ = self._verdicts(view, g, face[1] * (1.0 - 1e-4))
            assert exact is False

    def test_near_face_gain_below_grid_step(self, sym2, gid):
        p = np.full(2, LN3 / 2 * (1.0 - 1e-6))
        assert strong_by_lattice(sym2, gid, p) and pareto_by_lattice(sym2, gid, p)
        assert not is_strong_equilibrium(sym2, gid, p)
        assert not is_pareto_optimal(sym2, gid, p)


def _slacks_per_user(view, p):
    """Second route: one `reply_slack` query per user."""
    return np.array([reply_slack(view, i, np.delete(p, i)) for i in range(view.m)])


def _verdicts_per_user(view, g, p):
    """Nash and no-solo-gain verdicts from the per-user slacks."""
    if not is_feasible(view, p):
        return False, False
    slacks = _slacks_per_user(view, p)
    nash = all(abs(max(float(view.safe_rates[i]), slacks[i]) - p[i]) <= NASH_TOL
               for i in range(view.m))
    solo = all(g(max(slacks[i], 0.0)) <= g(max(p[i], 0.0)) + IMPROVEMENT_MARGIN
               for i in range(view.m))
    return nash, solo


class TestOneSortSlacks:
    """`_reply_slacks` (one ratio sort) against m separate `reply_slack` queries."""

    @staticmethod
    def _channel(rng, m, kind):
        if kind == 0:                      # symmetric: every ratio tied at the equal split
            return np.full(m, 10.0 ** rng.uniform(-3.0, 3.0))
        if kind == 1:                      # 1e-4 beside 1e4
            return 10.0 ** rng.choice([-4.0, 4.0], size=m) * rng.uniform(1.0, 2.0, size=m)
        if kind == 2:                      # pairs of repeated SNRs
            return np.repeat(10.0 ** rng.uniform(-2.0, 2.0, size=(m + 1) // 2), 2)[:m]
        return 10.0 ** rng.uniform(-3.0, 3.0, size=m)

    @staticmethod
    def _profiles(rng, view):
        m = view.m
        corners = greedy_vertices(view, 6, seed=int(rng.integers(1 << 30)))
        face = sample_max_face(view, 2, seed=int(rng.integers(1 << 30)))
        snr = view.model.snr
        tied = np.vstack([np.full(m, view.total / m),               # equal split
                          snr * (view.total / snr.sum()),           # alpha_i / s_i all equal
                          np.zeros(m)])
        low = face * rng.uniform(0.3, 0.95, size=(2, 1))
        dip = np.vstack([low, corners[:1], face[:1]])
        dip[np.arange(4), rng.integers(m, size=4)] = [-1e-12, -5e-10, -1e-12, -9e-10]
        return np.concatenate([
            corners, corners * (1.0 + 1e-12), corners * (1.0 - 1e-12), face, tied, low, dip,
            face * rng.uniform(1.02, 1.3, size=(2, 1)),             # above the face
            dip - np.where(dip < 0.0, 1e-8, 0.0)])                  # dips past the tolerance

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_user_queries(self, seed):
        rng = np.random.default_rng(seed)
        utilities = (Utility.identity(), Utility.log1p(), Utility.power(0.5))
        outcomes = set()
        for m in (1, 2, 3, 4, 5, 7, 9, 12):
            for kind in range(4):
                view = build_view(ChannelModel(self._channel(rng, m, kind)))
                g = utilities[int(rng.integers(3))]
                for p in self._profiles(rng, view):
                    slacks = _reply_slacks(view, p)
                    feasible = is_feasible(view, p)
                    assert (slacks is None) == (not feasible)
                    if feasible:
                        ref = _slacks_per_user(view, p)
                        assert np.all(np.isfinite(ref))
                        assert np.max(np.abs(slacks - ref)) <= 1e-14
                    nash, solo = _verdicts_per_user(view, g, p)
                    assert is_nash(view, g, p) is nash
                    assert is_strong_equilibrium(view, g, p) is solo
                    assert is_pareto_optimal(view, g, p) is solo
                    outcomes.add((feasible, nash, solo))
        # infeasible, equilibrium and improvable profiles are all covered
        assert {(False, False, False), (True, True, True), (True, False, False)} <= outcomes

    @pytest.mark.parametrize("m", [300, 700])
    def test_blocks_match_one_pass(self, m, monkeypatch):
        rng = np.random.default_rng(m)
        view = build_view(ChannelModel(10.0 ** rng.uniform(-3.0, 1.0, size=m)))
        p = sample_max_face(view, 1, seed=m)[0] * 0.999
        blocked = _reply_slacks(view, p)
        monkeypatch.setattr(game_module, "SLACK_BLOCK_CELLS", (m + 1) * m)
        assert np.array_equal(blocked, _reply_slacks(view, p))

    def test_memory_linear_in_users(self):
        # the (m, m + 1) slack table is filled in blocks of users: at m = 2,000
        # one table alone would take 32 MB
        view = build_view(ChannelModel(np.full(2000, 0.01)))
        corner = greedy_vertices(view, 1, seed=3)[0]
        tracemalloc.start()
        try:
            assert is_nash(view, Utility.identity(), corner)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


class TestPotential:
    def test_feasible_sum(self, sym2, gid):
        assert potential(sym2, gid, [0.4, 0.5]) == pytest.approx(0.9)

    def test_infeasible_zero(self, sym2, gid):
        assert potential(sym2, gid, [0.9, 0.9]) == 0.0

    def test_rate_just_below_zero_reads_g_at_zero(self, sym2):
        assert potential(sym2, Utility.power(0.5), [-1e-12, LN2]) == pytest.approx(
            math.sqrt(LN2), abs=1e-15)

    def test_face_point_attains_total(self, sym2, gid):
        for p in sample_max_face(sym2, 20, seed=8):
            assert potential(sym2, gid, p) == pytest.approx(LN3, abs=1e-9)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_unilateral_difference_identity(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        view = build_view(ChannelModel(rng.uniform(0.2, 20.0, size=m)))
        g = Utility.log1p()
        alpha = sample_max_face(view, 1, seed=seed)[0] * rng.uniform(0.2, 1.0)
        j = int(rng.integers(m))
        beta = alpha.copy()
        beta[j] = rng.uniform(0.0, alpha[j])
        lhs = potential(view, g, alpha) - potential(view, g, beta)
        rhs = float(g(alpha[j]) - g(beta[j]))
        assert abs(lhs - rhs) <= 1e-12


class TestEfficiency:
    @pytest.mark.parametrize("snr", [[1.0, 1.0], [1.0, 1.0, 1.0]])
    def test_identity_is_fully_efficient(self, snr, gid):
        view = build_view(ChannelModel(np.array(snr)))
        out = efficiency_metrics(view, gid)
        assert out["spoa"] == pytest.approx(1.0, abs=1e-6)
        assert out["pos"] == pytest.approx(1.0, abs=1e-6)
        assert out["social_opt"] == pytest.approx(view.total, abs=1e-9)

    def test_concave_best_equilibrium_is_efficient(self, sym2):
        g = Utility.log1p()
        out = efficiency_metrics(sym2, g)
        # grid search along the face parameterization is the oracle for the
        # welfare optimum: alpha_1 in [r, C1], alpha_2 = C2 - alpha_1
        xs = np.linspace(float(sym2.safe_rates[0]), LN2, 20_001)
        welfare = g(xs) + g(sym2.total - xs)
        assert out["social_opt"] == pytest.approx(float(welfare.max()), abs=1e-6)
        assert out["pos"] == pytest.approx(1.0, abs=1e-3)
        assert out["spoa"] <= 1.0 + 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_against_samples_and_every_vertex(self, seed):
        # the social optimum beats every sampled face point, and the SPoA
        # numerator is the worst of all m! greedy vertices
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        model = ChannelModel(10.0 ** rng.uniform(-2.0, 2.0, size=m))
        view = build_view(model)
        g = Utility.log1p() if seed % 2 else Utility.power(0.5)
        out = efficiency_metrics(view, g)
        face = sample_max_face(view, 5000, seed=seed + 100)
        assert out["social_opt"] >= float(g(face).sum(axis=1).max()) - 1e-12
        worst = np.inf
        for perm in itertools.permutations(range(m)):
            alpha = np.zeros(m)
            for k, j in enumerate(perm):
                prev = capacity_of(model, perm[:k]) if k else 0.0
                alpha[j] = capacity_of(model, perm[:k + 1]) - prev
            worst = min(worst, float(g(alpha).sum()))
        assert out["spoa"] == pytest.approx(worst / out["social_opt"], rel=1e-12)
        assert out["pos"] == 1.0

    def test_single_user_trivial(self, gid):
        view = build_view(ChannelModel(np.array([2.0])))
        out = efficiency_metrics(view, gid)
        assert out["spoa"] == pytest.approx(1.0, abs=1e-12)
        assert out["pos"] == pytest.approx(1.0, abs=1e-12)


VERTEX_UTILITIES = (Utility.identity(), Utility.log1p(), Utility.power(0.05),
                    Utility.power(0.5), Utility.power(0.95))


def _vertex_channels(seed, ms):
    """SNRs spanning e^-9..e^9 for each m: distinct, with ties, and all equal."""
    rng = np.random.default_rng(seed)
    for m in ms:
        snr = np.exp(rng.uniform(-9.0, 9.0, m))
        yield snr
        yield rng.choice(snr[: max(1, m // 2)], size=m)
        yield np.full(m, snr[0])


def _marginal_table(snr):
    """(m, 2**m) table of user j's marginal capacity after the users of bitmask R.

    C(R + j) - C(R), taken as ln(1 + s_j / (1 + s(R))) so a weak user keeps
    its digits; the 0/1 membership rows of every mask come with it.
    """
    masks = np.arange(1 << snr.size)
    members = (masks[:, None] >> np.arange(snr.size)) & 1
    return np.log1p(snr[:, None] / (1.0 + members @ snr)), members


def _worst_by_orders(snr, g):
    """Lowest welfare over the greedy vertices of all m! service orders."""
    table, _ = _marginal_table(snr)
    perms = np.array(list(itertools.permutations(range(snr.size))))
    served_before = np.cumsum(1 << perms, axis=1) - (1 << perms)
    return float(g(table[perms, served_before]).sum(axis=1).min())


def _worst_by_subsets(snr, g):
    """The same minimum by a DP over served sets, O(2**m m):
    f(S) = min over j in S of f(S - j) + g(C(S) - C(S - j)), answer f(N)."""
    table, members = _marginal_table(snr)
    f = np.zeros(1 << snr.size)
    for k in range(1, snr.size + 1):
        sets = np.flatnonzero(members.sum(axis=1) == k)
        best = np.full(sets.size, np.inf)
        for j in range(snr.size):
            has = members[sets, j] == 1
            rest = sets[has] ^ (1 << j)
            best[has] = np.minimum(best[has], f[rest] + g(table[j, rest]))
        f[sets] = best
    return float(f[-1])


class TestWorstVertex:
    """The one decreasing-SNR vertex against every vertex of the face."""

    @pytest.mark.parametrize("g", VERTEX_UTILITIES, ids=lambda g: g.kind)
    def test_matches_every_order(self, g):
        for snr in _vertex_channels(1, range(1, 8)):
            out = efficiency_metrics(build_view(ChannelModel(snr)), g)
            worst = _worst_by_orders(snr, g)
            assert out["spoa"] == pytest.approx(worst / out["social_opt"], rel=1e-12)
            assert out["pos"] == 1.0

    @pytest.mark.parametrize("g", VERTEX_UTILITIES, ids=lambda g: g.kind)
    def test_matches_subset_dp(self, g):
        for snr in _vertex_channels(2, range(7, 13)):
            out = efficiency_metrics(build_view(ChannelModel(snr)), g)
            worst = _worst_by_subsets(snr, g)
            assert out["spoa"] == pytest.approx(worst / out["social_opt"], rel=1e-12)

    def test_vertex_on_face(self):
        g = Utility.log1p()
        for snr in _vertex_channels(4, (1, 2, 5, 12, 100, 1000)):
            view = build_view(ChannelModel(snr))
            vertex = _greedy_corners(snr, np.argsort(-snr, kind="stable")[None])[0]
            assert max_face_residual(view, vertex) == 0.0
            out = efficiency_metrics(view, g)
            assert out["spoa"] * out["social_opt"] == pytest.approx(float(g(vertex).sum()),
                                                                    rel=1e-12)

    @pytest.mark.parametrize("g", [Utility.identity(), Utility.log1p()], ids=lambda g: g.kind)
    def test_thousand_users_in_milliseconds(self, g):
        view = build_view(ChannelModel(np.exp(np.random.default_rng(7).uniform(-4.0, 4.0, 1000))))
        best = min(timeit.repeat(lambda: efficiency_metrics(view, g), number=1, repeat=5))
        assert best < 0.01


# Copies of the verdict layer as it was before it was taken to its numpy-call floor:
# np.atleast_1d, np.all, np.any, np.diff, np.pad, np.concatenate, np.append, np.max,
# np.sum, np.flatnonzero and np.diag, with numpy scalars for the bisection bracket.
REF_BISECT_RTOL = 4.0 * np.finfo(float).eps


def ref_view(snr):
    """ChannelModel's checks and build_view's fields, as a plain namespace."""
    snr = np.atleast_1d(np.asarray(snr, dtype=float))
    if snr.ndim != 1 or snr.size < 1:
        raise ValueError("snr must be a non-empty 1-D array")
    if not np.all(np.isfinite(snr)) or np.any(snr <= 0.0):
        raise ValueError("every snr must be positive and finite")
    before = np.concatenate(([0.0], snr[:-1].cumsum()))
    after = np.concatenate((snr[:0:-1].cumsum()[::-1], [0.0]))
    model = SimpleNamespace(snr=snr, symmetric=bool(np.all(snr == snr[0])))
    return SimpleNamespace(model=model, m=snr.size,
                           safe_rates=np.log1p(snr / (1.0 + before + after)),
                           single_caps=np.log1p(snr), total=float(np.log1p(snr.sum())))


def ref_validate(g, c_max):
    vals = g(np.linspace(0.0, c_max, UTILITY_CHECK_POINTS + 1)[1:])
    if np.any(vals <= 0.0):
        raise ValueError(f"utility '{g.kind}' is not positive on (0, {c_max:g})")
    if np.any(np.diff(vals) <= 0.0):
        raise ValueError(f"utility '{g.kind}' is not strictly increasing on (0, {c_max:g})")


def ref_require_strictly_concave(g, c_max):
    if g.deriv is None:
        raise ValueError(f"utility '{g.kind}' has no derivative")
    dv = np.asarray(g.deriv(np.linspace(0.0, c_max, UTILITY_CHECK_POINTS + 1)[1:]), dtype=float)
    if np.any(np.diff(dv) >= 0.0):
        raise ValueError(f"utility '{g.kind}' is not strictly concave on (0, {c_max:g})")


def ref_bisect(f, lo, hi):
    for _ in range(MAX_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= REF_BISECT_RTOL * abs(mid):
            return mid
        lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
    raise ValueError(f"bisection did not converge in {MAX_BISECT_ITER} iterations")


def ref_max_weighted_base(view, deriv, inv_deriv, weights):
    weights = np.asarray(weights, dtype=float)
    profile, scales = np.empty(view.m), np.empty(view.m)
    blocks = [(np.arange(view.m), view.model.snr)]
    while blocks:
        users, snr = blocks.pop()
        w = weights[users]
        total = math.log1p(float(snr.sum()))
        slopes = w * np.asarray(deriv(total / users.size), dtype=float)
        c = ref_bisect(lambda c: float(np.sum(inv_deriv(c / w))) - total,
                       slopes.min(), slopes.max())
        rates = np.asarray(inv_deriv(c / w), dtype=float)
        order, cum_rates, cum_snr = ref_ratio_prefixes(rates, snr)
        excess = cum_rates[:-1] - np.log1p(cum_snr[:-1])
        if excess.max(initial=0.0) > 0.0:
            k = int(excess.argmax()) + 1
            blocks.append((users[order[:k]], snr[order[:k]]))
            blocks.append((users[order[k:]], snr[order[k:]] / (1.0 + cum_snr[k - 1])))
        else:
            profile[users] = rates
            scales[users] = c
    return profile, scales


def ref_no_solo_gain(view, g, profile, tol=IMPROVEMENT_MARGIN):
    profile = ref_as_profile(view.m, profile)
    slacks = ref_reply_slacks(view, profile)
    return slacks is not None and bool(
        (g(np.maximum(slacks, 0.0)) <= g(np.maximum(profile, 0.0)) + tol).all())


def ref_greedy_welfare(g, served):
    before = np.pad(served[:, :-1].cumsum(axis=1), ((0, 0), (1, 0)))
    return g(np.log1p(served / (1.0 + before))).sum(axis=1)


def ref_efficiency_metrics(view, g):
    ref_validate(g, float(view.single_caps.max()))
    worst = social = float(ref_greedy_welfare(g, -np.sort(-view.model.snr)[None])[0])
    if g.inv_deriv is not None:
        opt, _ = ref_max_weighted_base(view, g.deriv, g.inv_deriv, np.ones(view.m))
        social = float(g(opt).sum())
    return worst / social, 1.0, social


def ref_normalized_equilibrium(view, g, weights):
    ref_require_strictly_concave(g, float(view.single_caps.max()))
    if g.inv_deriv is None:
        raise ValueError(f"utility '{g.kind}' has no inverse derivative")
    if weights is None:
        tau = np.ones(view.m)
    else:
        tau = np.atleast_1d(np.asarray(weights, dtype=float))
        if tau.shape != (view.m,):
            raise ValueError(f"need {view.m} weights, got shape {tau.shape}")
        if np.any(tau <= 0.0) or not np.all(np.isfinite(tau)):
            raise ValueError("weights must be positive and finite")
    alpha, c = ref_max_weighted_base(view, g.deriv, g.inv_deriv, tau)
    levels = np.array(sorted(set(c.tolist()), reverse=True))
    members = c >= levels[:, None]
    lam = levels - np.append(levels[1:], 0.0)
    zeta = np.asarray(g.deriv(alpha), dtype=float)
    resid = max(float(np.max(np.abs(lam @ members / (tau * zeta) - 1.0))),
                float(np.max(np.abs(members @ alpha - np.log1p(members @ view.model.snr)))),
                worst_excess(view, alpha))
    if resid >= KKT_TOL:
        raise ValueError(f"KKT residual {resid:.3e} exceeds {KKT_TOL:g}; "
                         "inverse derivative is inconsistent with the derivative")
    return (alpha, zeta, float(lam[-1]), resid,
            [tuple(np.flatnonzero(s).tolist()) for s in members], lam)


def ref_goodman_certificate(view, g, profile, zeta, fd_step=1e-5):
    profile = ref_as_profile(view.m, profile)
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    if zeta.shape != (view.m,):
        raise ValueError(f"need {view.m} multipliers, got shape {zeta.shape}")
    if g.deriv is None:
        raise ValueError(f"utility '{g.kind}' has no derivative")
    if profile.min() <= 0.0 or worst_excess(view, profile) >= 0.0:
        raise ValueError("certificate requires interior point")

    def h(x):
        return zeta * np.asarray(g.deriv(x), dtype=float)

    step = np.where(profile > fd_step, fd_step, 0.5 * profile)
    G = np.diag((h(profile + step) - h(profile - step)) / (2.0 * step))
    S = G + G.T
    eig = np.linalg.eigvalsh(S)
    return G, S, eig, bool(eig.max() < -1e-10)


def ref_ess_check(view, g, resident, mutant_grid):
    if not view.model.symmetric:
        raise ValueError("ESS test requires a symmetric channel")
    rstar = view.total / view.m
    r = float(resident)
    if not (r >= -1e-12 and _mixed_gate(view, r, r)):
        raise ValueError(f"resident {r} outside the feasible symmetric range [0, {rstar:g}]")
    ref_validate(g, float(view.single_caps.max()))
    mutants = np.linspace(0.0, rstar, mutant_grid)
    mutants = mutants[np.abs(mutants - r) > 1e-12]
    b = ESS_SHARE * mutants + (1.0 - ESS_SHARE) * r
    u_res = _own_values(g, np.array([r])) * _mixed_gate(view, r, b)
    u_mut = _own_values(g, mutants) * _mixed_gate(view, mutants, b)
    fails = np.flatnonzero(_mixed_gate(view, b, b) & ~(u_res > u_mut + ESS_MARGIN))
    if fails.size:
        return False, (float(mutants[fails[0]]), ESS_SHARE)
    return True, None


def view_fields(view):
    return view.model.snr, view.model.symmetric, view.safe_rates, view.single_caps, view.total


def lib_view_fields(snr):
    return view_fields(build_view(ChannelModel(snr)))


def ref_view_fields(snr):
    return view_fields(ref_view(snr))


def lib_normalized(view, g, weights):
    ne = normalized_equilibrium(view, NormalizedEqConfig(g=g, weights=weights))
    return (ne.profile, ne.multipliers, ne.scale, ne.kkt_residual, ne.tight_sets,
            ne.set_multipliers)


def lib_goodman(view, g, profile, zeta):
    cert = goodman_certificate(view, g, profile, zeta)
    return cert.jacobian, cert.symmetrized, cert.eigenvalues, cert.negative_definite


def lib_ess(view, g, resident, mutant_grid):
    res = ess_check(view, g, EssTestSpec(resident=resident, mutant_grid=mutant_grid))
    return res.is_ess, res.witness


def verdict_channels(seed=30):
    """(snr, utilities, tau) for m = 1..12, SNRs e^U(-30, 10) (every other channel with
    repeated SNRs), utilities identity, log1p and power(U(0.05, 0.95)), tau e^U(-1, 1)."""
    rng = np.random.default_rng(seed)
    for m in range(1, 13):
        for c in range(4):
            snr = np.exp(rng.uniform(-30.0, 10.0, m))
            if c % 2:
                snr = rng.choice(snr[: max(1, m // 2)], size=m)
            gs = (Utility.identity(), Utility.log1p(),
                  Utility.power(float(rng.uniform(0.05, 0.95))))
            yield snr, gs, np.exp(rng.uniform(-1.0, 1.0, m))


class TestVerdictBitIdentity:
    """The verdict layer and the channel constructors under it give what the copies above
    give, bit for bit: values and errors alike."""

    def test_channels_and_efficiency(self):
        for snr, gs, _ in verdict_channels():
            assert outcome(lib_view_fields, snr) == outcome(ref_view_fields, snr)
            view, ref = build_view(ChannelModel(snr)), ref_view(snr)
            served = snr[np.random.default_rng(snr.size).permuted(
                np.tile(np.arange(snr.size), (5, 1)), axis=1)]
            for g in gs:
                assert (outcome(lambda: tuple(efficiency_metrics(view, g).values()))
                        == outcome(ref_efficiency_metrics, ref, g)), g.kind
                assert outcome(greedy_welfare, g, served) == outcome(ref_greedy_welfare, g, served)
                for c_max in (float(view.single_caps.min()), view.total):
                    assert outcome(g.validate, c_max) == outcome(ref_validate, g, c_max)
                    assert (outcome(g.require_strictly_concave, c_max)
                            == outcome(ref_require_strictly_concave, g, c_max))

    def test_strong_and_pareto(self):
        for snr, gs, _ in verdict_channels(31):
            view, ref, m = build_view(ChannelModel(snr)), ref_view(snr), snr.size
            corners = greedy_vertices(view, 6, seed=m)
            rng = np.random.default_rng(m)
            face = rng.dirichlet(np.ones(len(corners)), size=3) @ corners
            rows = np.concatenate([corners, face, face * rng.uniform(0.3, 0.99, (3, 1)),
                                   face * rng.uniform(1.01, 1.2, (3, 1)), np.zeros((1, m))])
            for g in gs:
                for p in rows:
                    want = outcome(ref_no_solo_gain, ref, g, p)
                    assert outcome(is_strong_equilibrium, view, g, p) == want
                    assert outcome(is_pareto_optimal, view, g, p) == want

    def test_normalized_and_goodman(self):
        for snr, gs, tau in verdict_channels(32):
            view, ref = build_view(ChannelModel(snr)), ref_view(snr)
            for g in gs:
                for weights in (None, tau, tau[:1], -tau, tau * np.inf):
                    got = outcome(lib_normalized, view, g, weights)
                    assert got == outcome(ref_normalized_equilibrium, ref, g, weights), g.kind
                    if got[0] == "raised":
                        continue
                    profile, zeta = lib_normalized(view, g, weights)[:2]
                    for p, z in ((profile * (1.0 - 1e-3), zeta), (profile, zeta),
                                 (profile * 0.5, zeta[:-1])):
                        assert (outcome(lib_goodman, view, g, p, z)
                                == outcome(ref_goodman_certificate, ref, g, p, z))

    def test_ess(self):
        rng = np.random.default_rng(33)
        for m in range(1, 13):
            snr = np.full(m, np.exp(rng.uniform(-30.0, 10.0)))
            view, ref = build_view(ChannelModel(snr)), ref_view(snr)
            for g in (Utility.identity(), Utility.log1p(),
                      Utility.power(float(rng.uniform(0.05, 0.95)))):
                for share in (1.0, 0.9, 0.5, 0.0, 1.5):
                    for grid in (2, 40):
                        resident = share * view.total / m
                        assert (outcome(lib_ess, view, g, resident, grid)
                                == outcome(ref_ess_check, ref, g, resident, grid))
        asym = np.array([1.0, 2.0])
        assert (outcome(lib_ess, build_view(ChannelModel(asym)), Utility.identity(), 0.1, 5)
                == outcome(ref_ess_check, ref_view(asym), Utility.identity(), 0.1, 5))

    @pytest.mark.parametrize("snr", [
        [1.0, math.nan], [math.inf, 1.0], [1.0, -math.inf], [0.0, 1.0], [-1.0], [], [[1.0, 2.0]],
        np.zeros((0, 2)), 2.5, np.float64(0.0), np.array(3.0), (4.0, 5.0)])
    def test_channel_inputs(self, snr):
        assert outcome(lib_view_fields, snr) == outcome(ref_view_fields, snr)
