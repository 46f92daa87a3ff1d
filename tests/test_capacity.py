"""Capacity-region geometry: rank values, safe rates, membership, the face."""

import math

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
    is_feasible,
    is_nash,
    max_face_residual,
    safe_rate,
    sample_max_face,
)
from macgame.capacity import (
    FEASIBILITY_TOL,
    all_subsets,
    face_vertices,
    feasible_rows,
    subset_sums,
)

from lattice import greedy_vertices

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def sym3_example():
    # P = 25, noise variance 0.1 -> per-user SNR 250
    return ChannelModel.symmetric_model(3, power=25.0, noise_var=0.1)


def snr_models(max_m=8):
    return st.lists(st.floats(0.01, 50.0), min_size=1, max_size=max_m).map(
        lambda s: ChannelModel(np.array(s)))


def enum_membership(view, p):
    """Exhaustive second route: every subset sum against the 2**m rank table."""
    return bool(p.min() >= -FEASIBILITY_TOL
                and np.all(subset_sums(p) <= view.cap + FEASIBILITY_TOL))


def enum_face_residual(view, p):
    worst = max(float(-p.min()), float((subset_sums(p) - view.cap).max()),
                float((view.safe_rates - p).max()), abs(float(p.sum()) - view.total))
    return 0.0 if worst <= FEASIBILITY_TOL else worst


def enum_best_response(view, user, others):
    """None when the opponents alone leave the region."""
    full0 = np.insert(others, user, 0.0)
    if not enum_membership(view, full0):
        return None
    masks = np.arange(view.cap.size)
    with_user = (masks >> user) & 1 == 1
    slack = view.cap[with_user] - subset_sums(full0)[with_user]
    return max(float(view.safe_rates[user]), float(slack.min()))


def oracle_cases(seed, count=40):
    """Channels with m = 1..10 and SNRs over 1e-4..1e4, ties included, each with
    greedy corners as they are and scaled by 1 -+ 1e-12, face mixes, interior,
    infeasible, tied-ratio and slightly negative profiles."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        m = t % 10 + 1
        snr = np.exp(rng.uniform(math.log(1e-4), math.log(1e4), m))
        if t % 3 == 0:
            snr = rng.choice(snr[: max(1, m // 2)], size=m)   # repeated SNRs
        view = build_view(ChannelModel(snr))
        corners = greedy_vertices(view, 24, seed=t)
        mix = rng.dirichlet(np.ones(len(corners)), size=6) @ corners
        # rate moved between two users: the total stays C(N), an inner
        # constraint may break
        moved = mix.copy()
        i, j = rng.integers(m, size=2)
        shift = rng.uniform(0.0, 0.5, 6) * moved[:, j]
        moved[:, i] += shift
        moved[:, j] -= shift
        rows = [corners, corners * (1.0 - 1e-12), corners * (1.0 + 1e-12), mix, moved,
                mix * rng.uniform(0.2, 0.99, (6, 1)), mix * rng.uniform(1.01, 1.5, (6, 1)),
                rng.uniform(0.0, 1.0, (6, m)) * view.single_caps * rng.uniform(0.1, 1.0, (6, 1)),
                np.outer(rng.uniform(0.0, 2.0, 4), snr) / m,          # equal alpha_i / s_i
                np.maximum(mix - rng.uniform(0.0, 1e-6, mix.shape), -1e-6)]
        yield view, np.concatenate(rows)


class TestCapacityOf:
    def test_symmetric_three_user_singleton(self):
        assert capacity_of(sym3_example(), {0}) == pytest.approx(math.log(251.0), abs=1e-12)
        assert math.log(251.0) == pytest.approx(5.525452939131784, abs=1e-9)

    def test_symmetric_three_user_grand(self):
        assert capacity_of(sym3_example(), {0, 1, 2}) == pytest.approx(
            math.log(751.0), abs=1e-12)

    def test_single_user_interval(self):
        model = ChannelModel(np.array([1.0]))
        assert capacity_of(model, {0}) == pytest.approx(LN2, abs=1e-15)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="empty subset"):
            capacity_of(sym3_example(), set())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            capacity_of(sym3_example(), {0, 3})


class TestSafeRate:
    def test_symmetric_three_user(self):
        # direct formula ln(1 + 25/50.1); the difference C{1,2,3} - C{1,2}
        # is the independent cross-check
        model = sym3_example()
        r3 = safe_rate(model, 0, {0, 1, 2})
        assert r3 == pytest.approx(math.log1p(25.0 / 50.1), abs=1e-15)
        assert r3 == pytest.approx(math.log(751.0) - math.log(501.0), abs=1e-12)

    def test_asymmetric_two_user(self):
        model = ChannelModel(np.array([3.0, 1.0]))
        assert safe_rate(model, 0, {0, 1}) == pytest.approx(math.log(2.5), abs=1e-15)
        assert math.log(2.5) == pytest.approx(math.log(5.0) - math.log(2.0), abs=1e-15)

    def test_single_user_equals_own_capacity(self):
        model = ChannelModel(np.array([4.2]))
        assert safe_rate(model, 0, {0}) == capacity_of(model, {0})

    def test_user_outside_subset_rejected(self):
        with pytest.raises(ValueError):
            safe_rate(sym3_example(), 2, {0, 1})

    def test_matches_view_when_one_snr_dominates(self):
        # the other users' SNRs are summed directly; sum(subset) - s_user cancels
        model = ChannelModel(np.array([6455.95, 0.069082]))
        assert safe_rate(model, 0, {0, 1}) == math.log1p(6455.95 / (1.0 + 0.069082))
        rng = np.random.default_rng(0)
        eps = np.finfo(float).eps
        for _ in range(2000):
            model = ChannelModel(np.exp(rng.uniform(-9.2, 9.2, size=int(rng.integers(1, 9)))))
            view = build_view(model)
            got = [safe_rate(model, i, range(model.m)) for i in range(model.m)]
            assert np.all(np.abs(got - view.safe_rates) <= 4 * eps * view.safe_rates)

    @given(snr_models())
    @settings(max_examples=200, deadline=None)
    def test_difference_identity(self, model):
        full = set(range(model.m))
        for i in range(model.m):
            rest = full - {i}
            expect = capacity_of(model, full) - (capacity_of(model, rest) if rest else 0.0)
            assert abs(safe_rate(model, i, full) - expect) <= 1e-12


class TestRankFunction:
    @given(snr_models())
    @settings(max_examples=100, deadline=None)
    def test_monotone_and_submodular(self, model):
        view = build_view(model)
        caps = view.cap
        masks = np.arange(caps.size)
        for i in range(model.m):
            base = masks[(masks >> i) & 1 == 0]
            grown = caps[base | (1 << i)]
            assert np.all(caps[base] <= grown + 1e-12)
            for j in range(model.m):
                if j == i:
                    continue
                both = base[(base >> j) & 1 == 0]
                gain_alone = caps[both | (1 << i)] - caps[both]
                gain_later = caps[both | (1 << i) | (1 << j)] - caps[both | (1 << j)]
                assert np.all(gain_later <= gain_alone + 1e-12)

    @given(snr_models())
    @settings(max_examples=100, deadline=None)
    def test_subadditive(self, model):
        view = build_view(model)
        full = capacity_of(model, range(model.m))
        assert full <= float(view.single_caps.sum()) + 1e-12

    def test_constraint_matrix_matches_three_user_pattern(self):
        view = build_view(sym3_example())
        expected = np.array([
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [1, 1, 0],
            [1, 0, 1],
            [0, 1, 1],
            [1, 1, 1],
        ], dtype=float)
        matrix = np.array([np.isin(np.arange(view.m), J) for J in all_subsets(view.m)],
                          dtype=float)
        assert np.array_equal(matrix, expected)
        table = view.rank_table()
        assert list(table) == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]

    def test_too_many_users_rejected(self):
        # only the 2**m enumeration table is capped; the view itself is not
        view = build_view(ChannelModel(np.ones(21)))
        with pytest.raises(ValueError, match="at most 20"):
            view.cap


class TestFeasibility:
    def test_symmetric_three_user_near_face(self):
        view = build_view(sym3_example())
        assert is_feasible(view, [2.2071, 2.2071, 2.2071])

    def test_origin_always_feasible(self):
        view = build_view(sym3_example())
        assert is_feasible(view, np.zeros(3))

    def test_singleton_bound_violation(self):
        view = build_view(ChannelModel(np.array([1.0, 1.0])))
        assert not is_feasible(view, [0.70, 0.40])

    def test_dimension_mismatch_rejected(self):
        view = build_view(sym3_example())
        with pytest.raises(ValueError, match="length 3"):
            is_feasible(view, [0.1, 0.1])

    def test_prefix_oracle_agrees_on_lattice(self):
        # every point of the [0, C1]^3 lattice with step C1/20; on a symmetric
        # channel many of them sit exactly on a constraint
        view = build_view(ChannelModel(np.array([1.5, 1.5, 1.5])))
        c1 = float(view.single_caps[0])
        axis = np.linspace(0.0, c1, 21)
        pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        exhaustive = np.all(subset_sums(pts) <= view.cap + FEASIBILITY_TOL, axis=1)
        assert np.array_equal(feasible_rows(view, pts), exhaustive)
        assert [is_feasible(view, p) for p in pts] == list(exhaustive)

    @given(snr_models(max_m=5), st.floats(1.01, 10.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_scaling_enlarges_region(self, model, factor, seed):
        view = build_view(model)
        pts = sample_max_face(view, 5, seed=seed)
        bigger = build_view(ChannelModel(model.snr * factor))
        assert all(is_feasible(bigger, p) for p in pts)


class TestMaxFace:
    def test_boundary_point_on_face(self):
        view = build_view(ChannelModel(np.array([1.0, 1.0])))
        assert max_face_residual(view, [math.log(1.5), LN2]) == 0.0

    def test_equal_split_on_face(self):
        view = build_view(ChannelModel(np.array([1.0, 1.0])))
        assert max_face_residual(view, [LN3 / 2, LN3 / 2]) == 0.0

    def test_interior_point_sum_residual(self):
        view = build_view(ChannelModel(np.array([1.0, 1.0])))
        assert max_face_residual(view, [0.3, 0.3]) == pytest.approx(
            LN3 - 0.6, abs=1e-12)

    def test_sample_count_zero(self):
        view = build_view(ChannelModel(np.array([1.0, 1.0])))
        assert sample_max_face(view, 0, seed=1).shape == (0, 2)

    def test_samples_sit_on_face(self):
        view = build_view(ChannelModel(np.array([1.0, 1.0])))
        pts = sample_max_face(view, 100, seed=42)
        assert pts.shape == (100, 2)
        assert all(max_face_residual(view, p) == 0.0 for p in pts)

    def test_sampling_deterministic(self):
        view = build_view(sym3_example())
        a = sample_max_face(view, 50, seed=9)
        b = sample_max_face(view, 50, seed=9)
        assert np.array_equal(a, b)
        c = sample_max_face(view, 50, seed=10)
        assert not np.array_equal(a, c)

    def test_vertices_on_face(self):
        view = build_view(ChannelModel(np.array([3.0, 1.0, 0.5])))
        verts = face_vertices(view)
        assert verts.shape == (6, 3)
        assert all(max_face_residual(view, v) == 0.0 for v in verts)

    def test_vertex_listing_refused_above_eight_users(self):
        assert face_vertices(build_view(ChannelModel(np.ones(8)))).shape == (40320, 8)
        with pytest.raises(ValueError, match="at most 8 users"):
            face_vertices(build_view(ChannelModel(np.ones(9))))

    def test_corners_exact_when_one_snr_dominates(self):
        # safe rates from total - s_i lost 1.8e-14 to cancellation here
        view = build_view(ChannelModel(np.array([6455.95, 0.0690820])))
        for corner in face_vertices(view):
            assert max_face_residual(view, corner, tol=0.0) <= 1e-15

    def test_thin_face_sampled(self):
        # a thin face: under 0.2 % of flat Dirichlet splits of the slack above
        # the safe rates lie in the region, so rejecting from them fails here
        view = build_view(ChannelModel(
            np.array([14.5, 0.772, 0.317, 27.7, 0.662, 0.127, 0.0898, 0.0884])))
        pts = sample_max_face(view, 500, seed=0)
        assert pts.shape == (500, 8)
        assert all(enum_face_residual(view, p) == 0.0 for p in pts)


class TestOracleAgainstEnumeration:
    def test_membership(self):
        for view, rows in oracle_cases(1):
            expect = np.array([enum_membership(view, p) for p in rows])
            assert np.array_equal(feasible_rows(view, rows), expect)
            assert [is_feasible(view, p) for p in rows] == list(expect)

    def test_face_residual(self):
        for view, rows in oracle_cases(2):
            for p in rows:
                assert abs(max_face_residual(view, p) - enum_face_residual(view, p)) <= 1e-12

    def test_best_response(self):
        g = Utility.identity()
        for view, rows in oracle_cases(3):
            for p in rows:
                for user in range(view.m):
                    others = np.delete(p, user)
                    expect = enum_best_response(view, user, others)
                    if expect is None:
                        with pytest.raises(ValueError, match="no feasible action set"):
                            best_response(view, g, user, others)
                    else:
                        assert abs(best_response(view, g, user, others) - expect) <= 1e-12

    def test_thousand_users(self):
        rng = np.random.default_rng(1000)
        view = build_view(ChannelModel(np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 1000))))
        corner = greedy_vertices(view, 1, seed=4)[0]
        assert max_face_residual(view, corner) == 0.0
        assert is_nash(view, Utility.identity(), corner)
        assert not is_feasible(view, corner * 1.001)
