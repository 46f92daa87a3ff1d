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
    _ratio_prefixes,
    all_subsets,
    as_profile,
    face_vertices,
    feasible_rows,
    reply_slack,
    subset_sums,
    worst_excess,
)
from macgame.game import NASH_TOL, _reply_slacks

from lattice import greedy_vertices

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def sym3_example():
    # P = 25, noise variance 0.1 -> per-user SNR 250
    return ChannelModel(np.full(3, 25.0 * 1.0 / 0.1))


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


class TestSymmetricRule:
    """Users are exchangeable exactly when every SNR is the same float, at any scale."""

    @pytest.mark.parametrize("snr, symmetric", [
        ([2.5] * 4, True), ([1e-20] * 2, True), ([7.0], True),
        ([1e-13, 9e-13], False), ([1.0, 1.0 + 2**-52], False), ([1.0, 1.0, 1.0 + 1e-13], False),
    ])
    def test_every_snr_the_same_float(self, snr, symmetric):
        assert ChannelModel(np.array(snr)).symmetric is symmetric

    @pytest.mark.parametrize("m, snr", [(2, 1e-20), (3, 1.78e-26), (5, 1e-19), (3, 250.0)])
    def test_view_builds_with_split_at_most_one_ulp_above_single_cap(self, m, snr):
        # ln is concave, so only rounding can put C(N)/m above C({1}), by one ulp at most
        view = build_view(ChannelModel(np.full(m, snr)))
        assert view.total / m <= np.nextafter(view.single_caps[0], np.inf)


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


# The region oracle's formulas as they were before its per-call trims (array methods,
# argmin/argmax extremes, slices for np.delete), kept as the reference those trims must
# match bit for bit.

def ref_as_profile(m, rates):
    rates = np.atleast_1d(np.asarray(rates, dtype=float))
    if rates.shape != (m,):
        raise ValueError(f"rate profile must have length {m}, got shape {rates.shape}")
    if not np.all(np.isfinite(rates)):
        raise ValueError("rate profile must be finite")
    return rates


def ref_ratio_prefixes(rates, snr):
    order = np.argsort(-(rates / snr).T, axis=0, kind="stable")
    if rates.ndim == 1:
        picked = rates[order]
    else:
        picked = rates[np.arange(rates.shape[0]), order]
    return order, picked.cumsum(axis=0), snr[order].cumsum(axis=0)


def ref_worst_excess(view, rates):
    rates = np.asarray(rates, dtype=float)
    _, cum_rates, cum_snr = ref_ratio_prefixes(rates, view.model.snr)
    worst = (cum_rates - np.log1p(cum_snr)).max(axis=0)
    return worst if rates.ndim == 2 else float(worst)


def ref_reply_slack(view, user, others):
    others = np.asarray(others, dtype=float)
    snr = view.model.snr
    own = float(snr[user])
    _, cum_rates, cum_snr = ref_ratio_prefixes(others, np.delete(snr, user))
    slack = np.minimum(math.log1p(own),
                       (np.log1p(own + cum_snr) - cum_rates).min(axis=0, initial=np.inf))
    alone = ((others.T.min(axis=0, initial=np.inf) >= -FEASIBILITY_TOL)
             & ((cum_rates - np.log1p(cum_snr)).max(axis=0, initial=-np.inf)
                <= FEASIBILITY_TOL))
    slack = np.where(alone, slack, -np.inf)
    return slack if others.ndim == 2 else float(slack)


def ref_is_feasible(view, rates):
    rates = ref_as_profile(view.m, rates)
    return bool(rates.min() >= -FEASIBILITY_TOL
                and ref_worst_excess(view, rates) <= FEASIBILITY_TOL)


def ref_feasible_rows(view, profiles):
    profiles = np.asarray(profiles, dtype=float)
    return ((profiles.T.min(axis=0) >= -FEASIBILITY_TOL)
            & (ref_worst_excess(view, profiles) <= FEASIBILITY_TOL))


def ref_max_face_residual(view, rates):
    rates = ref_as_profile(view.m, rates)
    worst = max(float(-rates.min()), ref_worst_excess(view, rates),
                float((view.safe_rates - rates).max()), abs(float(rates.sum()) - view.total))
    return 0.0 if worst <= FEASIBILITY_TOL else worst


def ref_best_response(view, user, others):
    user = int(user)
    others = np.atleast_1d(np.asarray(others, dtype=float))
    if others.shape != (view.m - 1,):
        raise ValueError(f"expected {view.m - 1} opponent rates, got {others.shape}")
    slack = ref_reply_slack(view, user, others)
    if slack == -np.inf:
        raise ValueError("no feasible action set: opponents' rates violate the region")
    return max(float(view.safe_rates[user]), slack)


def ref_reply_slacks(view, profile):
    order, cum_rates, cum_snr = ref_ratio_prefixes(profile, view.model.snr)
    excess = cum_rates - np.log1p(cum_snr)
    if profile.min() < -FEASIBILITY_TOL or excess.max() > FEASIBILITY_TOL:
        return None
    rates0, snr0, excess0 = np.concatenate((np.zeros((3, 1)), (cum_rates, cum_snr, excess)),
                                           axis=1)
    before = np.arange(rates0.size) <= np.argsort(order)[:, None]
    return np.where(before, np.log1p(view.model.snr[:, None] + snr0) - rates0,
                    profile[:, None] - excess0).min(axis=1)


def ref_is_nash(view, profile):
    profile = ref_as_profile(view.m, profile)
    slacks = ref_reply_slacks(view, profile)
    return slacks is not None and bool(
        np.all(np.abs(np.maximum(view.safe_rates, slacks) - profile) <= NASH_TOL))


def bits(x):
    """x down to the bits: arrays by dtype, shape and bytes, floats by type and bytes."""
    if isinstance(x, tuple):
        return tuple(bits(v) for v in x)
    if isinstance(x, np.ndarray):
        return "array", x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return type(x), np.float64(x).tobytes()
    return type(x), x


def outcome(fn, *args):
    """What a call gave: its value's bits, or its exception's type and message."""
    try:
        return bits(fn(*args))
    except (ValueError, IndexError, TypeError) as exc:
        return "raised", type(exc), str(exc)


def identity_cases(seed=14):
    """Channels with m = 1..20 and SNRs over e^-9..e^9 (a third with repeated SNRs), each
    with greedy corners as they are and scaled by 1 -+ 1e-12, face mixes, interior and
    infeasible profiles, tied and equal alpha_i / s_i, zero and slightly negative rates."""
    rng = np.random.default_rng(seed)
    for m in range(1, 21):
        for c in range(3):
            snr = np.exp(rng.uniform(-9.0, 9.0, m))
            if c == 1:
                snr = rng.choice(snr[: max(1, m // 2)], size=m)
            view = build_view(ChannelModel(snr))
            corners = greedy_vertices(view, 6, seed=m)
            face = rng.dirichlet(np.ones(len(corners)), size=4) @ corners
            tied = face.copy()
            i, j = rng.integers(m, size=2)
            tied[:, j] = tied[:, i] * snr[j] / snr[i]
            zeros = face * (rng.uniform(size=face.shape) < 0.4)
            rows = [corners, corners * (1.0 - 1e-12), corners * (1.0 + 1e-12), face,
                    face * rng.uniform(0.2, 0.99, (4, 1)), face * rng.uniform(1.01, 1.5, (4, 1)),
                    np.outer(rng.uniform(0.0, 2.0, 3), snr) / m, tied, zeros, np.zeros((1, m)),
                    face - rng.uniform(0.0, 2e-9, face.shape)]
            yield view, np.concatenate(rows)


class TestOracleBitIdentity:
    """The trimmed oracle gives what the reference formulas above give, bit for bit."""

    G = Utility.identity()

    def test_profiles(self):
        for view, rows in identity_cases():
            snr = view.model.snr
            for p in rows:
                assert outcome(as_profile, view.m, p) == outcome(ref_as_profile, view.m, p)
                assert (outcome(_ratio_prefixes, p, snr)
                        == outcome(ref_ratio_prefixes, p, snr))
                for lib, ref in ((worst_excess, ref_worst_excess),
                                 (is_feasible, ref_is_feasible),
                                 (max_face_residual, ref_max_face_residual)):
                    assert outcome(lib, view, p) == outcome(ref, view, p), lib.__name__
                assert outcome(_reply_slacks, view, p) == outcome(ref_reply_slacks, view, p)
                assert is_nash(view, self.G, p) is ref_is_nash(view, p)
                for user in range(view.m):
                    others = np.delete(p, user)
                    assert (outcome(reply_slack, view, user, others)
                            == outcome(ref_reply_slack, view, user, others))
                    assert (outcome(best_response, view, self.G, user, others)
                            == outcome(ref_best_response, view, user, others))

    def test_batches(self):
        for view, rows in identity_cases():
            assert outcome(feasible_rows, view, rows) == outcome(ref_feasible_rows, view, rows)
            assert outcome(worst_excess, view, rows) == outcome(ref_worst_excess, view, rows)
            assert (outcome(_ratio_prefixes, rows, view.model.snr)
                    == outcome(ref_ratio_prefixes, rows, view.model.snr))
            for user in range(view.m):
                others = np.delete(rows, user, axis=1)
                assert (outcome(reply_slack, view, user, others)
                        == outcome(ref_reply_slack, view, user, others))

    def test_input_forms(self):
        one = build_view(ChannelModel([3.0]))
        two = build_view(ChannelModel([1.0, 2.0]))
        three = build_view(ChannelModel([1.0, 2.0, 4.0]))
        for view, p in ((one, 0.3), (one, 5.0), (one, [0.3]), (two, [0.2, 0.5]),
                        (two, np.array([0, 1])), (three, [0.1, 0.2, 0.3]),
                        (three, (1, 0, 0)), (three, [-0.0, 0.0, 0.1])):
            for lib, ref in ((as_profile, ref_as_profile), (is_feasible, ref_is_feasible),
                             (max_face_residual, ref_max_face_residual)):
                args = (view.m, p) if lib is as_profile else (view, p)
                assert outcome(lib, *args) == outcome(ref, *args), (lib.__name__, p)
            assert is_nash(view, self.G, p) is ref_is_nash(view, p)
        for view, user, others in ((one, 0, []), (two, 0, 0.3), (two, 1, [0.3]),
                                   (two, np.int64(1), np.array([0])), (three, -1, [0.1, 0.2]),
                                   (three, 2, (0.1, 0.2)), (two, 0, 2.0)):
            assert (outcome(best_response, view, self.G, user, others)
                    == outcome(ref_best_response, view, user, others))
            assert (outcome(reply_slack, view, user, others)
                    == outcome(ref_reply_slack, view, user, others))
        no_opponents = np.zeros((3, 0))
        assert (outcome(reply_slack, one, 0, no_opponents)
                == outcome(ref_reply_slack, one, 0, no_opponents))

    @pytest.mark.parametrize("bad", [
        [0.1, 0.2], [[0.1, 0.2, 0.3]], 0.3, [], [0.1, math.nan, 0.2], [math.inf, 0.0, 0.0],
        [0.0, 0.0, -math.inf],
    ])
    def test_profile_errors(self, bad):
        view = build_view(ChannelModel([1.0, 2.0, 4.0]))
        for lib, ref in ((as_profile, ref_as_profile), (is_feasible, ref_is_feasible),
                         (max_face_residual, ref_max_face_residual),
                         (lambda v, p: is_nash(v, self.G, p), ref_is_nash)):
            args = (view.m, bad) if lib is as_profile else (view, bad)
            got = outcome(lib, *args)
            assert got[0] == "raised" and got == outcome(ref, *args)

    @pytest.mark.parametrize("others", [[0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]], 0.1])
    def test_opponent_shape_errors(self, others):
        view = build_view(ChannelModel([1.0, 2.0, 4.0]))
        got = outcome(best_response, view, self.G, 0, others)
        assert got[0] == "raised" and got == outcome(ref_best_response, view, 0, others)

    @pytest.mark.parametrize("others", [[math.nan, 0.1], [0.1, math.inf], [-math.inf, 0.0]])
    def test_non_finite_opponents(self, others):
        # reply_slack reads them as -inf, as before; best_response now names the cause
        view = build_view(ChannelModel([1.0, 2.0, 4.0]))
        assert outcome(reply_slack, view, 0, others) == outcome(ref_reply_slack, view, 0, others)
        with pytest.raises(ValueError, match="^rate profile must be finite$"):
            best_response(view, self.G, 0, others)
