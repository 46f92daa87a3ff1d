"""Polymatroid geometry of the Gaussian multiple-access rate region.

All rates and capacities are in nats. A channel with per-user received
SNRs s_1..s_m admits the rate region

    { alpha >= 0 : sum_{i in J} alpha_i <= ln(1 + sum_{i in J} s_i) for every nonempty J },

a polymatroid whose rank function C(J) = ln(1 + s(J)) is monotone and
submodular. The maximal face (total rate equal to the grand capacity,
every user at or above its interference-limited safe rate) is where the
game-theoretic structure lives, so the module also provides a residual,
a sampler and the greedy vertices for it.

Every membership query goes through one sorted-ratio prefix oracle: C is
ln1p of a modular function, so the worst subset for a profile is a
threshold set of alpha_i / s_i (Tse & Hanly 1998). With users sorted by
that ratio, `worst_excess` is a maximum over the m prefixes and
`reply_slack` a minimum over {i} joined with each prefix of the others,
O(m log m) per profile. The same oracle drives `max_weighted_base`, the
one maximiser of a weighted separable concave welfare over the face. The
2**m table of `subset_sums` (`view.cap`) is the independent second route,
kept for listings and checks.

At small m a one-profile query costs numpy dispatch, not arithmetic, so
those paths take the cheapest call with the same result: a 1-D extreme is
read as x[x.argmin()] or x[x.argmax()], the value x.min() or x.max() gives
(NaN included) without a ufunc reduction's fixed cost, running sums call
np.add.accumulate, which x.cumsum() wraps, into preallocated arrays in place
of np.concatenate or np.pad, and a sum calls np.add.reduce, which np.sum wraps.

Users are indexed 0..m-1 throughout.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

FEASIBILITY_TOL = 1e-9

# The 2**m rank table (`view.cap`) is no longer a desk-scale computation
# beyond this.
MAX_ENUM_USERS = 20

# itertools listings stay cheap up to here: ordered subsets (for display), and
# all m! greedy vertices (40,320 rows at m = 8).
MAX_LISTING_USERS = 12
MAX_VERTEX_USERS = 8

# Bisection on a block's common scale stops at a width of 4 ulps of the root.
MAX_BISECT_ITER = 200
BISECT_RTOL = 4.0 * float(np.finfo(float).eps)


@dataclass
class ChannelModel:
    """Physical channel: everything derives from the per-user received SNRs."""

    snr: np.ndarray

    def __post_init__(self):
        snr = np.asarray(self.snr, dtype=float)
        self.snr = snr = snr.reshape(1) if snr.ndim == 0 else snr
        if snr.ndim != 1 or snr.size < 1:
            raise ValueError("snr must be a non-empty 1-D array")
        if not (snr[snr.argmin()] > 0.0 and snr[snr.argmax()] < math.inf):
            raise ValueError("every snr must be positive and finite")

    @property
    def m(self) -> int:
        return int(self.snr.size)

    @property
    def symmetric(self) -> bool:
        """Users are exchangeable: every SNR is the same float (the package's one rule)."""
        return bool((self.snr == self.snr[0]).all())

    @classmethod
    def from_link_budget(cls, powers, gains, noise_var: float):
        powers = np.asarray(powers, dtype=float)
        gains = np.asarray(gains, dtype=float)
        if powers.shape != gains.shape:
            raise ValueError("powers and gains must have matching length")
        return cls(powers * gains / noise_var)


def _subset_indices(m: int, subset) -> list[int]:
    idx = sorted({int(i) for i in subset})
    if not idx:
        raise ValueError("empty subset has no capacity")
    if idx[0] < 0 or idx[-1] >= m:
        raise ValueError(f"subset {idx} out of range for {m} users")
    return idx


def capacity_of(model: ChannelModel, subset) -> float:
    """Joint capacity C(J) = ln(1 + sum of SNRs in J), in nats."""
    idx = _subset_indices(model.m, subset)
    return math.log1p(float(model.snr[idx].sum()))


def safe_rate(model: ChannelModel, user: int, subset) -> float:
    """Rate of `user` when the other members of `subset` are treated as noise.

    Equals C(subset) - C(subset minus user) by the log identity.
    """
    idx = _subset_indices(model.m, subset)
    if int(user) not in idx:
        raise ValueError(f"user {user} not in subset {idx}")
    # the others summed directly: sum(subset) - s_user cancels when s_user dominates
    rest = float(model.snr[[j for j in idx if j != int(user)]].sum())
    return math.log1p(float(model.snr[int(user)]) / (1.0 + rest))


def subset_sums(values: np.ndarray) -> np.ndarray:
    """Sums of `values` over every subset, indexed by bitmask.

    1-D input of length m gives a vector of length 2**m; a (B, m) batch
    gives (B, 2**m). Entry at mask k is the sum over the set bits of k.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        return subset_sums(values[None])[0]
    out = np.zeros((values.shape[0], 1))
    for j in range(values.shape[1]):
        out = np.concatenate([out, out + values[:, j:j + 1]], axis=1)
    return out


def all_subsets(m: int):
    """Nonempty subsets as 0-based tuples, ordered by (size, members)."""
    for k in range(1, m + 1):
        yield from itertools.combinations(range(m), k)


@dataclass
class CapacityRegionView:
    """Region data for one channel: grand capacity, safe rates, single caps."""

    model: ChannelModel
    safe_rates: np.ndarray   # r_{i,N} against the full user set
    single_caps: np.ndarray  # C({i}) per user
    total: float             # grand-coalition capacity C(N)

    @property
    def m(self) -> int:
        return self.model.m

    @cached_property
    def cap(self) -> np.ndarray:
        """C over all 2**m bitmasks (cap[0] = 0), built on first use.

        The enumeration route: region listings and independent checks only.
        """
        if self.m > MAX_ENUM_USERS:
            raise ValueError(
                f"subset enumeration supports at most {MAX_ENUM_USERS} users, got {self.m}")
        return np.log1p(subset_sums(self.model.snr))

    def rank_table(self) -> dict:
        """C(J) for every nonempty J, keyed by member tuple, (size, lex) order."""
        if self.m > MAX_LISTING_USERS:
            raise ValueError(f"subset listing supports at most {MAX_LISTING_USERS} users")
        return {J: float(self.cap[sum(1 << i for i in J)]) for J in all_subsets(self.m)}


def build_view(model: ChannelModel) -> CapacityRegionView:
    """Region data of a channel. If symmetric, C(N)/m <= C({1}) as ln is concave, but tiny
    SNRs can round it one ulp above, so every grid snap of the equal split clamps to C({1})."""
    snr = model.snr
    # The others' SNRs summed directly: total - s_i cancels when s_i dominates.
    before, after = np.zeros((2, snr.size))
    np.add.accumulate(snr[:-1], out=before[1:])
    np.add.accumulate(snr[:0:-1], out=after[-2::-1])
    safe = np.log1p(snr / (1.0 + before + after))
    return CapacityRegionView(model=model, safe_rates=safe, single_caps=np.log1p(snr),
                              total=float(np.log1p(snr.sum())))


def as_profile(m: int, rates) -> np.ndarray:
    rates = np.asarray(rates, dtype=float)
    if rates.ndim == 0:
        rates = rates.reshape(1)
    if rates.shape != (m,):
        raise ValueError(f"rate profile must have length {m}, got shape {rates.shape}")
    if np.count_nonzero(np.isfinite(rates)) < m:
        raise ValueError("rate profile must be finite")
    return rates


def _ratio_prefixes(rates: np.ndarray, snr: np.ndarray) -> tuple:
    """The ratio order, and rate and SNR sums over its prefixes, of a profile or a batch.

    `rates` is one profile (k,) or a (B, k) batch; all results are (k,) or
    (k, B), sum entry j covering the j + 1 users with the largest
    alpha_i / s_i (ties in index order). The prefix axis comes first so the
    running sums vectorise over the batch.
    """
    if rates.ndim == 1:
        order = (-(rates / snr)).argsort(kind="stable")
        return order, np.add.accumulate(rates[order]), np.add.accumulate(snr[order])
    order = (-(rates / snr)).T.argsort(axis=0, kind="stable")
    picked = rates[np.arange(rates.shape[0]), order]
    return order, picked.cumsum(axis=0), snr[order].cumsum(axis=0)


def worst_excess(view: CapacityRegionView, rates):
    """Largest alpha(P) - C(P) over the m ratio-sorted prefixes P of a profile.

    Accepts one profile or a (B, m) batch (one value per row). Wherever it
    is >= 0 it equals the maximum over every nonempty subset, so
    max(0, worst_excess) is the largest constraint violation and its sign
    says exactly whether some constraint is tight or broken.
    """
    rates = np.asarray(rates, dtype=float)
    _, cum_rates, cum_snr = _ratio_prefixes(rates, view.model.snr)
    excess = cum_rates - np.log1p(cum_snr)
    return excess.max(axis=0) if rates.ndim == 2 else float(excess[excess.argmax()])


def reply_slack(view: CapacityRegionView, user: int, others):
    """Largest own rate of `user` that keeps the profile feasible.

    `others` holds the opponents' rates in user order with `user` removed,
    one row of m - 1 rates or a (B, m - 1) batch. Own rate a >= 0 fits
    exactly when a <= slack + FEASIBILITY_TOL. The slack is -inf where the
    opponents alone break the region by more than FEASIBILITY_TOL.
    """
    others = np.asarray(others, dtype=float)
    snr = view.model.snr
    own = float(snr[user])
    user %= snr.size   # a negative user counts from the end, as in snr[user]
    _, cum_rates, cum_snr = _ratio_prefixes(others, np.concatenate((snr[:user], snr[user + 1:])))
    gaps = np.log1p(own + cum_snr) - cum_rates
    excess = cum_rates - np.log1p(cum_snr)
    if others.ndim == 1:
        if not others.size:   # no opponents (m = 1): the cap is C({user})
            return math.log1p(own)
        if not (others[others.argmin()] >= -FEASIBILITY_TOL
                and excess[excess.argmax()] <= FEASIBILITY_TOL):
            return -math.inf
        return min(math.log1p(own), float(gaps[gaps.argmin()]))
    slack = np.minimum(math.log1p(own), gaps.min(axis=0, initial=np.inf))
    alone = ((others.T.min(axis=0, initial=np.inf) >= -FEASIBILITY_TOL)
             & (excess.max(axis=0, initial=-np.inf) <= FEASIBILITY_TOL))
    slack = np.where(alone, slack, -np.inf)
    return slack if others.ndim == 2 else float(slack)


def is_feasible(view: CapacityRegionView, rates) -> bool:
    """Membership test: nonnegative and every subset constraint within FEASIBILITY_TOL."""
    rates = as_profile(view.m, rates)
    return bool(rates[rates.argmin()] >= -FEASIBILITY_TOL
                and worst_excess(view, rates) <= FEASIBILITY_TOL)


def feasible_rows(view: CapacityRegionView, profiles: np.ndarray) -> np.ndarray:
    """Vectorised membership for a (B, m) batch of profiles."""
    profiles = np.asarray(profiles, dtype=float)
    return ((profiles.T.min(axis=0) >= -FEASIBILITY_TOL)
            & (worst_excess(view, profiles) <= FEASIBILITY_TOL))


def max_face_residual(view: CapacityRegionView, rates,
                      tol: float = FEASIBILITY_TOL) -> float:
    """Largest violation of membership in the maximal face; 0 means on-face.

    The face is: feasible, every rate at or above its safe rate, and total
    rate equal to C(N). Violations below `tol` count as zero.
    """
    rates = as_profile(view.m, rates)
    short = view.safe_rates - rates
    worst = max(
        -float(rates[rates.argmin()]),
        worst_excess(view, rates),
        float(short[short.argmax()]),
        abs(float(rates.sum()) - view.total),
    )
    return 0.0 if worst <= tol else worst


def _greedy_corners(snr: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Greedy vertex of the maximal face for each row of a (P, m) permutation batch.

    Serving users in the row's order, each takes its marginal capacity.
    """
    marginal = np.diff(np.log1p(snr[perms].cumsum(axis=1)), axis=1, prepend=0.0)
    corners = np.empty(perms.shape)
    np.put_along_axis(corners, perms, marginal, axis=1)
    return corners


def sample_max_face(view: CapacityRegionView, count: int, seed: int) -> np.ndarray:
    """Draw `count` profiles on the maximal face, deterministically per seed.

    Each profile is a flat-Dirichlet mixture of m + 1 greedy vertices from
    uniformly random permutations. The face is the convex hull of those
    vertices (Edmonds 1970), so every draw lies on it and none is rejected.
    Not uniform over the face polytope; intended as a test-point generator.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    m = view.m
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    perms = rng.permuted(np.tile(np.arange(m), (count * (m + 1), 1)), axis=1)
    corners = _greedy_corners(view.model.snr, perms).reshape(count, m + 1, m)
    weights = rng.dirichlet(np.ones(m + 1), size=count)
    return np.einsum("ck,ckm->cm", weights, corners)


def face_vertices(view: CapacityRegionView) -> np.ndarray:
    """All m! greedy (permutation) vertices of the maximal face, one row each.

    Permutation pi serves users in its order, each taking its marginal
    capacity. `game.efficiency_metrics` scores only the one serving users
    by decreasing SNR; this listing is the tests' second route.
    """
    if view.m > MAX_VERTEX_USERS:
        raise ValueError(f"vertex listing supports at most {MAX_VERTEX_USERS} users")
    perms = np.array(list(itertools.permutations(range(view.m))))
    return _greedy_corners(view.model.snr, perms)


def max_weighted_base(view: CapacityRegionView, deriv, inv_deriv, weights) -> tuple:
    """Maximiser of sum_j w_j g(alpha_j) over the maximal face, by decomposition.

    g is strictly concave and increasing, given by g' (`deriv`) and its
    inverse. A block of k users with total T first gets the rates with one
    common scale c = w_j g'(alpha_j) summing to T, by bisection on c in the
    exact bracket [min, max] of w_j g'(T/k). If that breaks a proper
    ratio-sorted prefix P, the optimum is tight on the worst one (Fujishige
    1980; Groenevelt 1991), so the block splits into the restriction,
    channel snr[P], and the contraction, the rest with SNRs divided by
    1 + s(P); both are Gaussian-MAC faces again. Returns the profile and
    each user's scale c_j = w_j g'(alpha_j), shared exactly within a block.
    """
    weights = np.asarray(weights, dtype=float)
    profile, scales = np.empty(view.m), np.empty(view.m)
    blocks = [(np.arange(view.m), view.model.snr)]
    while blocks:
        users, snr = blocks.pop()
        w = weights[users]
        total = math.log1p(float(snr.sum()))
        slopes = w * np.asarray(deriv(total / users.size), dtype=float)
        lo, hi = float(slopes[slopes.argmin()]), float(slopes[slopes.argmax()])
        for _ in range(MAX_BISECT_ITER):   # the rates' sum decreases in c
            c = 0.5 * (lo + hi)
            if hi - lo <= BISECT_RTOL * abs(c):
                break
            lo, hi = (c, hi) if float(np.add.reduce(inv_deriv(c / w))) - total > 0.0 else (lo, c)
        else:
            raise ValueError(f"bisection did not converge in {MAX_BISECT_ITER} iterations")
        rates = np.asarray(inv_deriv(c / w), dtype=float)
        order, cum_rates, cum_snr = _ratio_prefixes(rates, snr)
        excess = cum_rates[:-1] - np.log1p(cum_snr[:-1])
        if excess.size and excess[excess.argmax()] > 0.0:
            k = int(excess.argmax()) + 1
            blocks.append((users[order[:k]], snr[order[:k]]))
            blocks.append((users[order[k:]], snr[order[k:]] / (1.0 + cum_snr[k - 1])))
        else:
            profile[users] = rates
            scales[users] = c
    return profile, scales
