"""Selecting one equilibrium from the continuum on the maximal face.

The normalized equilibrium with weights tau (Rosen 1965) is the maximiser
of sum_j tau_j g(alpha_j) over the region: with g strictly concave, one
point of the face. It comes with a KKT certificate: a nested chain of
tight sets and one multiplier lambda_J >= 0 per set, with
tau_j g'(alpha_j) equal to the sum of lambda_J over the sets J holding j.
The Goodman certificate checks the uniqueness condition numerically: the
symmetrized Jacobian of the weighted payoff gradients must be negative
definite at the point of interest. Both keep to the numpy-call floor `capacity` sets out.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import CapacityRegionView, as_profile, max_weighted_base, worst_excess
from .game import Utility

KKT_TOL = 1e-8


@dataclass
class NormalizedEqConfig:
    """Per-user weights tau (positive) and a strictly concave utility."""

    g: Utility
    weights: np.ndarray = None

    def resolve_weights(self, m: int) -> np.ndarray:
        if self.weights is None:
            return np.ones(m)
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.shape != (m,):
            raise ValueError(f"need {m} weights, got shape {w.shape}")
        if not (w[w.argmin()] > 0.0 and w[w.argmax()] < np.inf):
            raise ValueError("weights must be positive and finite")
        return w


@dataclass
class NormalizedEquilibrium:
    profile: np.ndarray
    multipliers: np.ndarray      # zeta_j = g'(alpha_j)
    scale: float                 # lambda_N, multiplier of the grand constraint
    kkt_residual: float
    tight_sets: list             # level sets of c, nested, the last one N
    set_multipliers: np.ndarray  # lambda per tight set, >= 0


def normalized_equilibrium(view: CapacityRegionView,
                           config: NormalizedEqConfig) -> NormalizedEquilibrium:
    """Maximise sum_j tau_j g(alpha_j) over the region, with its KKT certificate.

    The maximiser comes from `max_weighted_base`, with c_j = tau_j g'(alpha_j).
    The tight sets are the level sets {j : c_j >= v} of c, by decreasing v,
    and lambda_k = c_k - c_{k+1} >= 0 (c_{r+1} = 0), so tau_j zeta_j is the
    sum of lambda over the tight sets holding j. `kkt_residual` is the
    largest of the relative stationarity gap, the gap of any tight set to
    its capacity, and the worst constraint excess (the last tight set is N,
    so the profile is on the face once all three are 0). Raises if g is not
    strictly concave, lacks an inverse derivative, or the certificate fails.
    """
    g = config.g
    g.require_strictly_concave(float(view.single_caps.max()))
    if g.inv_deriv is None:
        raise ValueError(f"utility '{g.kind}' has no inverse derivative")
    tau = config.resolve_weights(view.m)
    alpha, c = max_weighted_base(view, g.deriv, g.inv_deriv, tau)
    levels = np.array(sorted(set(c.tolist()), reverse=True) + [0.0])   # c's levels, then 0
    members = c >= levels[:-1, None]
    lam = levels[:-1] - levels[1:]
    zeta = np.asarray(g.deriv(alpha), dtype=float)
    cover = np.abs(lam @ members / (tau * zeta) - 1.0)
    gap = np.abs(members @ alpha - np.log1p(members @ view.model.snr))
    resid = max(float(cover[cover.argmax()]), float(gap[gap.argmax()]), worst_excess(view, alpha))
    if resid >= KKT_TOL:
        raise ValueError(f"KKT residual {resid:.3e} exceeds {KKT_TOL:g}; "
                         "inverse derivative is inconsistent with the derivative")
    return NormalizedEquilibrium(
        profile=alpha, multipliers=zeta, scale=float(lam[-1]), kkt_residual=resid,
        tight_sets=[tuple(s.nonzero()[0].tolist()) for s in members],
        set_multipliers=lam)


@dataclass
class GoodmanCertificate:
    jacobian: np.ndarray      # G, finite-difference Jacobian of the weighted gradients
    symmetrized: np.ndarray   # G + G^T
    eigenvalues: np.ndarray
    negative_definite: bool


def goodman_certificate(view: CapacityRegionView, g: Utility, profile,
                        zeta, fd_step: float = 1e-5) -> GoodmanCertificate:
    """Numerical uniqueness certificate at an interior point.

    Builds the Jacobian of h(alpha) = [zeta_j * g'(alpha_j)]_j by central
    finite differences of the smooth payoff (the feasibility indicator is
    constant on a neighbourhood of an interior point, so it drops out) and
    checks G + G^T for negative definiteness. h is separable, so G is
    diagonal and one difference with every rate stepped at once gives it. A
    rate at or below `fd_step` is stepped by half itself, so no difference
    reads g' below 0.
    """
    m = view.m
    profile = as_profile(m, profile)
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    if zeta.shape != (m,):
        raise ValueError(f"need {m} multipliers, got shape {zeta.shape}")
    if g.deriv is None:
        raise ValueError(f"utility '{g.kind}' has no derivative")
    # worst_excess >= 0 exactly when some nonempty constraint is tight or broken
    if profile[profile.argmin()] <= 0.0 or worst_excess(view, profile) >= 0.0:
        raise ValueError("certificate requires interior point")

    def h(x: np.ndarray) -> np.ndarray:
        return zeta * np.asarray(g.deriv(x), dtype=float)

    step = np.where(profile > fd_step, fd_step, 0.5 * profile)
    G = np.diag((h(profile + step) - h(profile - step)) / (2.0 * step))
    S = G + G.T
    eig = np.linalg.eigvalsh(S)
    return GoodmanCertificate(jacobian=G, symmetrized=S, eigenvalues=eig,
                              negative_definite=bool(eig.max() < -1e-10))
