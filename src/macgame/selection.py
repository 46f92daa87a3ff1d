"""Selecting one equilibrium from the continuum on the maximal face.

The normalized equilibrium fixes per-user weights tau and a common scale c
so that g'(alpha_j) * tau_j = c for every unconstrained user while the
rates exhaust the grand capacity. With g strictly concave this pins a
unique point of the face. The Goodman certificate checks the uniqueness
condition numerically: the symmetrized Jacobian of the weighted payoff
gradients must be negative definite at the point of interest.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import CapacityRegionView, as_profile, max_face_residual, worst_excess
from .game import Utility

SUM_TOL = 1e-10
KKT_TOL = 1e-8
BRACKET_LO = 1e-12
MAX_BISECT_ITER = 200
BISECT_XTOL = 1e-15
BISECT_RTOL = 4.0 * np.finfo(float).eps


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f in [lo, hi] (opposite signs), to BISECT_XTOL + BISECT_RTOL * |root|."""
    f_lo = f(lo)
    width = hi - lo
    for _ in range(MAX_BISECT_ITER):
        width *= 0.5
        mid = lo + width
        f_mid = f(mid)
        if f_mid * f_lo >= 0.0:
            lo = mid
        if f_mid == 0.0 or abs(width) < BISECT_XTOL + BISECT_RTOL * abs(mid):
            return mid
    raise ValueError(f"bisection did not converge in {MAX_BISECT_ITER} iterations")


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
        if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be positive and finite")
        return w


@dataclass
class NormalizedEquilibrium:
    profile: np.ndarray
    multipliers: np.ndarray  # zeta_j = c / tau_j
    scale: float
    kkt_residual: float


def normalized_equilibrium(view: CapacityRegionView,
                           config: NormalizedEqConfig) -> NormalizedEquilibrium:
    """Solve the weighted stationarity system on the maximal face.

    Finds c by scalar bisection so that the box-clamped rates
    clip((g')^{-1}(c / tau_j), [safe_j, C({j})]) sum to C(N); coordinates
    that hit a bound stay there and the free ones absorb the remainder.
    Raises if g is not strictly concave, if no bracket exists, or if the
    solution violates a subset constraint (pathological weights).
    """
    m = view.m
    c_max = float(view.single_caps.max())
    g = config.g
    g.require_strictly_concave(c_max)
    if g.inv_deriv is None:
        raise ValueError(f"utility '{g.kind}' has no inverse derivative")
    tau = config.resolve_weights(m)
    lo_bounds = view.safe_rates
    hi_bounds = view.single_caps

    def coords(c: float) -> np.ndarray:
        with np.errstate(all="ignore"):
            x = np.asarray(g.inv_deriv(c / tau), dtype=float)
        x = np.where(np.isfinite(x), x, hi_bounds)
        return np.clip(x, lo_bounds, hi_bounds)

    def gap(c: float) -> float:
        return float(coords(c).sum()) - view.total

    lo = BRACKET_LO
    with np.errstate(all="ignore"):
        slope0 = float(np.max(tau * np.asarray(g.deriv(0.0), dtype=float)))
    if np.isfinite(slope0) and gap(slope0) <= 0.0:
        hi = slope0
    else:
        # g'(0) can be infinite (power utilities); grow the bracket instead.
        hi = 1.0
        for _ in range(MAX_BISECT_ITER):
            if gap(hi) <= 0.0:
                break
            hi *= 4.0
        else:
            raise ValueError("no bisection bracket: clamped rates never fit the face")

    if gap(lo) < 0.0:
        raise ValueError(
            f"no bisection bracket: even c = {lo:g} undershoots the face total")
    if abs(gap(lo)) <= SUM_TOL:
        c = lo
    elif abs(gap(hi)) <= SUM_TOL:
        c = hi
    else:
        c = _bisect(gap, lo, hi)

    alpha = coords(c)
    if abs(float(alpha.sum()) - view.total) > SUM_TOL:
        raise ValueError(
            f"bisection failed: |sum - C(N)| = {abs(alpha.sum() - view.total):.3e} "
            f"at c = {c:.6e}")
    if max_face_residual(view, alpha) != 0.0:
        raise ValueError(
            "normalized equilibrium left the region: a subset constraint binds "
            "that box clamping cannot handle (extreme weights)")

    inactive = (alpha > lo_bounds + 1e-12) & (alpha < hi_bounds - 1e-12)
    if inactive.any():
        resid = float(np.max(np.abs(
            np.asarray(g.deriv(alpha[inactive]), dtype=float) * tau[inactive] - c)))
    else:
        resid = 0.0
    if resid >= KKT_TOL:
        raise ValueError(f"stationarity residual {resid:.3e} exceeds {KKT_TOL:g}; "
                         "inverse derivative is inconsistent with the derivative")
    return NormalizedEquilibrium(profile=alpha, multipliers=c / tau,
                                 scale=c, kkt_residual=resid)


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
    checks G + G^T for negative definiteness.
    """
    m = view.m
    profile = as_profile(m, profile)
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    if zeta.shape != (m,):
        raise ValueError(f"need {m} multipliers, got shape {zeta.shape}")
    if g.deriv is None:
        raise ValueError(f"utility '{g.kind}' has no derivative")
    # worst_excess >= 0 exactly when some nonempty constraint is tight or broken
    if profile.min() <= 0.0 or worst_excess(view, profile) >= 0.0:
        raise ValueError("certificate requires interior point")

    def h(x: np.ndarray) -> np.ndarray:
        return zeta * np.asarray(g.deriv(x), dtype=float)

    G = np.empty((m, m))
    for k in range(m):
        e = np.zeros(m)
        e[k] = fd_step
        G[:, k] = (h(profile + e) - h(profile - e)) / (2.0 * fd_step)
    S = G + G.T
    eig = np.linalg.eigvalsh(S)
    return GoodmanCertificate(
        jacobian=G,
        symmetrized=S,
        eigenvalues=eig,
        negative_definite=bool(eig.max() < -1e-10),
    )
