"""Normalized equilibrium solver and the Goodman uniqueness certificate."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from macgame import (
    ChannelModel,
    NormalizedEqConfig,
    Utility,
    build_view,
    goodman_certificate,
    max_face_residual,
    normalized_equilibrium,
)
from macgame.capacity import subset_sums

LN2 = math.log(2.0)
LN3 = math.log(3.0)


@pytest.fixture
def sym2():
    return build_view(ChannelModel(np.array([1.0, 1.0])))


class TestNormalizedEquilibrium:
    @pytest.mark.parametrize("m,snr", [(2, 1.0), (3, 1.0), (3, 250.0)])
    def test_equal_weights_symmetric_channel(self, m, snr):
        view = build_view(ChannelModel(np.full(m, snr)))
        res = normalized_equilibrium(view, NormalizedEqConfig(g=Utility.log1p()))
        assert np.all(np.abs(res.profile - view.total / m) < 1e-9)
        assert res.kkt_residual < 1e-8
        assert max_face_residual(view, res.profile) == 0.0

    def test_unequal_weights_reach_the_corner(self, sym2):
        # tau = (2, 1): the heavier user is pushed to its single-user cap and
        # the other lands exactly on its safe rate
        res = normalized_equilibrium(
            sym2, NormalizedEqConfig(g=Utility.log1p(), weights=[2.0, 1.0]))
        assert res.profile[0] == pytest.approx(LN2, abs=1e-9)
        assert res.profile[1] == pytest.approx(math.log(1.5), abs=1e-9)
        assert max_face_residual(sym2, res.profile) == 0.0

    def test_huge_weight_clamps_to_upper_bound(self, sym2):
        res = normalized_equilibrium(
            sym2, NormalizedEqConfig(g=Utility.log1p(), weights=[1e6, 1.0]))
        assert res.profile[0] == pytest.approx(LN2, abs=1e-9)
        assert res.profile[1] == pytest.approx(sym2.total - LN2, abs=1e-9)

    def test_weight_ratio_appears_in_gradients(self, sym2):
        # both coordinates stay strictly inside their bounds with mild weights,
        # so stationarity forces g'(a_1) tau_1 = g'(a_2) tau_2
        g = Utility.log1p()
        res = normalized_equilibrium(
            sym2, NormalizedEqConfig(g=g, weights=[1.2, 1.0]))
        lo = sym2.safe_rates + 1e-9
        hi = sym2.single_caps - 1e-9
        assert np.all(res.profile > lo) and np.all(res.profile < hi)
        grads = np.asarray(g.deriv(res.profile)) * np.array([1.2, 1.0])
        assert abs(grads[0] - grads[1]) < 1e-8
        assert abs(grads[0] - res.scale) < 1e-8

    def test_power_utility_bracket_growth(self, sym2):
        # g'(0) is infinite for power utilities; the bracket must still close
        res = normalized_equilibrium(sym2, NormalizedEqConfig(g=Utility.power(0.5)))
        assert np.all(np.abs(res.profile - sym2.total / 2) < 1e-9)

    def test_single_user(self):
        view = build_view(ChannelModel(np.array([1.0])))
        res = normalized_equilibrium(view, NormalizedEqConfig(g=Utility.log1p()))
        assert res.profile[0] == pytest.approx(LN2, abs=1e-12)

    def test_identity_utility_rejected(self, sym2):
        with pytest.raises(ValueError, match="concave"):
            normalized_equilibrium(sym2, NormalizedEqConfig(g=Utility.identity()))

    def test_missing_inverse_derivative_rejected(self, sym2):
        g = Utility(kind="adhoc", fn=np.log1p,
                    deriv=lambda x: 1.0 / (1.0 + np.asarray(x, float)))
        with pytest.raises(ValueError, match="inverse"):
            normalized_equilibrium(sym2, NormalizedEqConfig(g=g))

    def test_bad_weights_rejected(self, sym2):
        with pytest.raises(ValueError):
            normalized_equilibrium(
                sym2, NormalizedEqConfig(g=Utility.log1p(), weights=[1.0, -1.0]))

    def test_multipliers_scale_inversely_with_weights(self, sym2):
        # tau = (2, 1): user 0 sits at its single-user cap, so {0} and N are
        # tight, and tau_j zeta_j is the sum of lambda_J over the J holding j
        tau = np.array([2.0, 1.0])
        g = Utility.log1p()
        res = normalized_equilibrium(sym2, NormalizedEqConfig(g=g, weights=tau))
        assert res.tight_sets == [(0,), (0, 1)]
        assert np.all(res.set_multipliers >= 0.0)
        lam_0, lam_n = res.set_multipliers
        assert tau * res.multipliers == pytest.approx([lam_0 + lam_n, lam_n], abs=1e-15)
        assert res.multipliers == pytest.approx(g.deriv(res.profile), abs=1e-15)
        assert res.scale == lam_n

    def test_random_channels_answered_with_certificate(self):
        # m 1-6, SNR log-uniform on [1e-3, 1e3], tau = e^U(-1, 1), log1p or
        # power: box-clamped bisection left the region on about 4 in 10 of
        # these; every answer is re-checked on the 2^m enumeration route
        rng = np.random.default_rng(2011)
        for _ in range(400):
            m = int(rng.integers(1, 7))
            view = build_view(ChannelModel(10.0 ** rng.uniform(-3.0, 3.0, size=m)))
            tau = np.exp(rng.uniform(-1.0, 1.0, size=m))
            g = Utility.log1p() if rng.random() < 0.5 else Utility.power(rng.uniform(0.1, 0.9))
            res = normalized_equilibrium(view, NormalizedEqConfig(g=g, weights=tau))
            assert res.kkt_residual < 1e-12
            assert res.tight_sets[-1] == tuple(range(m))
            assert np.all(res.set_multipliers >= 0.0)
            covered = np.zeros(m)
            for J, lam in zip(res.tight_sets, res.set_multipliers):
                covered[list(J)] += lam
                mask = sum(1 << j for j in J)
                assert abs(res.profile[list(J)].sum() - view.cap[mask]) <= 1e-12
            assert np.max(subset_sums(res.profile) - view.cap) <= 1e-12
            assert covered == pytest.approx(tau * res.multipliers, rel=1e-12)


def test_import_leaves_scipy_out():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, macgame; print(any(k.split('.')[0] == 'scipy' for k in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


class TestGoodmanCertificate:
    def test_diagonal_matches_analytic_second_derivative(self, sym2):
        cert = goodman_certificate(sym2, Utility.log1p(), [0.3, 0.3], [1.0, 1.0])
        expect = -(1.3 ** -2)
        assert cert.jacobian[0, 0] == pytest.approx(expect, abs=1e-6)
        assert cert.jacobian[1, 1] == pytest.approx(expect, abs=1e-6)
        assert abs(cert.jacobian[0, 1]) < 1e-8 and abs(cert.jacobian[1, 0]) < 1e-8
        assert cert.negative_definite

    def test_identity_gives_zero_matrix(self, sym2):
        cert = goodman_certificate(sym2, Utility.identity(), [0.3, 0.3], [1.0, 1.0])
        assert np.allclose(cert.symmetrized, 0.0)
        assert not cert.negative_definite

    def test_verdict_invariant_under_multiplier_scaling(self, sym2):
        a = goodman_certificate(sym2, Utility.log1p(), [0.2, 0.4], [1.0, 1.0])
        b = goodman_certificate(sym2, Utility.log1p(), [0.2, 0.4], [5.0, 5.0])
        assert a.negative_definite == b.negative_definite
        assert np.allclose(b.symmetrized, 5.0 * a.symmetrized, atol=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_column_by_column_differences(self, seed):
        # the separable payoff gradient has a diagonal Jacobian, so one
        # difference with every rate stepped at once must give, bit for bit,
        # what m one-column differences give
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 7))
        view = build_view(ChannelModel(10.0 ** rng.uniform(-2.0, 2.0, size=m)))
        g = (Utility.log1p(), Utility.power(0.5), Utility.power(0.3))[seed % 3]
        zeta = rng.uniform(0.1, 5.0, size=m)
        p = view.safe_rates * rng.uniform(0.1, 0.9, size=m)
        step = 1e-5

        def h(x):
            return zeta * g.deriv(x)

        G = np.empty((m, m))
        for k in range(m):
            e = np.zeros(m)
            e[k] = step
            G[:, k] = (h(p + e) - h(p - e)) / (2.0 * step)
        cert = goodman_certificate(view, g, p, zeta, fd_step=step)
        assert np.array_equal(cert.jacobian, G)
        assert np.array_equal(cert.symmetrized, G + G.T)

    def test_boundary_point_rejected(self, sym2):
        with pytest.raises(ValueError, match="interior"):
            goodman_certificate(sym2, Utility.log1p(), [math.log(1.5), LN2], [1.0, 1.0])
        with pytest.raises(ValueError, match="interior"):
            goodman_certificate(sym2, Utility.log1p(), [0.0, 0.3], [1.0, 1.0])
