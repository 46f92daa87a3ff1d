"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines as
they print). Every tolerance is pinned here; the runtime budgets are
asserted too.
"""

import math
import time

import numpy as np
import pytest

from macgame import (
    ChannelModel,
    DynamicsRun,
    EssTestSpec,
    NormalizedEqConfig,
    PopulationState,
    Protocol,
    Utility,
    build_view,
    capacity_of,
    efficiency_metrics,
    ess_check,
    expected_payoff,
    expected_payoff_mc,
    goodman_certificate,
    is_nash,
    is_strong_equilibrium,
    make_grid,
    max_face_residual,
    normalized_equilibrium,
    payoff,
    potential,
    rest_point_residual,
    safe_rate,
    sample_max_face,
    simulate,
)
from macgame.checks import _random_mixed_state

from lattice import strong_by_lattice

RSTAR_2 = math.log(3.0) / 2.0


def report(num: int, text: str, t0: float) -> None:
    print(f"criterion {num:2d} PASS: {text} ({time.time() - t0:.2f}s)")


def test_criterion_01_capacity_identities():
    t0 = time.time()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        model = ChannelModel(rng.uniform(0.01, 50.0, size=m))
        omega = sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
        c_omega = capacity_of(model, omega)
        for i in omega:
            rest = [j for j in omega if j != i]
            expect = c_omega - (capacity_of(model, rest) if rest else 0.0)
            assert abs(safe_rate(model, i, omega) - expect) <= 1e-12
        view = build_view(model)
        caps = view.cap
        masks = np.arange(caps.size)
        for i in range(m):
            base = masks[(masks >> i) & 1 == 0]
            assert np.all(caps[base] <= caps[base | (1 << i)] + 1e-12)
            for j in range(i + 1, m):
                both = base[(base >> j) & 1 == 0]
                gain_alone = caps[both | (1 << i)] - caps[both]
                gain_later = caps[both | (1 << i) | (1 << j)] - caps[both | (1 << j)]
                assert np.all(gain_later <= gain_alone + 1e-12)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(1, "safe-rate identity and rank monotonicity/submodularity, "
              "1000 random models", t0)


def test_criterion_02_nash_iff_max_face():
    t0 = time.time()
    g = Utility.identity()
    configs = [[1.0, 1.0], [1.0, 1.0, 1.0], [3.0, 1.0], [3.0, 1.0, 0.5]]
    rng = np.random.default_rng(202)
    checked = 0
    for snr in configs:
        view = build_view(ChannelModel(np.array(snr)))
        on_face = sample_max_face(view, 500, seed=17)
        perturbed = np.maximum(
            on_face + rng.normal(0.0, 0.05, size=on_face.shape), 0.0)
        for p in np.concatenate([on_face, perturbed]):
            assert is_nash(view, g, p) == (max_face_residual(view, p) == 0.0)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(2, f"is_nash matches face membership on {checked} profiles, "
              "zero disagreements", t0)


def test_criterion_03_strong_equilibria_on_face():
    t0 = time.time()
    view = build_view(ChannelModel(np.full(3, 25.0 * 1.0 / 0.1)))
    g = Utility.identity()
    rng = np.random.default_rng(303)
    face = sample_max_face(view, 50, seed=23)
    for p in face:
        assert is_strong_equilibrium(view, g, p)
        assert strong_by_lattice(view, g, p, deviation_grid=25)
    interior = sample_max_face(view, 50, seed=29) * rng.uniform(0.5, 0.9, size=(50, 1))
    for p in interior:
        assert not is_strong_equilibrium(view, g, p)
        assert not strong_by_lattice(view, g, p, deviation_grid=25)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(3, "50 face samples strong, 50 interior points not, exact reply-slack "
              "test and every coalition on grid 25", t0)


def test_criterion_04_spoa_is_one_for_identity():
    t0 = time.time()
    g = Utility.identity()
    for m in (2, 3):
        view = build_view(ChannelModel(np.ones(m)))
        out = efficiency_metrics(view, g)
        assert abs(out["spoa"] - 1.0) < 1e-6
        assert abs(out["pos"] - 1.0) < 1e-6
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(4, "spoa and pos within 1e-6 of 1 for g = id, m in {2, 3}", t0)


def test_criterion_05_potential_identity():
    t0 = time.time()
    rng = np.random.default_rng(505)
    g = Utility.log1p()
    count = 0
    while count < 1000:
        m = int(rng.integers(1, 5))
        view = build_view(ChannelModel(rng.uniform(0.2, 30.0, size=m)))
        alpha = sample_max_face(view, 1, seed=count)[0] * rng.uniform(0.2, 1.0)
        j = int(rng.integers(m))
        beta_j = float(rng.uniform(0.0, alpha[j]))
        beta = alpha.copy()
        beta[j] = beta_j
        lhs = potential(view, g, alpha) - potential(view, g, beta)
        rhs = float(g(alpha[j]) - g(beta_j))
        assert abs(lhs - rhs) < 1e-12
        count += 1
    report(5, "potential difference identity on 1000 random feasible pairs", t0)


def test_criterion_06_normalized_equilibrium():
    t0 = time.time()
    g = Utility.log1p()
    for m in (2, 3):
        view = build_view(ChannelModel(np.ones(m)))
        res = normalized_equilibrium(view, NormalizedEqConfig(g=g))
        assert np.all(np.abs(res.profile - view.total / m) < 1e-9)
        assert res.kkt_residual < 1e-8
        interior = res.profile * 0.6
        cert = goodman_certificate(view, g, interior, res.multipliers)
        assert cert.negative_definite
        unit = goodman_certificate(view, g, interior, np.ones(m))
        analytic = np.diag(-(1.0 + interior) ** -2)
        assert np.max(np.abs(unit.jacobian - analytic)) < 1e-6
    report(6, "normalized equilibrium hits the equal split, KKT < 1e-8, "
              "Goodman certificate negative definite", t0)


def test_criterion_07_ess():
    t0 = time.time()
    for m in (2, 3):
        view = build_view(ChannelModel(np.ones(m)))
        rstar = view.total / view.m
        for g in (Utility.identity(), Utility.log1p()):
            good = ess_check(view, g, EssTestSpec(resident=rstar, mutant_grid=50))
            assert good.is_ess and good.witness is None
            bad = ess_check(view, g, EssTestSpec(resident=0.9 * rstar, mutant_grid=50))
            assert not bad.is_ess
            mut, eps = bad.witness
            r_eps = eps * mut + (1.0 - eps) * 0.9 * rstar
            invader = np.full(m, r_eps)
            invader[0] = mut
            resident = np.full(m, r_eps)
            resident[0] = 0.9 * rstar
            assert payoff(view, g, invader, 0) >= payoff(view, g, resident, 0)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(7, "equal split is an ESS, 0.9x resident invaded with a verified "
              "witness, m in {2, 3}, g in {id, log1p}", t0)


def test_criterion_08_rest_points():
    t0 = time.time()
    g = Utility.identity()
    protocols = [Protocol.bnn(), Protocol.replicator(),
                 Protocol.smith(1.0), Protocol.smith(2.0)]
    for m in (2, 3):
        view = build_view(ChannelModel(np.ones(m)))
        rstar = view.total / m
        grid = make_grid(float(view.single_caps.max()), 51, include=rstar)
        dirac = PopulationState.dirac(grid, rstar)
        for proto in protocols:
            assert rest_point_residual(view, g, proto, dirac) < 1e-8
    view = build_view(ChannelModel(np.ones(2)))
    grid = make_grid(math.log(2.0), 51, include=view.total / 2)
    rng = np.random.default_rng(808)
    for _ in range(20):
        state = _random_mixed_state(rng, grid, view.total / view.m)
        assert rest_point_residual(view, g, Protocol.bnn(), state) > 1e-6
    report(8, "Dirac(C(N)/m) at rest under all protocols; 20 random "
              "full-support states move under BNN", t0)


@pytest.mark.parametrize("proto", [Protocol.bnn(K=32.0), Protocol.smith(1.0, K=8.0),
                                   Protocol.replicator(K=1.0)],
                         ids=lambda p: p.kind)
def test_criterion_09_dynamics_convergence(proto):
    # dt, N, step budget, and start are pinned; the growth parameter K is
    # free and is chosen per protocol so the flow reaches tolerance within
    # the budget (BNN's excess-payoff tail is algebraically slow at K = 1)
    t0 = time.time()
    view = build_view(ChannelModel(np.ones(2)))
    grid = make_grid(math.log(2.0), 51, include=RSTAR_2)
    run = DynamicsRun(protocol=proto, state0=PopulationState.uniform(grid),
                      dt=0.01, steps=20_000, record_every=500, seed=0)
    trace = simulate(view, Utility.identity(), run)
    err = abs(trace.mean_rate[-1] - 0.549306)
    assert err < 1e-2
    assert trace.max_drift < 1e-9
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(9, f"{proto.kind} mean rate within {err:.1e} of 0.549306 in 20000 "
              f"steps, max drift {trace.max_drift:.1e}", t0)


def test_criterion_10_montecarlo_estimator():
    t0 = time.time()
    view = build_view(ChannelModel(np.ones(3)))
    g = Utility.identity()
    grid = np.linspace(0.0, math.log(2.0), 15)
    rng = np.random.default_rng(1010)
    agree = 0
    for trial in range(100):
        state = PopulationState(grid, rng.dirichlet(np.ones(grid.size)))
        a = float(rng.uniform(0.0, grid[-1]))
        exact = expected_payoff(view, g, a, state)
        est, se = expected_payoff_mc(view, g, a, state, samples=100_000, seed=trial)
        if abs(est - exact) <= 3.0 * max(se, 1e-12) or abs(est - exact) < 1e-9:
            agree += 1
    assert agree >= 99
    report(10, f"exact vs Monte Carlo within 3 standard errors on {agree}/100 "
               "random states", t0)
