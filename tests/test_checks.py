"""The verify battery: its exact side (`expected_payoffs`, one shared opponent listing for all
of `montecarlo-payoffs`' trials), its sampling checks judged in batch against one-case checks
on the same draws, and each check's record independent of the other checks."""

import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from macgame import (ChannelModel, PopulationState, Utility, build_view, expected_payoff,
                     expected_payoffs, mean_rate, parse_scenario)
from macgame import capacity as cap
from macgame import checks, game
from macgame.checks import Check, _random_mixed_states, rest_points
from macgame.scenario import build_model, build_utility, substream_seed
from macgame.capacity import FEASIBILITY_TOL, reply_slack
from macgame.evolution import INDICATOR_SLACK, region_mass
from test_cli import sweep_argv

CHANNELS = {"symmetric": [1.5] * 5, "asymmetric": [3.0, 1.0, 0.5, 2.0, 0.7]}
UTILITIES = {"identity": Utility.identity(), "log1p": Utility.log1p(),
             "power": Utility.power(0.5)}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("channel", sorted(CHANNELS))
@pytest.mark.parametrize("gname", sorted(UTILITIES))
def test_shared_listing_matches_expected_payoff(m, channel, gname):
    view, g = build_view(ChannelModel(np.array(CHANNELS[channel][:m]))), UTILITIES[gname]
    grid = np.linspace(0.0, float(view.single_caps.max()), 9)
    rng = np.random.default_rng(m)
    states = _random_mixed_states(rng, grid, view.total / max(m - 1, 1), 6)
    bound = [min(grid[-1], view.total - (m - 1) * float(s.grid @ s.masses)) for s in states]
    cases = [(s, float(rng.uniform(0.0, b))) for s, b in zip(states, bound)]
    cases += [(states[0], cases[1][1]), (states[2], cases[1][1]),   # tied actions
              (states[3], 0.0), (states[4], float(grid[1])), (states[5], float(grid[3])),
              (states[1], float(grid[3])),
              # a Dirac on the top of the grid gates its own point out (m >= 2)
              (PopulationState.dirac(grid, grid[-1]), float(grid[-1]))]
    got = expected_payoffs(view, g, cases)
    want = [expected_payoff(view, g, a, state) for state, a in cases]
    # inside the gate a <= C(N) - (m-1)E a one-case read is g(a) times its own region_mass,
    # off the same one-action listing, bit for bit
    inside = [a <= view.total - (m - 1) * mean_rate(s) + INDICATOR_SLACK for s, a in cases]
    gvals = [float(g(np.array([a]))[0]) for _, a in cases]
    assert [x.hex() for x in want] == [(ga * region_mass(view, a, s)).hex() if ok
                                       else (0.0).hex()
                                       for (s, a), ga, ok in zip(cases, gvals, inside)]
    # the shared listing splits its runs by every case's action, so its sums differ from the
    # one-case ones in the last bits: each is within 1e-15 * g(a) of math.fsum of the
    # ordered opponent tuples' product masses
    k = m - 1
    idx = np.indices((grid.size,) * k).reshape(k, grid.size ** k)
    slack = reply_slack(view, 0, grid[idx].T)
    for x, (s, a), ga, ok in zip(got, cases, gvals, inside):
        exact = ga * math.fsum(np.prod(s.masses[idx], axis=0)[a <= slack + FEASIBILITY_TOL])
        assert abs(x - (exact if ok else 0.0)) <= 1e-15 * max(ga, 1.0)
    assert (want[-1] == 0.0) == (m >= 2) and min(want[:-1]) >= 0.0


@pytest.mark.parametrize("m, snr", [(2, 1e-20), (3, 1.78e-26), (5, 1e-19)])
def test_rest_points_place_split_rounded_to_single_cap(m, snr):
    # C(N)/m rounds to C({1}) or one ulp above it; the probe's grid clamps it to C({1})
    scenario = parse_scenario(f"m = {m}\nsnr = {','.join([repr(snr)] * m)}\ngrid_points = 21\n")
    view = build_view(ChannelModel(np.full(m, snr)))
    check = rest_points(scenario, view, Utility.log1p())
    assert check.verdict is True, check.detail


# --- verify's sampling checks judged in batch ------------------------------------------------
# One-case forms of the four checks: each takes its check's own substream, makes the check's
# draws and judges one case at a time with the library's one-case calls. Each reads its
# tolerance from the module constant the batch check reads, so that one patch forces a
# failure in both.

def substream(scenario, name):
    return np.random.Generator(np.random.Philox(substream_seed(scenario.seed, name)))


def ref_capacity_identities(scenario, view, g) -> Check:
    name, m, tol = "capacity-identities", view.m, checks.RANK_TOL
    rng = substream(scenario, name)
    sizes, snrs = rng.integers(1, 7, size=200), rng.uniform(0.05, 30.0, size=(200, 6))
    for mm, row in zip(sizes.tolist(), snrs):
        trial = cap.ChannelModel(row[:mm])
        full = range(mm)
        grand = cap.capacity_of(trial, full)
        for i in range(mm):
            rest = cap.capacity_of(trial, [j for j in full if j != i]) if mm > 1 else 0.0
            lhs, rhs = cap.safe_rate(trial, i, full), grand - rest
            if abs(lhs - rhs) > tol:
                return Check(name, False, f"identity off by {abs(lhs - rhs):.2e} (tol {tol:g})",
                             tol)
    if m > cap.MAX_ENUM_USERS:
        return Check(name, True, (f"200 random models (tol {tol:g}); skipped exhaustive rank "
                                  f"checks: 2^m enumeration needs m <= {cap.MAX_ENUM_USERS}"), tol)
    caps = view.cap
    masks = np.arange(caps.size)
    for i in range(m):
        base = masks[(masks >> i) & 1 == 0]
        if np.any(caps[base] - tol > caps[base | (1 << i)]):
            return Check(name, False, f"monotonicity violated (tol {tol:g})", tol)
    for i, j in itertools.permutations(range(m), 2):
        base = masks[((masks >> i) & 1 == 0) & ((masks >> j) & 1 == 0)]
        lhs = caps[base | (1 << i)] - caps[base]
        rhs = caps[base | (1 << i) | (1 << j)] - caps[base | (1 << j)]
        if np.any(rhs - lhs > tol):
            return Check(name, False, f"submodularity violated (tol {tol:g})", tol)
    return Check(name, True, f"200 random models + exhaustive rank checks (tol {tol:g})", tol)


def ref_nash_face_equivalence(scenario, view, g) -> Check:
    name, tol = "nash-face-equivalence", game.NASH_TOL
    pts = [cap.sample_max_face(view, 100, seed=substream_seed(scenario.seed, "face"))]
    noise = substream(scenario, name).normal(0.0, 0.05, size=(100, view.m))
    pts.append(np.maximum(pts[0] + noise, 0.0))
    pts = np.concatenate(pts)
    for p in pts:
        if game.is_nash(view, g, p, tol) != (cap.max_face_residual(view, p) == 0.0):
            return Check(name, False, f"disagreement at {p} (tol {tol:g})", tol)
    return Check(name, True, f"{pts.shape[0]} profiles, zero disagreements (tol {tol:g})", tol)


def ref_potential_identity(scenario, view, g) -> Check:
    name, tol = "potential-identity", checks.POTENTIAL_TOL
    rng = substream(scenario, name)
    base = cap.sample_max_face(view, 200, seed=substream_seed(scenario.seed, "face"))
    alphas = base * rng.uniform(0.2, 1.0, size=(200, 1))
    movers = rng.integers(view.m, size=200)
    moved = rng.uniform(0.0, view.safe_rates[movers])
    for alpha, j, rate in zip(alphas, movers.tolist(), moved.tolist()):
        beta = alpha.copy()
        beta[j] = rate
        if not (cap.is_feasible(view, alpha) and cap.is_feasible(view, beta)):
            continue
        lhs = game.potential(view, g, alpha) - game.potential(view, g, beta)
        rhs = float(g(alpha[j]) - g(beta[j]))
        if abs(lhs - rhs) > tol:
            return Check(name, False, f"off by {abs(lhs - rhs):.2e} (tol {tol:g})", tol)
    return Check(name, True, f"200 random feasible pairs (tol {tol:g})", tol)


def best_response_cases(scenario, view) -> tuple:
    """best-response-argmax's draws: 20 face points, each scaled, and a user for each."""
    rng = substream(scenario, "best-response-argmax")
    pts = cap.sample_max_face(view, 20, seed=int(rng.integers(2**31)))
    return pts * rng.uniform(0.3, 1.0, size=(20, 1)), rng.integers(view.m, size=20)


def ref_best_response_argmax(scenario, view, g) -> Check:
    name, tol = "best-response-argmax", checks.REPLY_TOL
    for pt, user in zip(*best_response_cases(scenario, view)):
        user = int(user)
        others = np.delete(pt, user)
        br = game.best_response(view, g, user, others)
        ys = np.linspace(0.0, float(view.single_caps[user]), 2000)
        trials = np.tile(pt, (ys.size, 1))
        trials[:, user] = ys
        pays = np.where(cap.feasible_rows(view, trials), g(ys), 0.0)
        best = max(0.0, float(pays.max()))
        got = game.payoff(view, g, np.insert(others, user, br), user)
        if got + tol < best:
            return Check(name, False, (f"best response beaten by grid ({got} < {best}, "
                                       f"tol {tol:g})"), tol)
    return Check(name, True, f"20 instances vs 2000-point grid search (tol {tol:g})", tol)


PAIRS = ((checks.capacity_identities, ref_capacity_identities),
         (checks.nash_face_equivalence, ref_nash_face_equivalence),
         (checks.potential_identity, ref_potential_identity),
         (checks.best_response_argmax, ref_best_response_argmax))
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SHIPPED = sorted((SCRIPTS.parent / "scenarios").glob("*.cfg"))
EDGE_ARGV = {
    "m1": ["--set", "m=1", "--set", "p=1"],                  # no opponents
    "m21": ["--set", "m=21", "--set", "p=1"],                # the 2^m parts skipped
    # nash-face-equivalence fails at [0. 0.] here (ROADMAP item 11)
    "tiny-log1p": ["--set", "m=2", "--set", "snr=1e-9,1e-9", "--set", "g=log1p"],
}
# (index in CHECKS, module, tolerance constant, value): each value makes its check fail on
# every shipped scenario, part way through the cases but for potential-identity (at its first
# pair; the skipped-pairs case below fails part way), and no other check reads the constant
FORCED = [(0, checks, "RANK_TOL", 5e-16), (1, game, "NASH_TOL", 0.05),
          (2, checks, "POTENTIAL_TOL", 1e-16), (3, checks, "REPLY_TOL", -1e-6)]
FORCED_IDS = ["capacity", "nash-face", "potential", "best-response"]


def compare_outputs_variants() -> list:
    spec = importlib.util.spec_from_file_location("compare_outputs",
                                                  SCRIPTS / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.VARIANTS


def battery_input(path, argv) -> tuple:
    """(scenario, view, g) of a scenario file (or None) and the `--set` options in argv."""
    text = Path(path).read_text() if path else ""
    sets = dict(argv[k + 1].split("=", 1) for k in range(len(argv)) if argv[k] == "--set")
    scenario = parse_scenario(text, sets)
    return scenario, build_view(build_model(scenario)), build_utility(scenario)


def assert_batch_identity(scenario, view, g) -> list:
    """The four batch checks give their one-case forms' records (types too); returns them."""
    records = [check(scenario, view, g) for check, _ in PAIRS]
    assert [repr(r) for r in records] == [repr(ref(scenario, view, g)) for _, ref in PAIRS]
    return records


def sweep_inputs() -> list:
    return [sweep_argv(seed, "verify", "unused") for seed in range(16)]


class TestVerifyBatchIdentity:
    """The batch checks give the one-case checks' records on the same draws, on passing and
    failing batteries alike."""

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_shipped(self, path):
        assert_batch_identity(*battery_input(path, []))

    @pytest.mark.parametrize("argv", sweep_inputs(), ids=[f"sweep{s}" for s in range(16)])
    def test_sweep(self, argv):
        assert_batch_identity(*battery_input(None, argv))

    @pytest.mark.parametrize("variant", compare_outputs_variants(),
                             ids=["sym4", "asym5", "classes5"])
    def test_compare_outputs_variants(self, variant):
        assert_batch_identity(*battery_input(*variant))

    @pytest.mark.parametrize("name", sorted(EDGE_ARGV))
    def test_edges(self, name):
        records = assert_batch_identity(*battery_input(None, EDGE_ARGV[name]))
        assert [r.verdict for r in records] == [True, name != "tiny-log1p", True, True]

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    @pytest.mark.parametrize("index, module, constant, value", FORCED, ids=FORCED_IDS)
    def test_forced_failure(self, path, index, module, constant, value, monkeypatch):
        monkeypatch.setattr(module, constant, value)
        records = assert_batch_identity(*battery_input(path, []))
        assert [r.verdict for r in records] == [k != index for k in range(4)]

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_forced_failure_after_skipped_pairs(self, path, monkeypatch):
        # a region tolerance of -0.2 makes pairs infeasible, on every shipped scenario the
        # first two or more, so the failing pair's place among the draws is not its place
        # among the judged pairs
        scenario, view, g = battery_input(path, [])
        monkeypatch.setattr(checks, "POTENTIAL_TOL", 1e-17)
        monkeypatch.setattr(cap, "FEASIBILITY_TOL", -0.2)
        got = checks.potential_identity(scenario, view, g)
        assert got.verdict is False
        assert repr(got) == repr(ref_potential_identity(scenario, view, g))

    @pytest.mark.parametrize("m", range(1, 10))
    @pytest.mark.parametrize("change", ["none", "drop", "bump"])
    def test_rank_checks_on_altered_tables(self, m, change):
        # the strided rank checks against the gathers on tables made to break monotonicity
        # (one entry dropped below a subset's) or only submodularity (C(N) raised a little)
        rng = np.random.default_rng(m)
        scenario = parse_scenario("", {"m": str(m), "p": "1"})
        view = build_view(ChannelModel(rng.uniform(0.05, 30.0, size=m)))
        table = view.cap.copy()
        mask = int(rng.integers(1, table.size))
        if change == "drop":
            table[mask] = table[mask & (mask - 1)] - 1e-9
        if change == "bump" and m > 1:   # C(N) 1e-9 above C(N - {1}) + C(N - {2}) - C(N - {1, 2})
            a, b = table.size - 2, table.size - 3
            table[-1] = table[a] + table[b] - table[a & b] + 1e-9
        view.__dict__["cap"] = table
        got = checks.capacity_identities(scenario, view, Utility.identity())
        want = ref_capacity_identities(scenario, view, Utility.identity())
        assert repr(got) == repr(want)
        assert got.verdict is (change == "none" or m == 1 and change == "bump")


def premise_inputs() -> list:
    return ([battery_input(path, []) for path in SHIPPED]
            + [battery_input(None, argv) for argv in sweep_inputs()]
            + [battery_input(*variant) for variant in compare_outputs_variants()]
            + [battery_input(None, argv) for argv in EDGE_ARGV.values()])


@pytest.mark.parametrize("inputs", premise_inputs(),
                         ids=[p.stem for p in SHIPPED] + [f"sweep{s}" for s in range(16)]
                         + ["sym4", "asym5", "classes5"] + sorted(EDGE_ARGV))
def test_feasible_grid_points_are_a_prefix(inputs):
    """best-response-argmax's premise: on each of its grids the feasible points, found by a
    full 2,000-row scan, are a prefix, as long as the bisection says."""
    scenario, view, _ = inputs
    pts, users = best_response_cases(scenario, view)
    grids = np.stack([np.linspace(0.0, float(view.single_caps[u]), 2000) for u in users])
    counts = checks._feasible_prefix(view, pts, users, grids)
    for pt, user, ys, count in zip(pts, users, grids, counts):
        trials = np.tile(pt, (ys.size, 1))
        trials[:, user] = ys
        assert (cap.feasible_rows(view, trials) == (np.arange(ys.size) < count)).all()


@pytest.mark.parametrize("inputs", [battery_input(path, []) for path in SHIPPED]
                         + [battery_input(None, argv) for argv in sweep_inputs()],
                         ids=[p.stem for p in SHIPPED] + [f"sweep{s}" for s in range(16)])
def test_record_independent_of_other_checks(inputs, monkeypatch):
    """Each check's record is the same run alone (here in reverse battery order), inside
    `checks.run`, and inside a run in which another check is forced to fail; two runs give
    equal records."""
    alone = {check.__name__: repr(check(*inputs)) for check in reversed(checks.CHECKS)}
    alone = [alone[check.__name__] for check in checks.CHECKS]
    assert [repr(r) for r in checks.run(*inputs)] == alone
    assert [repr(r) for r in checks.run(*inputs)] == alone
    # a tolerance of -1 fails every case: FORCED's values miss on a few sweep scenarios
    for index, module, constant, _ in FORCED:
        with monkeypatch.context() as patch:
            patch.setattr(module, constant, -1.0)
            records = checks.run(*inputs)
        assert records[index].verdict is False, FORCED_IDS[index]
        assert [repr(r) for k, r in enumerate(records) if k != index] == [
            r for k, r in enumerate(alone) if k != index]
