"""Scenario text format: parsing, validation, and the dump round trip."""

import re

import numpy as np
import pytest

from macgame import Scenario, ScenarioError, build_view, dump_scenario, parse_scenario
from macgame.scenario import (_SUBSTREAM, build_model, build_protocol, build_run,
                              build_utility, substream_seed)

MINIMAL = "m = 2\nsnr = 1,1\ng = identity\n"


def test_minimal_scenario():
    s = parse_scenario(MINIMAL)
    assert s.m == 2
    assert s.snr == (1.0, 1.0)
    assert s.g == "identity"
    assert s.grid_points == 51 and s.dt == 0.01 and s.steps == 20_000


def test_shared_power_form():
    s = parse_scenario("m = 3\np = 25\nsigma2 = 0.1\n")
    model = build_model(s)
    assert np.allclose(model.snr, 250.0)
    assert model.symmetric


def test_gains_scale_snr():
    s = parse_scenario("m = 2\np = 10\nsigma2 = 2\nh = 1,0.5\n")
    assert np.allclose(build_model(s).snr, [5.0, 2.5])


def test_comments_and_blank_lines():
    s = parse_scenario("# header\n\nm = 2  # inline\nsnr = 1,1\n")
    assert s.m == 2


def test_hash_in_override_value_rejected():
    # a file line would lose everything from '#' on, so dump_scenario could not keep it
    with pytest.raises(ScenarioError, match="--set trace_csv: '#' starts a comment"):
        parse_scenario("", {"m": "2", "snr": "1,1", "trace_csv": "run#1.csv"})
    s = parse_scenario("m = 2\nsnr = 1,1  # comment\ntrace_csv = run.csv#1\n")
    assert s.trace_csv == "run.csv"


def test_unknown_key_reports_line():
    with pytest.raises(ScenarioError, match="line 4: unknown key 'frobnicate'"):
        parse_scenario(MINIMAL + "frobnicate = 3\n")


def test_smith_theta_invariant():
    bad = MINIMAL + "protocol = smith\ntheta = 0.5\n"
    with pytest.raises(ScenarioError, match="theta must be >= 1"):
        parse_scenario(bad)


def test_empty_file_lists_required_keys():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("")
    msg = str(err.value)
    assert "missing required key: m" in msg
    assert "missing required key: snr" in msg


def test_all_problems_reported_at_once():
    text = "m = 2\nsnr = 1,1\ntheta = 0.2\nprotocol = smith\ndt = -1\nsamples = 0\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    msg = str(err.value)
    assert "theta" in msg and "dt" in msg and "samples" in msg


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioError, match="duplicate key 'm'"):
        parse_scenario("m = 2\nm = 3\nsnr = 1,1\n")


def test_type_errors_reported():
    with pytest.raises(ScenarioError, match="m must be int"):
        parse_scenario("m = two\nsnr = 1,1\n")


@pytest.mark.parametrize("key, raw", [("dt", "nan"), ("dt", "inf"), ("k", "nan"),
                                      ("theta", "nan"), ("sigma2", "-inf"), ("snr", "nan,1")])
def test_non_finite_values_rejected(key, raw):
    # every float and float-list key, from an override or a file line
    msg = f"{key} must be finite, got '{raw}'"
    others = {k: v for k, v in {"m": "2", "snr": "1,1", "protocol": "smith"}.items() if k != key}
    with pytest.raises(ScenarioError, match=re.escape(f"--set {key}: {msg}")):
        parse_scenario("", {**others, key: raw})
    with pytest.raises(ScenarioError, match=re.escape(f"line 1: {msg}")):
        parse_scenario(f"{key} = {raw}\n", others)


def test_snr_length_checked():
    with pytest.raises(ScenarioError, match="snr needs 3 entries"):
        parse_scenario("m = 3\nsnr = 1,1\n")


def test_round_trip_identity():
    text = (
        "m = 2\nsnr = 1,3\ng = power\ng_power = 0.7\ngrid_points = 33\n"
        "protocol = smith\ntheta = 2\nk = 4.5\ndt = 0.005\nsteps = 777\n"
        "record_every = 11\nseed = 42\npayoff_method = montecarlo\n"
        "samples = 12345\ntrace_csv = a.csv\nstate_csv = b.csv\n"
    )
    s = parse_scenario(text)
    assert parse_scenario(dump_scenario(s)) == s


def test_round_trip_power_form():
    s = parse_scenario("m = 3\np = 25\nsigma2 = 0.1\nh = 1,1,2\n")
    assert parse_scenario(dump_scenario(s)) == s


def test_builders():
    s = parse_scenario(
        "m = 2\nsnr = 1,1\ng = log1p\nprotocol = smith\ntheta = 2\nk = 3\n")
    assert build_utility(s).kind == "log1p"
    proto = build_protocol(s)
    assert proto.kind == "smith" and proto.theta == 2.0 and proto.K == 3.0


def test_seed_substreams_pinned():
    # each named stream of the seed key keeps its number, so same-seed outputs keep
    # their draws: the first four feed the Monte Carlo `dynamics` CSVs and `verify`'s face
    # points, Monte Carlo samples and random tau; the rest are `verify` checks' own cases
    assert {name: substream_seed(0, name) for name in _SUBSTREAM} == {
        "face": 3757552657, "montecarlo": 673228719, "dynamics": 3241444873,
        "weights": 3685993406, "capacity-identities": 1216546553,
        "nash-face-equivalence": 2078861726, "potential-identity": 2471122328,
        "best-response-argmax": 23012616, "rest-points": 3031610183,
        "montecarlo-payoffs": 2976135721}


@pytest.mark.parametrize("snr", ["2,2,2", "2,1,0.5"])
def test_run_built_from_scenario(snr):
    s = parse_scenario(f"m = 3\nsnr = {snr}\ngrid_points = 11\nprotocol = smith\ntheta = 2\n"
                       "dt = 0.02\nsteps = 7\nrecord_every = 3\nseed = 5\n"
                       "payoff_method = montecarlo\nsamples = 99\n")
    view = build_view(build_model(s))
    run = build_run(s, view)
    assert run.protocol == build_protocol(s)
    assert (run.dt, run.steps, run.record_every, run.payoff_method, run.samples) == (
        0.02, 7, 3, "montecarlo", 99)
    assert run.seed == substream_seed(5, "dynamics")
    # uniform start on 11 points up to C({1}), the equal split snapped in when symmetric
    grid = np.linspace(0.0, float(view.single_caps.max()), 11)
    if view.model.symmetric:
        grid[np.argmin(np.abs(grid - view.total / 3))] = view.total / 3
    assert np.array_equal(run.state0.grid, grid)
    assert np.array_equal(run.state0.masses, np.full(11, 1.0 / 11))


@pytest.mark.parametrize("m, snr", [(3, 1.78e-26), (5, 1e-19)])
def test_run_clamps_equal_split_to_grid_top(m, snr):
    # C(N)/m rounds one ulp above C({1}) here; the snapped point is the grid's top
    s = parse_scenario(f"m = {m}\nsnr = {','.join([repr(snr)] * m)}\ngrid_points = 11\n")
    view = build_view(build_model(s))
    assert view.total / m > view.single_caps[0]
    grid = build_run(s, view).state0.grid
    assert grid[-1] == view.single_caps[0] and np.all(np.diff(grid) > 0)
