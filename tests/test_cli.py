"""End-to-end CLI behaviour: subcommands, output format, exit codes."""

import math
import re
import runpy
from pathlib import Path

import numpy as np
import pytest

from macgame import ChannelModel, build_view, checks, cli, evolution as evo
from macgame.cli import main
from macgame.scenario import build_model, build_run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
COMPARISON = SCENARIOS.parent / "scripts" / "run_protocol_comparison.py"
COMPARE_OUTPUTS = SCENARIOS.parent / "scripts" / "compare_outputs.py"


def write_scenario(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def verify_records(monkeypatch):
    """The records of the next `checks.run` call, the one `verify` prints."""
    records, run = [], checks.run

    def recorded(*args):
        records[:] = run(*args)
        return records
    monkeypatch.setattr(checks, "run", recorded)
    return records


def assert_records_hold(records, out):
    """No check failed, and each one not skipped prints a line that states its finite tol."""
    lines = out.splitlines()
    assert len(records) == len(checks.CHECKS) and len(lines) == len(records) + 1
    for rec, line in zip(records, lines):
        assert rec.verdict is True or rec.verdict is None, line
        assert line.endswith(f" {rec.name}: {rec.detail}")
        numbers = [float(x) for x in re.findall(r"\d+(?:\.\d+)?(?:e[-+]?\d+)?", line)]
        assert rec.verdict is None or (math.isfinite(rec.tol) and rec.tol in numbers), line
    assert lines[-1].startswith("passed ") and ", failed 0, " in lines[-1]


@pytest.fixture
def sym2_cfg(tmp_path):
    return write_scenario(tmp_path, "m = 2\nsnr = 1,1\ng = identity\n")


@pytest.fixture
def sym3_cfg(tmp_path):
    return write_scenario(tmp_path, "m = 3\np = 25\nsigma2 = 0.1\ng = identity\n")


class TestRegion:
    def test_prints_grand_capacity(self, sym3_cfg, capsys):
        assert main(["-s", sym3_cfg, "region"]) == 0
        out = capsys.readouterr().out
        assert "C{1,2,3} = 6.62140565" in out
        assert "C{1} = 5.52545294" in out
        assert "r{1} = 0.404799551" in out
        assert "symmetric equilibrium rate = 2.20713522" in out

    def test_inline_scenario_via_set(self, capsys):
        code = main(["--set", "m=2", "--set", "snr=1,1", "region"])
        assert code == 0
        assert "C{1,2} = 1.09861229" in capsys.readouterr().out


class TestBestResponse:
    def test_prints_rate(self, sym2_cfg, capsys):
        assert main(["-s", sym2_cfg, "br", "--user", "1", "--others", "0.2"]) == 0
        assert "best_response(user=1) = 0.693147181" in capsys.readouterr().out

    def test_opponent_at_cap(self, sym2_cfg, capsys):
        assert main(["-s", sym2_cfg, "br", "--user", "2",
                     "--others", "0.6931471805599453"]) == 0
        assert "0.405465108" in capsys.readouterr().out

    def test_infeasible_opponents_exit_2(self, sym2_cfg, capsys):
        assert main(["-s", sym2_cfg, "br", "--user", "1", "--others", "0.8"]) == 2

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
    def test_non_finite_opponents_exit_2(self, rate, capsys):
        # named as check-eq names a non-finite profile, not as a region violation
        assert main(["-s", str(SCENARIOS / "sym2.cfg"), "br", "--user", "1",
                     f"--others={rate}"]) == 2
        out, err = capsys.readouterr()
        assert err == "error: rate profile must be finite\n" and out == ""


class TestCheckEq:
    def test_equal_split_verdicts(self, sym2_cfg, capsys):
        code = main(["-s", sym2_cfg, "check-eq", "--profile", "0.549306,0.549306"])
        assert code == 0
        assert "nash: true, strong: true, pareto: true" in capsys.readouterr().out

    def test_interior_point_fails(self, sym2_cfg, capsys):
        code = main(["-s", sym2_cfg, "check-eq", "--profile", "0.3,0.3"])
        assert code == 1
        assert "nash: false" in capsys.readouterr().out

    def test_infeasible_point_not_pareto(self, sym2_cfg, capsys):
        code = main(["-s", sym2_cfg, "check-eq", "--profile", "0.69,0.69"])
        assert code == 1
        assert "nash: false, strong: false, pareto: false" in capsys.readouterr().out

    def test_large_game_verdicts(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, "m = 7\nsnr = 1,1,1,1,1,1,1\n")
        split = ",".join([format(math.log(8.0) / 7, ".17g")] * 7)
        assert main(["-s", cfg, "check-eq", "--profile", split]) == 0
        assert "nash: true, strong: true, pareto: true" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance_exit_2(self, tol, capsys):
        # a usage error, not a verdict: nothing on stdout, one error line
        assert main(["-s", str(SCENARIOS / "sym2.cfg"), "check-eq",
                     "--profile", "0.549306144,0.549306144", f"--tol={tol}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --tol must be finite and >= 0, got {float(tol)}\n"


class TestMetrics:
    def test_identity_ratios(self, sym2_cfg, capsys):
        assert main(["-s", sym2_cfg, "metrics"]) == 0
        out = capsys.readouterr().out
        assert "spoa = 1\n" in out
        assert "pos = 1\n" in out
        assert "social_opt = 1.09861229" in out


class TestNormalized:
    def test_symmetric_equal_weights(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, "m = 2\nsnr = 1,1\ng = log1p\n")
        assert main(["-s", cfg, "normalized"]) == 0
        out = capsys.readouterr().out
        assert "profile = 0.549306144,0.549306144" in out
        assert "goodman_negative_definite = true" in out

    def test_goodman_step_stays_above_zero(self, capsys):
        # user 1's rate is about 1e-7, below the 1e-5 difference step; power's derivative
        # is NaN below 0, which read as a RuntimeWarning (an error here) and `false`
        assert main(["--set", "m=2", "--set", "snr=1e-7,1", "--set", "g=power",
                     "normalized"]) == 0
        out, err = capsys.readouterr()
        assert "goodman_negative_definite = true\n" in out and err == ""

    def test_identity_rejected_with_exit_2(self, sym2_cfg, capsys):
        assert main(["-s", sym2_cfg, "normalized"]) == 2
        assert "concave" in capsys.readouterr().err


class TestEss:
    def test_default_resident_is_ess(self, sym2_cfg, capsys):
        assert main(["-s", sym2_cfg, "ess"]) == 0
        assert "ess = true" in capsys.readouterr().out

    def test_low_resident_reports_witness(self, sym2_cfg, capsys):
        code = main(["-s", sym2_cfg, "ess", "--resident", "0.494"])
        assert code == 1
        out = capsys.readouterr().out
        assert "ess = false" in out
        assert "witness" in out


class TestDynamics:
    def test_csv_outputs_reproducible(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, (
            "m = 2\nsnr = 1,1\ng = identity\ngrid_points = 21\n"
            "protocol = bnn\nk = 8\nsteps = 200\nrecord_every = 50\n"
            f"trace_csv = {tmp_path}/t.csv\nstate_csv = {tmp_path}/s.csv\n"
        ))
        assert main(["-s", cfg, "dynamics"]) == 0
        first = (tmp_path / "t.csv").read_bytes(), (tmp_path / "s.csv").read_bytes()
        assert main(["-s", cfg, "dynamics"]) == 0
        second = (tmp_path / "t.csv").read_bytes(), (tmp_path / "s.csv").read_bytes()
        assert first == second
        header = first[0].decode().splitlines()[0]
        assert header == "t,mean_rate,avg_payoff,velocity_l1,mass_drift"
        assert first[1].decode().splitlines()[0] == "grid_value,mass"

    def test_symmetric_exact_table_counts_orbits(self, tmp_path, monkeypatch, capsys):
        # m = 7 at n = 21 lists 230,230 sorted opponent tuples (21**6 ordered ones)
        monkeypatch.chdir(tmp_path)
        assert main(["--set", "m=7", "--set", "p=1", "--set", "grid_points=21",
                     "--set", "steps=2", "dynamics"]) == 0
        assert "steps = 2" in capsys.readouterr().out
        assert main(["--set", "m=8", "--set", "p=1", "--set", "grid_points=51",
                     "--set", "steps=2", "dynamics"]) == 2
        assert "exact table needs 264385836 rows" in capsys.readouterr().err

    def test_two_snr_classes_run_exactly(self, tmp_path, monkeypatch, capsys):
        # 3 + 3 users at n = 31: 2,706,176 rows listed by SNR class, 31**5 = 28,629,151 ordered
        monkeypatch.chdir(tmp_path)
        assert main(["--set", "m=6", "--set", "snr=0.6,0.6,0.6,0.3,0.3,0.3",
                     "--set", "grid_points=31", "--set", "steps=2", "dynamics"]) == 0
        assert "steps = 2" in capsys.readouterr().out

    def test_drift_line_covers_every_step(self, tmp_path, monkeypatch, capsys):
        # sym3 at dt = 0.08 clips its masses at step 4, which record_every = 100 skips
        monkeypatch.chdir(tmp_path)
        assert main(["-s", str(SCENARIOS / "sym3.cfg"), "--set", "dt=0.08",
                     "--set", "steps=625", "dynamics"]) == 0
        assert "max mass drift = 16.7421355\n" in capsys.readouterr().out


class TestProtocolComparisonScript:
    def test_bnn_trace_matches_cli(self, tmp_path, monkeypatch):
        # asym2 runs smith, so both routes must switch the protocol to bnn
        monkeypatch.chdir(tmp_path)
        cfg = str(SCENARIOS / "asym2.cfg")
        script = runpy.run_path(str(COMPARISON), run_name="protocol_comparison")
        assert script["main"]([cfg, "--steps", "150"]) == 0
        assert main(["-s", cfg, "--set", "protocol=bnn", "--set", "steps=150",
                     "--set", "trace_csv=cli_trace.csv", "dynamics"]) == 0
        ours = (tmp_path / "asym2_trace.bnn.csv").read_bytes()
        assert ours == (tmp_path / "cli_trace.csv").read_bytes()

    @pytest.mark.parametrize("option, problem", [
        (["--steps", "-1"], "--set steps: steps must be >= 0"),
        (["--k", "0"], "--set k: k must be positive"),
    ])
    def test_invalid_override_exit_2(self, option, problem, tmp_path, monkeypatch, capsys):
        # validated as a --set value, before any protocol runs or writes a trace
        monkeypatch.chdir(tmp_path)
        script = runpy.run_path(str(COMPARISON), run_name="protocol_comparison")
        assert script["main"]([str(SCENARIOS / "sym2.cfg"), *option]) == 2
        assert capsys.readouterr() == ("", f"error: {problem}\n")
        assert list(tmp_path.iterdir()) == []


class TestCompareOutputsScript:
    def test_same_tree_shows_no_difference(self, capsys):
        src = str(SCENARIOS.parent / "src")
        script = runpy.run_path(str(COMPARE_OUTPUTS), run_name="compare_outputs")
        assert script["main"]([src, src, str(SCENARIOS / "sym3.cfg")]) == 0
        assert capsys.readouterr().out == "1 scenario(s) compared, 0 output(s) differ\n"

    def test_default_variants_reach_the_larger_listings(self):
        # symmetric m = 4 reads one SNR class's sorted multisets, asymmetric m = 5 an ordered
        # listing of several blocks, and m = 5 with two SNR classes (2 + 3 users) 21 * C(23, 3)
        # rows; all run montecarlo-payoffs, and no start is frozen
        script = runpy.run_path(str(COMPARE_OUTPUTS), run_name="compare_outputs")
        reached = []
        for path, options in script["VARIANTS"]:
            scenario = cli._load_scenario(cli.build_parser().parse_args(
                ["-s", str(path), *options, "dynamics"]))
            view = build_view(build_model(scenario))
            state0 = build_run(scenario, view).state0
            rows = evo.exact_rows(view, state0.n)
            assert (state0.n, scenario.steps) == (21, 200) and rows <= checks.MC_EXACT_ROWS
            assert evo._gate_count(state0.grid, view.total, view.m - 1,
                                   evo.mean_rate(state0)) >= 2
            reached.append((view.m, view.model.symmetric, rows))
        assert reached == [(4, True, 1771), (5, False, 194_481), (5, False, 37_191)]
        assert 1771 < evo.EXACT_BLOCK_ROWS < 194_481

    def test_difference_shows_first_differing_lines(self):
        script = runpy.run_path(str(COMPARE_OUTPUTS), run_name="compare_outputs")
        first = script["first_difference"]
        assert first(b"a\nb\nc\n", b"a\nB\nC\n") == "\n    old line 2: b\n    new line 2: B"
        assert first(b"a\n", b"a\nb\n") == "\n    old line 2: None\n    new line 2: b"
        assert first(None, b"x\n") == "\n    old line 1: None\n    new line 1: x"

    def test_csv_difference_shows_largest_cell(self):
        script = runpy.run_path(str(COMPARE_OUTPUTS), run_name="compare_outputs")
        largest = script["largest_difference"]
        old = b"t,mean_rate\n0,0.5\n0.1,0.25\n0.2,0.125\n"
        new = b"t,mean_rate\n0,0.5\n0.1,0.2500000000000001\n0.2,0.1\n"
        assert largest(old, new) == "\n    largest cell difference 0.025, line 4, column mean_rate"
        assert largest(old, old) == largest(None, new) == largest(old, new[:-6]) == ""


# channels the old C(N)/m < C({1}) guard refused: equal SNRs whose equal split rounds to C({1})
# or one ulp above it, and unequal tiny SNRs its tolerance called symmetric
TINY_SNR = {"sym2": [1e-20] * 2, "sym3": [1.78e-26] * 3, "sym5": [1e-19] * 5,
            "asym2": [1e-13, 9e-13]}


class TestTinySnr:
    @pytest.mark.parametrize("command", ["region", "check-eq", "metrics", "dynamics"])
    @pytest.mark.parametrize("name", sorted(TINY_SNR))
    def test_answers(self, name, command, tmp_path, capsys):
        snr = TINY_SNR[name]
        argv = ["--set", f"m={len(snr)}", "--set", "snr=" + ",".join(map(repr, snr)),
                "--set", "steps=5", "--set", f"trace_csv={tmp_path}/t.csv",
                "--set", f"state_csv={tmp_path}/s.csv", command]
        if command == "check-eq":   # at the equal split
            argv += ["--profile", ",".join([repr(math.log1p(sum(snr)) / len(snr))] * len(snr))]
        assert main(argv) == 0
        out = capsys.readouterr().out
        if command == "region":
            assert ("symmetric equilibrium rate" in out) == name.startswith("sym")

    def test_unequal_snrs_refused_by_ess(self, capsys):
        assert main(["--set", "m=2", "--set", "snr=1e-13,9e-13", "ess"]) == 2
        assert capsys.readouterr().err == "error: ESS test requires a symmetric channel\n"


# the shipped scenarios (m <= 3), and Monte Carlo payoffs checked past them: symmetric m = 4
# and 5, asymmetric m = 5
VERIFY_ARGV = {"sym2.cfg": ["-s", str(SCENARIOS / "sym2.cfg")],
               "sym3.cfg": ["-s", str(SCENARIOS / "sym3.cfg")],
               "asym2.cfg": ["-s", str(SCENARIOS / "asym2.cfg")],
               "sym4": ["--set", "m=4", "--set", "p=3"], "sym5": ["--set", "m=5", "--set", "p=3"],
               "asym5": ["--set", "m=5", "--set", "snr=3,1,0.5,2,0.7"]}


class TestVerify:
    @pytest.mark.parametrize("name", sorted(VERIFY_ARGV))
    def test_passes_with_montecarlo_run(self, name, verify_records, capsys):
        assert main(VERIFY_ARGV[name] + ["verify"]) == 0
        assert_records_hold(verify_records, capsys.readouterr().out)
        assert verify_records[-1].name == "montecarlo-payoffs" and verify_records[-1].verdict

    @pytest.mark.parametrize("argv", [
        ["--set", "m=21", "--set", "p=1"],                  # 2^m parts skipped above 20 users
        ["--set", "m=2", "--set", "snr=0.0029,0.0029"],     # rest-point probe at tiny payoffs
        ["--set", "m=3", "--set", "snr=0.0235,0.0235,0.0235", "--set", "seed=1"],  # p_hat = 1
        ["--set", "m=4", "--set", "snr=1,1,0.5,0.5"],       # two SNR classes
    ])
    def test_holds_on_edge_scenarios(self, argv, verify_records, capsys):
        assert main(argv + ["verify"]) == 0
        assert_records_hold(verify_records, capsys.readouterr().out)

    @pytest.mark.parametrize("name", sorted(VERIFY_ARGV))
    def test_montecarlo_bias_of_one_percent_fails(self, name, capsys, monkeypatch):
        # every Monte Carlo nu scaled by 0.99, on either route, and no exact one: on asym2
        # each trial's interval still holds it, so the pooled z over the 20 trials is what
        # fails there
        walk, runs = evo._admitted_mass, evo._fit_mass
        monkeypatch.setattr(evo, "_admitted_mass", lambda *args: 0.99 * walk(*args))
        monkeypatch.setattr(evo, "_fit_mass", lambda w, fits, draw=None: (
            runs(w, fits) if draw is None else 0.99 * runs(w, fits, draw)))
        assert main(VERIFY_ARGV[name] + ["verify"]) == 1
        line = next(ln for ln in capsys.readouterr().out.splitlines() if "montecarlo" in ln)
        assert line.startswith("FAIL montecarlo-payoffs:") and "(tol |z| <= 3)" in line

    @pytest.mark.parametrize("argv, rows", [
        (["--set", "m=6", "--set", "snr=3,1,0.5,2,0.7,1.2"], 21 ** 5),
        (["--set", "m=8", "--set", "p=1"], 888_030),
    ])
    def test_montecarlo_skip_beyond_row_limit(self, argv, rows, capsys):
        assert main(argv + ["verify"]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines() if "montecarlo" in ln)
        assert line == f"skip montecarlo-payoffs: exact listing needs {rows} rows (> 262144)"

    def test_montecarlo_runs_on_snr_classes(self, capsys):
        # 21 * C(24, 4) = 223,146 rows listed per SNR class, 21**5 = 4,084,101 ordered
        view = build_view(ChannelModel(np.array([1.0] * 5 + [0.5])))
        assert evo.exact_rows(view, 21) == 223_146 <= checks.MC_EXACT_ROWS
        assert main(["--set", "m=6", "--set", "snr=1,1,1,1,1,0.5", "verify"]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines() if "montecarlo" in ln)
        assert line.startswith("ok   montecarlo-payoffs: ")

    @pytest.mark.parametrize("name, route", [
        ("sym2.cfg", "listing route, 21 exact listing rows <= 20000"),
        ("sym5", "listing route, 10626 exact listing rows <= 20000"),
        ("asym5", "per-draw route, 194481 exact listing rows > 20000"),
    ])
    def test_montecarlo_line_names_its_route(self, name, route, capsys):
        # 21 grid points: the exact listing (C(24, 4) sorted multisets at sym5, 21**4 ordered
        # tuples at asym5) is sampled while no more than the draws
        assert main(VERIFY_ARGV[name] + ["verify"]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines() if "montecarlo" in ln)
        assert line.endswith(f"; {route} samples")

    def test_montecarlo_chance_failure_redrawn(self, tmp_path, capsys):
        # a valid scenario whose first Monte Carlo draw (on the listing route) lands 2 of
        # 20 trials outside their intervals; the one redraw passes, and the line reports both
        cfg = write_scenario(tmp_path, "m = 3\np = 25.912400888327554\nsigma2 = 0.1\n"
                                       "g = identity\ngrid_points = 31\nprotocol = bnn\n"
                                       "k = 32\nseed = 577134854\n")
        assert main(["-s", cfg, "verify"]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines() if "montecarlo" in ln)
        assert line.startswith("ok   montecarlo-payoffs: 18/20 exact nu")
        assert "; redrawn once with fresh samples: 20/20 exact nu" in line
        assert line.endswith("; listing route, 231 exact listing rows <= 20000 samples")

    def test_rest_points_skip_beyond_exact_limit(self, capsys):
        assert main(["--set", "m=7", "--set", "p=1", "verify"]) == 0
        out = capsys.readouterr().out
        assert "skip rest-points: exact table needs 32468436 rows (> 10000000)" in out
        assert "failed 0" in out


class TestPlumbing:
    def test_dump_config_round_trip(self, sym2_cfg, capsys, tmp_path):
        assert main(["-s", sym2_cfg, "--dump-config"]) == 0
        dumped = capsys.readouterr().out
        again = write_scenario(tmp_path, dumped, name="again.cfg")
        assert main(["-s", again, "--dump-config"]) == 0
        assert capsys.readouterr().out == dumped

    def test_missing_scenario_exit_2(self, capsys):
        assert main(["region"]) == 2

    def test_bad_scenario_key_exit_2(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, "m = 2\nsnr = 1,1\nbogus = 1\n")
        assert main(["-s", cfg, "region"]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_no_subcommand_exit_2(self, sym2_cfg):
        assert main(["-s", sym2_cfg]) == 2

    def test_smith_theta_error_message(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path,
                             "m = 2\nsnr = 1,1\nprotocol = smith\ntheta = 0.5\n")
        assert main(["-s", cfg, "region"]) == 2
        assert "theta must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dynamics", "--dump-config"])
    def test_non_finite_value_exit_2(self, command, tmp_path, monkeypatch, capsys):
        # refused when parsed, not reported later as a diverging step
        monkeypatch.chdir(tmp_path)
        assert main(["-s", str(SCENARIOS / "sym2.cfg"), "--set", "dt=nan", command]) == 2
        out, err = capsys.readouterr()
        assert err == "error: --set dt: dt must be finite, got 'nan'\n" and out == ""

    def test_file_line_numbers_survive_set(self, capsys):
        assert main(["-s", str(SCENARIOS / "sym2.cfg"), "--set", "m=1", "region"]) == 2
        assert "error: line 3: snr needs 1 entries, got 2" in capsys.readouterr().err

    def test_override_problem_names_its_key(self, capsys):
        assert main(["-s", str(SCENARIOS / "sym2.cfg"), "--set", "m=x", "region"]) == 2
        assert "error: --set m: m must be int, got 'x'" in capsys.readouterr().err

    def test_override_replaces_file_line_and_last_wins(self, tmp_path, capsys):
        # the file's m is neither converted nor reported as a duplicate
        cfg = write_scenario(tmp_path, "m = x\nm = 5\nsnr = 1,1\n")
        assert main(["-s", cfg, "--set", "m=3", "--set", "M = 2", "region"]) == 0
        assert "C{1,2} = 1.09861229" in capsys.readouterr().out

    def test_hash_in_set_value_exit_2(self, capsys):
        assert main(["-s", str(SCENARIOS / "sym2.cfg"), "--set", "trace_csv=run#1.csv",
                     "--dump-config"]) == 2
        assert "error: --set trace_csv: '#'" in capsys.readouterr().err

    def test_unwritable_output_fails_before_simulating(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr("macgame.dynamics.simulate", lambda *a, **k: calls.append(a))
        monkeypatch.chdir(tmp_path)
        assert main(["-s", str(SCENARIOS / "sym2.cfg"),
                     "--set", f"state_csv={tmp_path}/missing/s.csv", "dynamics"]) == 2
        assert calls == []
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("state", ["same.csv", "./same.csv", "{tmp}/same.csv"])
    def test_same_output_file_exit_2(self, state, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr("macgame.dynamics.simulate", lambda *a, **k: calls.append(a))
        monkeypatch.chdir(tmp_path)
        assert main(["-s", str(SCENARIOS / "sym2.cfg"), "--set", "trace_csv=same.csv",
                     "--set", f"state_csv={state.format(tmp=tmp_path)}", "dynamics"]) == 2
        assert calls == []
        assert capsys.readouterr().err == ("error: trace_csv 'same.csv' and state_csv "
                                           f"'{state.format(tmp=tmp_path)}' are the same file\n")

    @pytest.mark.parametrize("key", ["trace_csv", "state_csv"])
    def test_unwritable_output_exit_2(self, key, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["-s", str(SCENARIOS / "sym2.cfg"), "--set", "steps=2",
                     "--set", f"{key}={tmp_path}/missing/out.csv", "dynamics"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


SWEEP_USERS = (1, 2, 3, 4, 5, 6, 8, 13, 21, 30)
SWEEP_COMMANDS = ("region", "br", "check-eq", "metrics", "normalized", "ess", "dynamics",
                  "verify")
# the refusal each subcommand documents for a valid scenario (README, exit codes)
SWEEP_REFUSALS = {
    "region": r"subset listing supports at most 12 users",
    "br": r"no feasible action set: opponents' rates violate the region",
    "normalized": r"utility '\w+' is not strictly concave on \(0, [0-9.e+-]+\)",
    "ess": r"ESS test requires a symmetric channel",
    "dynamics": r"exact table needs \d+ rows \(> 10000000\); use the Monte Carlo method",
}


def sweep_argv(seed, command, tmp_path):
    """A random valid scenario (ROADMAP item 2's generator) and one subcommand on it."""
    rng = np.random.default_rng(seed)
    m = int(rng.choice(SWEEP_USERS))
    snr = np.exp(rng.uniform(-6.0, 6.0, size=1 if seed % 2 else m)) * np.ones(m)
    argv = ["--set", f"m={m}", "--set", "snr=" + ",".join(format(v, ".17g") for v in snr),
            "--set", f"g={rng.choice(['identity', 'log1p', 'power'])}",
            "--set", "grid_points=11", "--set", "steps=5",
            "--set", f"trace_csv={tmp_path}/t.csv", "--set", f"state_csv={tmp_path}/s.csv",
            command]
    if command == "br":   # opponents up to 1.5x their safe rates: some infeasible
        others = np.log1p(snr / (1.0 + snr.sum() - snr))[1:] * rng.uniform(0.0, 1.5, m - 1)
        argv += ["--user", "1", "--others", ",".join(format(v, ".17g") for v in others)]
    if command == "check-eq":
        argv += ["--profile", ",".join([format(np.log1p(snr.sum()) / m, ".17g")] * m)]
    return argv


class TestExitCodeSweep:
    """Every subcommand on random valid scenarios ends in 0, 1 or 2, never a traceback;
    an exit 2 is the subcommand's documented refusal, and verify holds on each of them."""

    @pytest.mark.parametrize("command", SWEEP_COMMANDS)
    @pytest.mark.parametrize("seed", range(16))
    def test_clean_exit(self, seed, command, tmp_path, verify_records, capsys):
        code = main(sweep_argv(seed, command, tmp_path))
        assert code in (0, 1, 2)
        out, err = capsys.readouterr()
        if code == 2:
            assert command in SWEEP_REFUSALS, err
            assert re.fullmatch(f"error: {SWEEP_REFUSALS[command]}\n", err), err
        if command == "verify":
            assert code == 0
            assert_records_hold(verify_records, out)
