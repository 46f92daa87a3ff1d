"""Each CLI call imports only the modules its subcommand runs, and the lazy package
namespace still gives every exported name.

A call is a fresh interpreter, so its imports are part of its time. In process the
tests share one interpreter in which earlier tests have loaded every module, which
would hide a missing import; the import sets are therefore read off fresh
`python -X importtime -m macgame` calls.
"""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import macgame
from macgame.capacity import build_view, face_vertices
from macgame.cli import build_parser, main as cli_main
from macgame.scenario import build_model, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
SHIPPED = sorted(p.stem for p in SCENARIOS.glob("*.cfg"))

# the names `macgame` exported when its __init__ imported every module
EXPORTS = {
    "capacity": ["ChannelModel", "CapacityRegionView", "build_view", "capacity_of",
                 "face_vertices", "is_feasible", "max_face_residual", "max_weighted_base",
                 "reply_slack", "safe_rate", "sample_max_face", "worst_excess"],
    "game": ["Utility", "best_response", "efficiency_metrics", "is_nash", "is_pareto_optimal",
             "is_strong_equilibrium", "payoff", "potential"],
    "selection": ["GoodmanCertificate", "NormalizedEqConfig", "NormalizedEquilibrium",
                  "goodman_certificate", "normalized_equilibrium"],
    "evolution": ["EssResult", "PayoffTable", "PopulationState", "ess_check", "expected_payoff",
                  "expected_payoff_mc", "expected_payoffs", "make_grid", "mean_rate",
                  "mixed_feasible"],
    "dynamics": ["Trace", "rest_point_residual", "simulate", "velocity"],
    "specs": ["DynamicsRun", "EssTestSpec", "Protocol"],
    "scenario": ["Scenario", "ScenarioError", "dump_scenario", "parse_scenario"],
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]

# what every call loads: the package, the CLI, the region oracle, the game, the scenario
# parser and the specs its defaults come from
BASE = {"macgame", "macgame.cli", "macgame.capacity", "macgame.game", "macgame.scenario",
        "macgame.specs"}
EXTRA = {
    "region": set(), "br": set(), "check-eq": set(), "metrics": set(),
    "normalized": {"macgame.selection"},
    "ess": {"macgame.evolution"},
    "dynamics": {"macgame.evolution", "macgame.dynamics"},
    "verify": {"macgame.evolution", "macgame.dynamics", "macgame.selection", "macgame.checks"},
}


def fresh_env():
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def loaded_modules(args: list, cwd) -> set:
    """The macgame modules a fresh interpreter imports to run `args` (its exit code must be
    0): `python -m macgame ARGS` by default, or `python -c CODE` when args start with -c."""
    argv = args if args[0] == "-c" else ["-m", "macgame"] + args
    proc = subprocess.run([sys.executable, "-X", "importtime"] + argv, cwd=cwd, env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return {name for name in names if name.split(".")[0] == "macgame"}


def command_args(name: str, command: str, tmp_path) -> list:
    """`command` on a shipped scenario, with arguments that exit 0 there."""
    args = ["-s", str(SCENARIOS / f"{name}.cfg")]
    text = (SCENARIOS / f"{name}.cfg").read_text()
    vertex = face_vertices(build_view(build_model(parse_scenario(text))))[0].tolist()
    if command == "br":
        return args + ["br", "--user", "1", "--others", ",".join(map(repr, vertex[1:]))]
    if command == "check-eq":
        return args + ["check-eq", "--profile", ",".join(map(repr, vertex))]
    if command == "normalized":
        return args + ["--set", "g=log1p", "normalized"]
    if command == "dynamics":
        return args + ["--set", "steps=5", "--set", f"trace_csv={tmp_path}/t.csv",
                       "--set", f"state_csv={tmp_path}/s.csv", "dynamics"]
    return args + [command]


# every subcommand on every shipped scenario, `ess` only on the symmetric channels
CALLS = [(name, command) for name in SHIPPED for command in sorted(EXTRA)
         if command != "ess" or name.startswith("sym")]


@pytest.mark.parametrize("name, command", CALLS)
def test_subcommand_loads_only_what_it_runs(name, command, tmp_path):
    assert loaded_modules(command_args(name, command, tmp_path), tmp_path) == BASE | EXTRA[command]


def test_bare_import_loads_no_submodule(tmp_path):
    assert loaded_modules(["-c", "import macgame"], tmp_path) == {"macgame"}


@pytest.mark.parametrize("module, name", EXPORTED)
def test_exported_name_is_its_modules_object(module, name):
    defined = getattr(importlib.import_module(f"macgame.{module}"), name)
    namespace = {}
    exec(f"from macgame import {name}", namespace)
    assert namespace[name] is defined
    assert getattr(macgame, name) is defined


def test_all_and_dir_list_the_exports():
    names = sorted(name for _, name in EXPORTED)
    assert sorted(macgame.__all__) == names
    assert set(names) <= set(dir(macgame))
    assert macgame.__version__ == "0.1.0"


def test_unknown_name_is_no_attribute():
    assert not hasattr(macgame, "nope")
    with pytest.raises(ImportError):
        exec("from macgame import nope", {})


def test_submodules_import_by_name():
    from macgame import checks, cli
    assert checks is sys.modules["macgame.checks"] and cli is sys.modules["macgame.cli"]


def test_moved_specs_resolve_where_they_were():
    from macgame import dynamics, evolution, specs
    assert dynamics.Protocol is specs.Protocol and dynamics.DynamicsRun is specs.DynamicsRun
    assert dynamics.PROTOCOL_KINDS is specs.PROTOCOL_KINDS
    assert evolution.EssTestSpec is specs.EssTestSpec
    assert evolution.MC_SAMPLES == specs.MC_SAMPLES


def test_ess_help_states_the_spec_default(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["ess", "--help"])
    assert "default 50" in " ".join(capsys.readouterr().out.split())


def test_dump_config_states_the_spec_defaults(capsys):
    # every run default the scenario reads off the specs, as the CLI printed it before they moved
    assert cli_main(["--set", "m=2", "--set", "snr=1,1", "--dump-config"]) == 0
    assert capsys.readouterr().out == (
        "m = 2\nsnr = 1.0,1.0\nsigma2 = 1.0\ng = identity\ng_power = 0.5\ngrid_points = 51\n"
        "protocol = bnn\ntheta = 1.0\nk = 1.0\ndt = 0.01\nsteps = 20000\nrecord_every = 100\n"
        "seed = 0\npayoff_method = exact\nsamples = 100000\ntrace_csv = trace.csv\n"
        "state_csv = state.csv\n")
