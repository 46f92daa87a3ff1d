"""Every function the benchmark's tracer wraps by name still exists in macgame, and
the step loop still runs through the wrapped names.

`perfbench/tracing.py` looks each entry of its ENTRIES list up with getattr;
a source change that drops one of them breaks the traced benchmark run, so
the first test fails first. The second installs the tracer around short
`simulate` runs and counts the payoff, flow and Euler spans of each step.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import macgame.cli  # noqa: F401 -- Tracer.install reads every macgame submodule
from macgame import (ChannelModel, DynamicsRun, PopulationState, Protocol, Utility, build_view,
                     make_grid, simulate)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = []
    for module, attr, _tag in tracing.ENTRIES:
        owner = importlib.import_module(f"macgame.{module}")
        cls, _, name = attr.rpartition(".")
        if cls:   # the tracer reads a method from its class's own __dict__
            owner = getattr(owner, cls, None)
            found = owner is not None and callable(vars(owner).get(name))
        else:
            found = callable(getattr(owner, name, None))
        if not found:
            missing.append(f"macgame.{module}.{attr}")
    assert tracing.ENTRIES and not missing, missing


@pytest.mark.parametrize("method", ["exact", "montecarlo"])
def test_step_loop_spans_fire(method):
    # dynamics.payoff_share.*, payoff_eval_us.*, flow_us.* and euler_update_us.* read these
    # spans; code motion that routed simulate around the wrapped names would turn them
    # into a structural 0
    view = build_view(ChannelModel(np.array([1.0, 1.0])))
    grid = make_grid(float(view.single_caps.max()), 11)
    run = DynamicsRun(protocol=Protocol.bnn(), state0=PopulationState.uniform(grid), steps=3,
                      payoff_method=method, samples=200)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        simulate(view, Utility.log1p(), run)
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    assert names.count("dynamics._payoff_vector") == run.steps + 1
    assert names.count("dynamics._flow") == run.steps + 1
    assert names.count("dynamics.euler_update") == run.steps
    if method == "exact":
        assert names.count("dynamics.PayoffTable.payoffs") == run.steps + 1
