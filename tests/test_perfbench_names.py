"""Every function the benchmark's tracer wraps by name still exists in macgame.

`perfbench/tracing.py` looks each entry of its ENTRIES list up with getattr;
a source change that drops one of them breaks the traced benchmark run, so
this test fails first. It only reads the tracer's list.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
