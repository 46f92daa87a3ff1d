"""Scenario files: plain `key = value` text describing one analysis setup.

Lines hold one assignment each, `#` starts a comment, and list values are
comma-separated. Parsing validates everything up front and reports every
problem at once, with line numbers where they exist. A dumped scenario
re-parses to an equal scenario. The `build_*` functions turn a scenario into
the library's objects: its channel, utility, protocol and `dynamics` run;
`substream_seed` gives each analysis its own stream of the `seed` key.
"""
from dataclasses import dataclass, fields

import numpy as np

from .capacity import CapacityRegionView, ChannelModel
from .game import Utility
from .specs import PAYOFF_METHODS, PROTOCOL_KINDS, DynamicsRun, Protocol

UTILITY_KINDS = ("identity", "log1p", "power")
# Named substreams of the scenario seed, so each analysis draws independently but
# reproducibly: face sampling, Monte Carlo samples of `verify` and of a run, `verify`'s
# random tau, then each sampling `verify` check's own cases. A name keeps its number.
_SUBSTREAM = {"face": 0, "montecarlo": 1, "dynamics": 2, "weights": 3,
              "capacity-identities": 4, "nash-face-equivalence": 5, "potential-identity": 6,
              "best-response-argmax": 7, "rest-points": 8, "montecarlo-payoffs": 9}


@dataclass
class Scenario:
    m: int
    snr: tuple = None
    p: float = None
    h: tuple = None
    sigma2: float = 1.0
    g: str = "identity"
    g_power: float = 0.5
    grid_points: int = 51
    protocol: str = "bnn"
    theta: float = Protocol.theta
    k: float = Protocol.K
    dt: float = DynamicsRun.dt
    steps: int = DynamicsRun.steps
    record_every: int = DynamicsRun.record_every
    seed: int = 0
    payoff_method: str = DynamicsRun.payoff_method
    samples: int = DynamicsRun.samples
    trace_csv: str = "trace.csv"
    state_csv: str = "state.csv"


# Key -> python type, from the fields above; tuple types are comma-separated
# lists. This module does not postpone annotations, so each type is a class.
_KEYS = {f.name: f.type for f in fields(Scenario)}


class ScenarioError(ValueError):
    """Carries every parse/validation problem found in one pass."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


def _convert(key: str, raw: str, where: str, problems: list):
    typ = _KEYS[key]
    try:
        if typ is int:
            return int(raw)
        if typ is str:
            return raw
        floats = [float(part) for part in (raw.split(",") if typ is tuple else [raw])]
    except ValueError:
        problems.append(f"{where}: {key} must be {typ.__name__}, got '{raw}'")
        return None
    if not np.isfinite(floats).all():
        problems.append(f"{where}: {key} must be finite, got '{raw}'")
        return None
    return tuple(floats) if typ is tuple else floats[0]


def parse_scenario(text: str, overrides: dict = None) -> Scenario:
    """Parse scenario text; `overrides` maps keys to raw values (`--set key=value`) that
    replace the text's lines for those keys. Problems are located by the text's own line
    numbers, or as `--set key`."""
    overrides = overrides or {}
    bodies = (line.split("#", 1)[0] for line in text.splitlines())
    entries = [(f"line {n}", body) for n, body in enumerate(bodies, start=1)
               if not overrides or body.split("=", 1)[0].strip().lower() not in overrides]
    entries += [(f"--set {key}", f"{key} = {raw}") for key, raw in overrides.items()]
    problems: list[str] = []
    values: dict = {}
    key_where: dict = {}
    for where, body in entries:
        body = body.strip()
        if not body:
            continue
        if "=" not in body:
            problems.append(f"{where}: expected 'key = value', got '{body}'")
            continue
        key, raw = (part.strip() for part in body.split("=", 1))
        key = key.lower()
        if key not in _KEYS:
            problems.append(f"{where}: unknown key '{key}'")
            continue
        if key in values:
            problems.append(f"{where}: duplicate key '{key}' (first on {key_where[key]})")
            continue
        key_where[key] = where
        if "#" in raw:   # only an override can hold one; a file line would lose it
            problems.append(f"{where}: '#' starts a comment and cannot appear in a value")
            continue
        val = _convert(key, raw, where, problems)
        if val is not None:
            values[key] = val

    if "m" not in values:
        problems.append("missing required key: m")
    if "snr" not in values and "p" not in values:
        problems.append("missing required key: snr (or p with sigma2)")
    if problems and ("m" not in values or ("snr" not in values and "p" not in values)):
        raise ScenarioError(problems)

    scenario = Scenario(**values)
    problems.extend(_validate(scenario, key_where))
    if problems:
        raise ScenarioError(problems)
    return scenario


def _validate(s: Scenario, key_where: dict) -> list:
    problems = []

    def bad(key: str, text: str) -> None:   # located where the key was set, if it was
        problems.append(f"{key_where[key]}: {text}" if key in key_where else text)

    if s.m < 1:
        bad("m", "m must be >= 1")
    if s.snr is not None:
        if len(s.snr) != s.m:
            bad("snr", f"snr needs {s.m} entries, got {len(s.snr)}")
        if any(v <= 0 for v in s.snr):
            bad("snr", "every snr must be positive")
    else:
        if s.p is not None and s.p <= 0:
            bad("p", "p must be positive")
        if s.sigma2 <= 0:
            bad("sigma2", "sigma2 must be positive")
        if s.h is not None:
            if len(s.h) != s.m:
                bad("h", f"h needs {s.m} entries, got {len(s.h)}")
            if any(v <= 0 for v in s.h):
                bad("h", "every gain must be positive")
    if s.g not in UTILITY_KINDS:
        bad("g", f"g must be one of {', '.join(UTILITY_KINDS)}")
    if not 0.0 < s.g_power < 1.0:
        bad("g_power", "g_power must lie in (0, 1)")
    if s.grid_points < 2:
        bad("grid_points", "grid_points must be >= 2")
    if s.protocol not in PROTOCOL_KINDS:
        bad("protocol", f"protocol must be one of {', '.join(PROTOCOL_KINDS)}")
    if s.protocol == "smith" and s.theta < 1.0:
        bad("theta", "theta must be >= 1")
    if s.k <= 0:
        bad("k", "k must be positive")
    if s.dt <= 0:
        bad("dt", "dt must be positive")
    if s.steps < 0:
        bad("steps", "steps must be >= 0")
    if s.record_every < 1:
        bad("record_every", "record_every must be >= 1")
    if s.payoff_method not in PAYOFF_METHODS:
        methods = " or ".join(PAYOFF_METHODS)
        bad("payoff_method", f"payoff_method must be {methods}")
    if s.samples < 1:
        bad("samples", "samples must be >= 1")
    return problems


def dump_scenario(s: Scenario) -> str:
    """Canonical text form; parse_scenario(dump_scenario(s)) == s."""
    lines = []
    for f in fields(Scenario):
        val = getattr(s, f.name)
        if val is None:
            continue
        if isinstance(val, tuple):
            val = ",".join(repr(v) for v in val)
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


def build_model(s: Scenario) -> ChannelModel:
    if s.snr is not None:
        return ChannelModel(np.array(s.snr))
    gains = np.array(s.h) if s.h is not None else np.ones(s.m)
    return ChannelModel.from_link_budget(np.full(s.m, s.p), gains, s.sigma2)


def build_utility(s: Scenario) -> Utility:
    if s.g == "identity":
        return Utility.identity()
    if s.g == "log1p":
        return Utility.log1p()
    return Utility.power(s.g_power)


def build_protocol(s: Scenario) -> Protocol:
    return Protocol(s.protocol, theta=s.theta, K=s.k)


def substream_seed(seed: int, name: str) -> int:
    seq = np.random.SeedSequence(seed, spawn_key=(_SUBSTREAM[name],))
    return int(seq.generate_state(1)[0])


def build_run(s: Scenario, view: CapacityRegionView) -> DynamicsRun:
    """The scenario's `dynamics` run: uniform start on its action grid, seeded if Monte Carlo."""
    from .evolution import PopulationState, make_grid   # the payoff engine, only for a run

    top = float(view.single_caps.max())   # C(N)/m can round one ulp above C({1})
    include = min(view.total / view.m, top) if view.model.symmetric else None
    grid = make_grid(top, s.grid_points, include=include)
    return DynamicsRun(
        protocol=build_protocol(s),
        state0=PopulationState.uniform(grid),
        dt=s.dt,
        steps=s.steps,
        record_every=s.record_every,
        seed=substream_seed(s.seed, "dynamics") if s.payoff_method == "montecarlo" else 0,
        payoff_method=s.payoff_method,
        samples=s.samples,
    )
