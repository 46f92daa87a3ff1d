"""Scenario files: plain `key = value` text describing one analysis setup.

Lines hold one assignment each, `#` starts a comment, and list values are
comma-separated. Parsing validates everything up front and reports every
problem at once, with line numbers where they exist. A dumped scenario
re-parses to an equal scenario.
"""
from dataclasses import dataclass, fields

import numpy as np

from .capacity import ChannelModel
from .dynamics import PAYOFF_METHODS, PROTOCOL_KINDS, Protocol
from .game import Utility

UTILITY_KINDS = ("identity", "log1p", "power")


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
    theta: float = 1.0
    k: float = 1.0
    dt: float = 0.01
    steps: int = 20_000
    record_every: int = 100
    seed: int = 0
    payoff_method: str = "exact"
    samples: int = 100_000
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


def _convert(key: str, raw: str, line_no: int, problems: list):
    typ = _KEYS[key]
    try:
        if typ is tuple:
            return tuple(float(part) for part in raw.split(","))
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except ValueError:
        problems.append(f"line {line_no}: {key} must be {typ.__name__}, got '{raw}'")
        return None


def parse_scenario(text: str) -> Scenario:
    problems: list[str] = []
    values: dict = {}
    key_lines: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            problems.append(f"line {line_no}: expected 'key = value', got '{body}'")
            continue
        key, raw = (part.strip() for part in body.split("=", 1))
        key = key.lower()
        if key not in _KEYS:
            problems.append(f"line {line_no}: unknown key '{key}'")
            continue
        if key in values:
            problems.append(
                f"line {line_no}: duplicate key '{key}' (first on line {key_lines[key]})")
            continue
        key_lines[key] = line_no
        val = _convert(key, raw, line_no, problems)
        if val is not None:
            values[key] = val

    if "m" not in values:
        problems.append("missing required key: m")
    if "snr" not in values and "p" not in values:
        problems.append("missing required key: snr (or p with sigma2)")
    if problems and ("m" not in values or ("snr" not in values and "p" not in values)):
        raise ScenarioError(problems)

    scenario = Scenario(**values)
    problems.extend(_validate(scenario, key_lines))
    if problems:
        raise ScenarioError(problems)
    return scenario


def _where(key_lines: dict, key: str) -> str:
    return f"line {key_lines[key]}: " if key in key_lines else ""


def _validate(s: Scenario, key_lines: dict) -> list:
    problems = []
    if s.m < 1:
        problems.append(f"{_where(key_lines, 'm')}m must be >= 1")
    if s.snr is not None:
        if len(s.snr) != s.m:
            problems.append(f"{_where(key_lines, 'snr')}snr needs {s.m} entries, got {len(s.snr)}")
        if any(v <= 0 for v in s.snr):
            problems.append(f"{_where(key_lines, 'snr')}every snr must be positive")
    else:
        if s.p is not None and s.p <= 0:
            problems.append(f"{_where(key_lines, 'p')}p must be positive")
        if s.sigma2 <= 0:
            problems.append(f"{_where(key_lines, 'sigma2')}sigma2 must be positive")
        if s.h is not None:
            if len(s.h) != s.m:
                problems.append(f"{_where(key_lines, 'h')}h needs {s.m} entries, got {len(s.h)}")
            if any(v <= 0 for v in s.h):
                problems.append(f"{_where(key_lines, 'h')}every gain must be positive")
    if s.g not in UTILITY_KINDS:
        problems.append(f"{_where(key_lines, 'g')}g must be one of {', '.join(UTILITY_KINDS)}")
    if not 0.0 < s.g_power < 1.0:
        problems.append(f"{_where(key_lines, 'g_power')}g_power must lie in (0, 1)")
    if s.grid_points < 2:
        problems.append(f"{_where(key_lines, 'grid_points')}grid_points must be >= 2")
    if s.protocol not in PROTOCOL_KINDS:
        problems.append(
            f"{_where(key_lines, 'protocol')}protocol must be one of {', '.join(PROTOCOL_KINDS)}")
    if s.protocol == "smith" and s.theta < 1.0:
        problems.append(f"{_where(key_lines, 'theta')}theta must be >= 1")
    if s.k <= 0:
        problems.append(f"{_where(key_lines, 'k')}k must be positive")
    if s.dt <= 0:
        problems.append(f"{_where(key_lines, 'dt')}dt must be positive")
    if s.steps < 0:
        problems.append(f"{_where(key_lines, 'steps')}steps must be >= 0")
    if s.record_every < 1:
        problems.append(f"{_where(key_lines, 'record_every')}record_every must be >= 1")
    if s.payoff_method not in PAYOFF_METHODS:
        methods = " or ".join(PAYOFF_METHODS)
        problems.append(f"{_where(key_lines, 'payoff_method')}payoff_method must be {methods}")
    if s.samples < 1:
        problems.append(f"{_where(key_lines, 'samples')}samples must be >= 1")
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
