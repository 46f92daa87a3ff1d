"""The specs a caller fills in to run the dynamics or the ESS test, with every default.

`Protocol` and `DynamicsRun` describe one `dynamics.simulate` run and
`EssTestSpec` one `evolution.ess_check`; each default is written here once,
and `scenario` and the CLI read their own defaults off these classes. The
module imports nothing from macgame, so reading a default loads no payoff
engine: a CLI call that runs neither `dynamics` nor `evolution` does not
import them. `dynamics` and `evolution` import these names, so they still
resolve there too.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .evolution import PopulationState

PROTOCOL_KINDS = ("bnn", "replicator", "smith")
PAYOFF_METHODS = ("exact", "montecarlo")
MC_SAMPLES = 100_000


@dataclass(frozen=True)
class Protocol:
    """Revision protocol: kind, Smith exponent theta, growth parameter K."""

    kind: str
    theta: float = 1.0
    K: float = 1.0

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise ValueError(f"unknown protocol '{self.kind}'")
        if self.kind == "smith" and not self.theta >= 1.0:
            raise ValueError("theta must be >= 1")
        if not self.K > 0.0:
            raise ValueError("growth parameter K must be positive")

    # the defaults below are read from the fields above, in the class body
    @classmethod
    def bnn(cls, K: float = K) -> "Protocol":
        return cls("bnn", K=K)

    @classmethod
    def replicator(cls, K: float = K) -> "Protocol":
        return cls("replicator", K=K)

    @classmethod
    def smith(cls, theta: float = theta, K: float = K) -> "Protocol":
        return cls("smith", theta=theta, K=K)


@dataclass
class DynamicsRun:
    """Everything one simulation needs, with explicit-Euler defaults."""

    protocol: Protocol
    state0: PopulationState
    dt: float = 0.01
    steps: int = 20_000
    record_every: int = 100
    seed: int = 0
    payoff_method: str = "exact"
    samples: int = MC_SAMPLES

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.payoff_method not in PAYOFF_METHODS:
            raise ValueError(f"unknown payoff method '{self.payoff_method}'")
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")


@dataclass
class EssTestSpec:
    """Resident rate plus the number of mutant grid points to probe."""

    resident: float
    mutant_grid: int = 50

    def __post_init__(self):
        if self.mutant_grid < 2:
            raise ValueError("mutant grid needs at least 2 points")
