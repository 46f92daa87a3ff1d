"""Rate-allocation games on Gaussian multiple-access channels.

The namespace is lazy (PEP 562): each name below is imported from its module
the first time it is read, so `import macgame` loads no submodule and a CLI
call loads only what its subcommand runs.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "capacity": (
        "ChannelModel",
        "CapacityRegionView",
        "build_view",
        "capacity_of",
        "face_vertices",
        "is_feasible",
        "max_face_residual",
        "max_weighted_base",
        "reply_slack",
        "safe_rate",
        "sample_max_face",
        "worst_excess",
    ),
    "game": (
        "Utility",
        "best_response",
        "efficiency_metrics",
        "is_nash",
        "is_pareto_optimal",
        "is_strong_equilibrium",
        "payoff",
        "potential",
    ),
    "selection": (
        "GoodmanCertificate",
        "NormalizedEqConfig",
        "NormalizedEquilibrium",
        "goodman_certificate",
        "normalized_equilibrium",
    ),
    "evolution": (
        "EssResult",
        "PayoffTable",
        "PopulationState",
        "ess_check",
        "expected_payoff",
        "expected_payoff_mc",
        "expected_payoffs",
        "make_grid",
        "mean_rate",
        "mixed_feasible",
    ),
    "dynamics": (
        "Trace",
        "rest_point_residual",
        "simulate",
        "velocity",
    ),
    "specs": (
        "DynamicsRun",
        "EssTestSpec",
        "Protocol",
    ),
    "scenario": (
        "Scenario",
        "ScenarioError",
        "dump_scenario",
        "parse_scenario",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    # an unknown name raises, so `from macgame import cli` imports the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
