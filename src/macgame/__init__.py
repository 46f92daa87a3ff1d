"""Rate-allocation games on Gaussian multiple-access channels."""

from .capacity import (
    ChannelModel,
    CapacityRegionView,
    build_view,
    capacity_of,
    face_vertices,
    is_feasible,
    max_face_residual,
    max_weighted_base,
    reply_slack,
    safe_rate,
    sample_max_face,
    worst_excess,
)
from .game import (
    Utility,
    best_response,
    efficiency_metrics,
    is_nash,
    is_pareto_optimal,
    is_strong_equilibrium,
    payoff,
    potential,
)
from .selection import (
    GoodmanCertificate,
    NormalizedEqConfig,
    NormalizedEquilibrium,
    goodman_certificate,
    normalized_equilibrium,
)
from .evolution import (
    EssResult,
    EssTestSpec,
    PayoffTable,
    PopulationState,
    ess_check,
    expected_payoff,
    expected_payoff_mc,
    expected_payoffs,
    make_grid,
    mean_rate,
    mixed_feasible,
)
from .dynamics import (
    DynamicsRun,
    Protocol,
    Trace,
    rest_point_residual,
    simulate,
    velocity,
)
from .scenario import Scenario, ScenarioError, dump_scenario, parse_scenario

__version__ = "0.1.0"
