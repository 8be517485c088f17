"""cevlab: explicit positivity-preserving simulation of the mean-reverting
CEV process, with a coupled Monte Carlo harness for strong-order, moment,
and tail diagnostics."""

__version__ = "0.1.0"

from .errors import (
    CevlabError,
    CouplingError,
    InfeasibleLevel,
    InsufficientPoints,
    NegativeInner,
    NonFiniteResult,
    NonPositiveValue,
    ParseError,
    ValidationError,
)
from .config import RunConfig, parse_config
from .experiments import (
    ConvergenceReport,
    LevelRecord,
    LevelSpec,
    MomentReport,
    NegativityStats,
    PayoffKind,
    PayoffSpec,
    fit_order,
    moment_check,
    negativity_stats,
    price_payoff,
    simulate_paths_batch,
    strong_error,
)
from .model import (
    AssumptionAReport,
    CevParams,
    TimeGrid,
    analytic_mean,
    inner_value,
    max_stable_step,
    normal_cdf,
    step_negativity_prob,
    validate_assumption_a,
)
from .schemes import BatchStats, SchemeId

__all__ = [
    "__version__",
    # model
    "CevParams",
    "TimeGrid",
    "AssumptionAReport",
    "validate_assumption_a",
    "max_stable_step",
    "inner_value",
    "analytic_mean",
    "step_negativity_prob",
    "normal_cdf",
    # schemes
    "SchemeId",
    "BatchStats",
    # experiments
    "LevelSpec",
    "LevelRecord",
    "ConvergenceReport",
    "MomentReport",
    "PayoffKind",
    "PayoffSpec",
    "NegativityStats",
    "strong_error",
    "fit_order",
    "moment_check",
    "negativity_stats",
    "price_payoff",
    "simulate_paths_batch",
    # config
    "RunConfig",
    "parse_config",
    # errors
    "CevlabError",
    "ValidationError",
    "ParseError",
    "NegativeInner",
    "InfeasibleLevel",
    "InsufficientPoints",
    "NonPositiveValue",
    "NonFiniteResult",
    "CouplingError",
]
