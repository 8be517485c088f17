"""cevlab: explicit positivity-preserving simulation of the mean-reverting
CEV process, with a coupled Monte Carlo harness for strong-order, moment,
and tail diagnostics.

The exports load lazily (PEP 562): ``import cevlab`` imports no submodule
and so no numpy, and the first use of a name imports the module that
defines it.  ``model``, ``config`` and ``errors`` (parameters, input rules,
run configs, errors) are numpy-free; the first use of an engine name
(``BatchStats``, the report types and the experiments) loads numpy.  That
lets ``python -m cevlab`` set up its process in ``cevlab.__main__`` before
numpy loads, and validate a run without loading it at all.
"""

import importlib

__version__ = "0.1.0"

# Every exported name and the submodule that defines it.
_EXPORTS = {
    # model
    "CevParams": "model",
    "TimeGrid": "model",
    "AssumptionAReport": "model",
    "validate_assumption_a": "model",
    "max_stable_step": "model",
    "inner_value": "model",
    "analytic_mean": "model",
    "step_negativity_prob": "model",
    "normal_cdf": "model",
    # schemes (SchemeId is defined with the input rules in model)
    "SchemeId": "model",
    "BatchStats": "schemes",
    # experiments (the payoff types are defined with the input rules in model)
    "LevelRecord": "experiments",
    "ConvergenceReport": "experiments",
    "MomentReport": "experiments",
    "PayoffKind": "model",
    "PayoffSpec": "model",
    "NegativityStats": "experiments",
    "strong_error": "experiments",
    "fit_order": "experiments",
    "moment_check": "experiments",
    "negativity_stats": "experiments",
    "price_payoff": "experiments",
    "simulate_paths_batch": "experiments",
    # config
    "RunConfig": "config",
    "parse_config": "config",
    # errors
    "CevlabError": "errors",
    "ValidationError": "errors",
    "ParseError": "errors",
    "NegativeInner": "errors",
    "InfeasibleLevel": "errors",
    "InsufficientPoints": "errors",
    "NonPositiveValue": "errors",
    "NonFiniteResult": "errors",
    "CouplingError": "errors",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
