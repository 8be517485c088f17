"""The public surface: what ``cevlab`` and its modules export."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cevlab

# Every name the package exports.  A change to the API changes this list.
PUBLIC_API = [
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

# The package and every submodule that declares an ``__all__``.
MODULES = ["cevlab"] + [
    f"cevlab.{info.name}"
    for info in pkgutil.iter_modules(cevlab.__path__)
    if hasattr(importlib.import_module(f"cevlab.{info.name}"), "__all__")
]


def test_package_exports_exactly_the_listed_api():
    assert cevlab.__all__ == PUBLIC_API


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), sorted(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing


def test_cli_import_loads_no_pool_machinery():
    """Every CLI start pays for what ``cevlab.cli`` imports.  Workers are
    forked directly, so neither executors nor multiprocessing are loaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    code = (
        "import sys, cevlab.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
