"""The public surface: what ``cevlab`` and its modules export, and the
names the layer trace wraps."""

import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

import cevlab
import cevlab.cli
import cevlab.config

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


def test_project_version_is_the_package_version():
    """pyproject.toml reads its version from ``cevlab.__version__``."""
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools' [tool.setuptools] beta notice
        project = pyprojecttoml.read_configuration(pyproject)["project"]
    assert project["version"] == cevlab.__version__


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), sorted(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing


# The experiments; each takes its grid, path count and seed by these names.
ENTRY_POINTS = [
    "strong_error",
    "moment_check",
    "negativity_stats",
    "price_payoff",
    "simulate_paths_batch",
]


def test_no_public_callable_takes_n_threads():
    """The worker cap is set by CEVLAB_THREADS alone."""
    offenders = []
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in module.__all__:
            try:
                parameters = inspect.signature(getattr(module, attr)).parameters
            except (TypeError, ValueError):  # not callable, or a builtin type
                continue
            if "n_threads" in parameters:
                offenders.append(f"{name}.{attr}")
    assert not offenders


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_experiments_take_grid_paths_and_seed_by_name(name):
    parameters = inspect.signature(getattr(cevlab, name)).parameters
    assert {"grid", "n_paths", "seed"} <= set(parameters)


def _fresh_python(code: str, **env: str) -> str:
    """Stripped stdout of ``code`` run in a fresh interpreter that imports
    cevlab from this checkout, with ``env`` set and OPENBLAS_NUM_THREADS
    unset unless ``env`` sets it.  It runs in a temporary directory, so a
    command that writes a relative path leaves nothing in the checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as cwd:
        out = subprocess.run(
            [sys.executable, "-c", code], env={**base, **env}, cwd=cwd,
            capture_output=True, text=True, check=True,
        )
    return out.stdout.strip()


def test_cli_import_loads_no_pool_machinery():
    """Every CLI start pays for what ``cevlab.cli`` imports.  Workers are
    forked directly, so neither executors nor multiprocessing are loaded."""
    code = (
        "import sys, cevlab.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    assert _fresh_python(code) == "[]"


def test_cli_import_loads_no_csv():
    """CSV lines are joined by one rule in ``cli``, not by the csv module."""
    assert _fresh_python("import sys, cevlab.cli; print('csv' in sys.modules)") == "False"


def test_package_import_loads_no_numpy_and_sets_no_blas_threads():
    code = (
        "import os, sys, cevlab; "
        "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    assert _fresh_python(code) == "False None"


def test_lazy_exports_resolve_and_list():
    """From a fresh import, every export resolves on first use, ``dir``
    lists it, and an unknown name is an AttributeError."""
    code = (
        "import cevlab\n"
        "listed = dir(cevlab)\n"
        "print([n for n in cevlab.__all__ if n not in listed])\n"
        "print([n for n in cevlab.__all__ if getattr(cevlab, n, None) is None])\n"
        "try:\n"
        "    cevlab.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert _fresh_python(code).splitlines() == [
        "[]", "[]", "module 'cevlab' has no attribute 'no_such_name'",
    ]


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_command_asks_for_one_blas_thread_unless_the_user_chose(preset, expected):
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    code = "import os, cevlab.__main__; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(code, **env) == expected


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_command_process_runs_one_thread():
    """A CLI process holds no idle BLAS pool thread, which would spin on the
    CPU and be copied into no forked worker anyway.  The command loads no
    numpy itself, so numpy is imported after it, as a run that simulates
    imports it."""
    code = (
        "import os, cevlab.__main__, numpy; "
        "print(len(os.listdir('/proc/self/task')))"
    )
    assert _fresh_python(code) == "1"


# The standard model as flags, and the extra flags each experiment requires.
_STD = ["--model.k=1", "--model.l=1", "--model.sigma=1", "--model.a=0.75",
        "--model.x0=1", "--grid.t_end=1", "--grid.n_steps=64"]
_EXTRA = {
    "convergence": ["--grid.n_steps=256", "--run.ref_exponent=8", "--run.levels=3,4"],
    "price": ["--run.payoff=EuropeanCall", "--run.strike=1"],
}


def _command(argv: list[str]) -> tuple[int, bool]:
    """(exit code, numpy loaded) of the command run with ``argv`` in a fresh
    interpreter, one worker."""
    code = (
        "import sys\n"
        "from cevlab.__main__ import main\n"
        f"code = main({argv!r})\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    status, loaded = _fresh_python(code, CEVLAB_THREADS="1").splitlines()[-1].split()
    return int(status), loaded == "True"


@pytest.mark.parametrize("experiment", cevlab.config.EXPERIMENTS)
def test_dry_run_loads_no_numpy(experiment):
    argv = [experiment, *_STD, *_EXTRA.get(experiment, []), "--dry-run"]
    assert _command(argv) == (0, False)


@pytest.mark.parametrize("argv, status", [
    (["--help"], 0),
    (["check", "--model.k"], 1),  # usage error
    (["check", *_STD, "--model.q=1"], 1),  # parse error: unknown flag
    (["moments", *_STD, "--run.n_paths=1000", "--out="], 1),  # parse error: empty value
    (["check", *_STD, "--out=no\ndir/check.csv"], 1),  # parse error: line break
    (["simulate", *_STD, "--run.n_paths=1", "--out=r\udcff.json"], 1),  # not UTF-8
    (["convergence", *_STD, *_EXTRA["convergence"], "--run.levels=0,4",
      "--run.n_paths=1000"], 2),  # infeasible test level dt = 1
])
def test_rejected_or_help_command_loads_no_numpy(argv, status):
    assert _command(argv) == (status, False)


def test_check_loads_no_numpy(tmp_path):
    out = tmp_path / "check.csv"
    assert _command(["check", *_STD, f"--out={out}"]) == (0, False)
    assert out.read_text().startswith("metric,value,se")


def test_simulating_run_loads_numpy(tmp_path):
    out = tmp_path / "moments.json"
    argv = ["moments", *_STD, "--run.n_paths=1000", f"--out={out}"]
    assert _command(argv) == (0, True)
    assert out.is_file()


def test_config_import_loads_no_numpy():
    code = "import sys, cevlab.config; print('numpy' in sys.modules)"
    assert _fresh_python(code) == "False"


def test_installed_command_runs_the_module_entry_point():
    """The ``cevlab`` script starts like ``python -m cevlab``."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["cevlab"]
    module, _, attr = entry.partition(":")
    assert module == "cevlab.__main__"
    assert getattr(importlib.import_module(module), attr) is cevlab.cli.main


def test_one_adapter_per_experiment_and_every_flag_in_the_usage():
    """``cli.run`` finds ``_run_<experiment>`` by name and the layer trace
    wraps every ``_run_*``, so a missing or extra adapter would go unseen."""
    adapters = [name.removeprefix("_run_") for name in dir(cevlab.cli)
                if name.startswith("_run_") and callable(getattr(cevlab.cli, name))]
    assert sorted(adapters) == sorted(cevlab.config.EXPERIMENTS)
    usage = cevlab.cli._USAGE.split()
    assert [f for f in cevlab.config.FLAG_TO_KEY if f"--{f}" not in usage] == []


def _load_tracing():
    """The benchmark's layer tracer, loaded by file path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("cevlab_test_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Trace targets whose functions were deleted; their metrics read as absent.
ABSENT_TRACE_TARGETS = {"generator", "run_block"}


def test_layer_trace_targets_resolve():
    """Every name the layer trace wraps is a callable of its module, so no
    rename blinds a layer without this list changing."""
    unresolved = []
    for name, _, module, attr, _ in _load_tracing().TARGETS:
        mod = importlib.import_module(module)
        if attr.endswith("*"):
            found = [a for a in dir(mod)
                     if a.startswith(attr[:-1]) and callable(getattr(mod, a))]
        else:
            found = [attr] if callable(getattr(mod, attr, None)) else []
        if not found:
            unresolved.append(name)
    assert sorted(unresolved) == sorted(ABSENT_TRACE_TARGETS)
