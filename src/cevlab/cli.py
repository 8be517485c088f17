"""Command-line front end.

    cevlab <experiment> [--config FILE] [--dry-run] [--section.key=value ...]

Experiments: check, simulate, convergence, moments, negativity, price.
Values come from the flat key=value config file; ``--section.key=value``
flags override file entries (e.g. ``--model.k=2 --grid.n_steps=128``,
``--out=report.json``).  Exit codes: 0 success, 1 usage/parse error,
2 validation error, 3 runtime numerical error.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__
from .config import EXPERIMENTS, RunConfig, parse_config
from .errors import CevlabError, ParseError, ValidationError
from .experiments import (
    LevelSpec,
    moment_check,
    negativity_stats,
    price_payoff,
    simulate_paths_batch,
    strong_error,
)
from .model import validate_assumption_a

__all__ = ["main", "run"]

_USAGE = (
    "usage: cevlab <experiment> [--config FILE] [--dry-run] "
    "[--section.key=value ...]\n"
    f"experiments: {', '.join(EXPERIMENTS)}\n"
    "flag sections: model.{k,l,sigma,a,x0}  grid.{t_end,n_steps}  "
    "run.{scheme,n_paths,seed,levels,ref_exponent,payoff,strike}  "
    "output.{format,path}  (--out is short for --output.path)"
)


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# JSON emission with fixed 17-significant-digit floats
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _row_text(row: np.ndarray, sep: str) -> str:
    """Cells of a 1-D numeric array joined by ``sep``, each written exactly as
    ``_format_float`` (floats) or ``str`` (integers) writes it.

    Finite rows take one C-level ``%`` call; ``"%.17g"`` and
    ``format(x, ".17g")`` agree on every finite double.  A row holding NaN or
    an infinity goes cell by cell, so its ``NaN`` / ``Infinity`` tokens
    survive.
    """
    if row.dtype.kind == "f":
        if not np.isfinite(row).all():
            return sep.join(map(_format_float, row.tolist()))
        cell = "%.17g"
    else:
        cell = "%d"
    return sep.join([cell] * row.size) % tuple(row.tolist())


def _json_dumps(obj: object, indent: int = 0) -> str:
    """Minimal JSON writer; floats carry 17 significant digits so every value
    round-trips bit-for-bit through json.loads."""
    pieces: list[str] = []
    _json_pieces(obj, indent, pieces)
    return "".join(pieces)


def _json_pieces(obj: object, indent: int, out: list[str]) -> None:
    """Append the text of ``obj`` to ``out`` piece by piece.

    The document is joined once at the end, so a large array is copied into
    the result once instead of once per enclosing container.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, Mapping):
        if not obj:
            out.append("{}")
            return
        sep = "{\n"
        for key, val in obj.items():
            out.append(f'{sep}{inner}"{key}": ')
            _json_pieces(val, indent + 1, out)
            sep = ",\n"
        out.append("\n" + pad + "}")
        return
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        if all(not isinstance(v, (Mapping, list, tuple)) for v in obj):
            first, sep, last = "[", ", ", "]"
        else:
            first, sep, last = "[\n" + inner, ",\n" + inner, "\n" + pad + "]"
        for val in obj:
            out.append(first)
            _json_pieces(val, indent + 1, out)
            first = sep
        out.append(last)
        return
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind not in "fiu" or obj.ndim not in (1, 2):
            raise TypeError(f"cannot serialize {obj.ndim}-D {obj.dtype} array")
        if obj.ndim == 1:
            out.append("[" + _row_text(obj, ", ") + "]")
            return
        if len(obj) == 0:
            out.append("[]")
            return
        first, sep = "[\n" + inner + "[", "],\n" + inner + "["
        for row in obj:
            out.append(first + _row_text(row, ", "))
            first = sep
        out.append("]\n" + pad + "]")
        return
    if isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _provenance(config: RunConfig) -> dict[str, object]:
    return {
        "config": config.flat_items(),
        "master_seed": config.seed,
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# experiment dispatch
# ---------------------------------------------------------------------------


class _Trajectories(NamedTuple):
    """Simulated paths as arrays: ``times`` (n+1,), ``values`` and ``events``
    (n_paths, n+1); one CSV row per (path, step)."""

    times: np.ndarray
    values: np.ndarray
    events: np.ndarray


def _trajectory_csv(buf: io.StringIO, traj: _Trajectories) -> None:
    """Write ``path,step,time,value,z_negative`` rows, one ``%`` call per path.

    The step and time cells are the same for every path, so they are
    formatted once into a per-path line template.  The cells never need
    quoting, so the lines equal ``csv.writer``'s.
    """
    steps = "".join(
        f"%d,{k},{_format_float(t)},%.17g,%d\r\n"
        for k, t in enumerate(traj.times.tolist())
    )
    # times print as digits, '.', 'e', signs or NaN/Infinity: never '%'
    steps_nonfinite = steps.replace("%.17g", "%s")
    cells = [0, 0.0, 0] * len(traj.times)
    for p, (values, events) in enumerate(zip(traj.values, traj.events)):
        cells[0::3] = [p] * len(values)
        cells[2::3] = events.tolist()
        if np.isfinite(values).all():
            cells[1::3] = values.tolist()
            buf.write(steps % tuple(cells))
        else:
            cells[1::3] = [_format_float(v) for v in values.tolist()]
            buf.write(steps_nonfinite % tuple(cells))


def _csv_text(
    header: Sequence[str], rows: Sequence[Sequence[object]] | _Trajectories
) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)  # RFC-4180 CRLF line endings by default
    writer.writerow(header)
    if isinstance(rows, _Trajectories):
        _trajectory_csv(buf, rows)
    else:
        for row in rows:
            writer.writerow(
                [_format_float(c) if isinstance(c, float) else c for c in row]
            )
    return buf.getvalue()


def _run_check(config: RunConfig):
    report = validate_assumption_a(config.params, config.grid.dt)
    results = {
        "feasible": report.feasible,
        "drift_condition_ok": report.drift_condition_ok,
        "step_condition_ok": report.step_condition_ok,
        "max_step": report.max_step,
        "margin": report.margin,
    }
    rows = [
        ("feasible", float(report.feasible), 0.0),
        ("drift_condition_ok", float(report.drift_condition_ok), 0.0),
        ("step_condition_ok", float(report.step_condition_ok), 0.0),
        ("max_step", report.max_step, 0.0),
        ("margin", report.margin, 0.0),
    ]
    summary = (
        f"feasible={str(report.feasible).lower()} "
        f"max_step={report.max_step:.6g} margin={report.margin:.6g}"
    )
    return results, ("metric", "value", "se"), rows, summary


def _run_simulate(config: RunConfig):
    values, events, stats = simulate_paths_batch(
        config.scheme, config.params, config.grid, config.n_paths, config.seed
    )
    times = config.grid.times()
    results = {
        "n_paths": config.n_paths,
        "n_steps": config.grid.n_steps,
        "scheme": config.scheme.value,
        "sign_flip_count": stats.sign_flip_count,
        "clamp_count": stats.clamp_count,
        "min_value": stats.min_value,
        "times": times,
        "paths": values,
        "z_negative": events,
    }
    summary = (
        f"simulated {config.n_paths} paths x {config.grid.n_steps} steps "
        f"({config.scheme.value}): min={stats.min_value:.6g} "
        f"sign_flips={stats.sign_flip_count} clamps={stats.clamp_count}"
    )
    rows = _Trajectories(times, values, events)
    return results, ("path", "step", "time", "value", "z_negative"), rows, summary


def _run_convergence(config: RunConfig):
    spec = LevelSpec(
        ref_exponent=config.ref_exponent,
        test_exponents=config.test_exponents,
        n_paths=config.n_paths,
        master_seed=config.seed,
    )
    report = strong_error(config.params, config.scheme, spec, config.grid.t_end)
    results = {
        "levels": [
            {
                "exponent": rec.exponent,
                "dt": rec.dt,
                "mse": rec.mse,
                "rmse": rec.rmse,
                "ci_halfwidth": rec.ci_halfwidth,
            }
            for rec in report.levels
        ],
        "fitted_order": report.fitted_order,
        "fit_intercept": report.fit_intercept,
        "fit_r2": report.fit_r2,
        "theoretical_order": report.theoretical_order,
    }
    rows = [
        (rec.exponent, rec.dt, rec.mse, rec.rmse, rec.ci_halfwidth)
        for rec in report.levels
    ]
    summary = (
        f"fitted_order={report.fitted_order:.4f} (r2={report.fit_r2:.4f}, "
        f"theoretical>={report.theoretical_order:.4g}) over {len(report.levels)} levels"
    )
    return results, ("level", "dt", "mse", "rmse", "ci95"), rows, summary


def _run_moments(config: RunConfig):
    report = moment_check(
        config.params, config.scheme, config.grid, config.n_paths, config.seed
    )
    results = {
        "sample_mean": report.sample_mean,
        "sample_second_moment": report.sample_second_moment,
        "se_mean": report.se_mean,
        "se_second": report.se_second,
        "analytic_mean": report.analytic_mean,
        "abs_mean_error": report.abs_mean_error,
    }
    rows = [
        ("sample_mean", report.sample_mean, report.se_mean),
        ("sample_second_moment", report.sample_second_moment, report.se_second),
        ("analytic_mean", report.analytic_mean, 0.0),
        ("abs_mean_error", report.abs_mean_error, 0.0),
    ]
    summary = (
        f"sample_mean={report.sample_mean:.6g} (se={report.se_mean:.3g}) "
        f"analytic={report.analytic_mean:.6g} |err|={report.abs_mean_error:.3g}"
    )
    return results, ("metric", "value", "se"), rows, summary


def _run_negativity(config: RunConfig):
    stats = negativity_stats(config.params, config.grid, config.n_paths, config.seed)
    results = {
        "total_steps": stats.total_steps,
        "z_negative_events": stats.z_negative_events,
        "clamp_events": stats.clamp_events,
        "max_step_negativity_prob": stats.max_step_negativity_prob,
    }
    rows = [
        ("total_steps", float(stats.total_steps), 0.0),
        ("z_negative_events", float(stats.z_negative_events), 0.0),
        ("clamp_events", float(stats.clamp_events), 0.0),
        ("max_step_negativity_prob", stats.max_step_negativity_prob, 0.0),
    ]
    summary = (
        f"events={stats.z_negative_events}/{stats.total_steps} "
        f"clamps={stats.clamp_events} "
        f"max_prob={stats.max_step_negativity_prob:.3g}"
    )
    return results, ("metric", "value", "se"), rows, summary


def _run_price(config: RunConfig):
    price, ci = price_payoff(
        config.params, config.payoff, config.grid, config.n_paths, config.seed
    )
    results = {
        "payoff": config.payoff.kind.value,
        "strike": config.payoff.strike,
        "price": price,
        "ci_halfwidth": ci,
    }
    rows = [("price", price, ci / 1.96)]
    summary = f"price={price:.6g} +/-{ci:.3g} (95% ci, {config.payoff.kind.value})"
    return results, ("metric", "value", "se"), rows, summary


_DISPATCH = {
    "check": _run_check,
    "simulate": _run_simulate,
    "convergence": _run_convergence,
    "moments": _run_moments,
    "negativity": _run_negativity,
    "price": _run_price,
}


def run(config: RunConfig) -> int:
    """Execute the configured experiment, write its artifact, print a one-line
    summary.  Returns the process exit code."""
    try:
        results, header, rows, summary = _DISPATCH[config.experiment](config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CevlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # never panic on user input
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3

    if config.out_format == "csv":
        text = _csv_text(header, rows)
    else:
        document = {
            "experiment": config.experiment,
            "provenance": _provenance(config),
            "results": results,
        }
        text = _json_dumps(document) + "\n"
    try:
        with open(config.out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output file: {exc}", file=sys.stderr)
        return 3
    print(f"{summary} -> {config.out_path}")
    return 0


# ---------------------------------------------------------------------------
# argv handling
# ---------------------------------------------------------------------------


def _parse_argv(
    argv: Sequence[str],
) -> tuple[str | None, str | None, dict[str, str], bool]:
    experiment: str | None = None
    config_path: str | None = None
    overrides: dict[str, str] = {}
    dry_run = False
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("-h", "--help"):
            raise _UsageError("")
        if arg == "--dry-run":
            dry_run = True
        elif arg == "--config" or arg.startswith("--config="):
            if arg == "--config":
                i += 1
                if i >= len(argv):
                    raise _UsageError("--config requires a file path")
                config_path = argv[i]
            else:
                config_path = arg.partition("=")[2]
            if not config_path:
                raise _UsageError("--config requires a file path")
        elif arg.startswith("--"):
            name, sep, value = arg[2:].partition("=")
            if not sep:
                raise _UsageError(f"flag {arg!r} must use the --name=value form")
            overrides[name] = value
        elif experiment is None:
            experiment = arg
        else:
            raise _UsageError(f"unexpected positional argument {arg!r}")
        i += 1
    return experiment, config_path, overrides, dry_run


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the exit code instead of raising SystemExit."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        experiment, config_path, overrides, dry_run = _parse_argv(argv)
    except _UsageError as exc:
        stream = sys.stdout if not str(exc) else sys.stderr
        if str(exc):
            print(f"error: {exc}", file=stream)
        print(_USAGE, file=stream)
        return 0 if not str(exc) else 1

    text = ""
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read config file: {exc}", file=sys.stderr)
            return 1
    if experiment is not None:
        overrides = {**overrides, "run.experiment": experiment}

    try:
        config = parse_config(text, overrides)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_USAGE, file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if dry_run:
        document = {"resolved_config": config.flat_items(), "version": __version__}
        print(_json_dumps(document))
        return 0
    return run(config)
