"""Command-line front end.

    cevlab <experiment> [--config FILE] [--dry-run] [--section.key=value ...]

Experiments: check, simulate, convergence, moments, negativity, price.
Values come from the flat key=value config file; ``--section.key=value``
flags override file entries (e.g. ``--model.k=2 --grid.n_steps=128``,
``--out=report.json``).  Exit codes: 0 success, 1 usage/parse error,
2 validation error, 3 runtime numerical or I/O error.

Artifacts are written piece by piece, never held whole.  The rows of a
2-D array (the trajectory CSV, and ``paths`` and ``z_negative`` in JSON)
are formatted in worker processes by the block runner that simulates the
paths (``experiments._map_blocks``), one block of rows per worker, each
into an unnamed temporary file that is then copied into the artifact in
order; so while an artifact is written, its parts take its size again in
the default temporary directory.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys
import tempfile
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from . import __version__
from .config import EXPERIMENTS, RunConfig, parse_config
from .errors import CevlabError, ParseError, ValidationError
from .experiments import (
    _map_blocks,
    _resolve_workers,
    _split,
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


# Bytes of a formatted part copied into the artifact at a time.  Each copy
# is held as bytes, as text and as encoded text at once, so it stays small.
_COPY_BYTES = 64 * 1024


# ---------------------------------------------------------------------------
# JSON emission with fixed 17-significant-digit floats
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _row_texts(block: np.ndarray, sep: str) -> Iterator[str]:
    """The rows of a 2-D numeric array, each as its cells joined by ``sep``,
    each cell written exactly as ``_format_float`` (floats) or ``str``
    (integers) writes it.

    Finite rows take one C-level ``%`` call, with one format string and one
    finiteness check per block; ``"%.17g"`` and ``format(x, ".17g")`` agree
    on every finite double.  A row holding NaN or an infinity goes cell by
    cell, so its ``NaN`` / ``Infinity`` tokens survive.
    """
    if block.dtype.kind == "f":
        finite = np.isfinite(block).all(axis=1).tolist()
        cell = "%.17g"
    else:
        finite = [True] * len(block)
        cell = "%d"
    line = sep.join([cell] * block.shape[1])
    for row, ok in zip(block, finite):
        cells = row.tolist()
        yield line % tuple(cells) if ok else sep.join(map(_format_float, cells))


def _row_text(row: np.ndarray, sep: str) -> str:
    """``_row_texts`` of a 1-D numeric array."""
    return next(_row_texts(row.reshape(1, -1), sep))


def _write_rows(
    n_rows: int,
    rows: Callable[[int, int, Callable[[str], object]], None],
    write: Callable[[str], object],
) -> None:
    """Pass the text of rows 0..n_rows-1 to ``write``, formatted in parallel.

    ``rows(start, stop, out)`` passes the text of rows [start, stop) to
    ``out``.  The rows are cut into one block per worker and formatted by
    ``_map_blocks``.  Each block writes its text into its own unnamed
    temporary file, opened here before any worker is forked, through a UTF-8
    text wrapper of its own.  The parts are then copied to ``write`` in
    block order, ``_COPY_BYTES`` at a time, so no part is ever held whole in
    memory; while they exist they take the text's size again in the default
    temporary directory.  If a block fails, its exception is raised (a
    ChildProcessError for a worker that died) and nothing is passed to
    ``write``.
    """
    blocks = _split(n_rows, _resolve_workers())
    with contextlib.ExitStack() as stack:
        parts = [stack.enter_context(tempfile.TemporaryFile(buffering=0)) for _ in blocks]
        fds = {block: part.fileno() for block, part in zip(blocks, parts)}

        def work(block: tuple[int, int]) -> None:
            text = os.fdopen(fds[block], "w", encoding="utf-8", newline="", closefd=False)
            with text:
                rows(*block, text.write)

        _map_blocks(work, blocks)
        decode = codecs.getincrementaldecoder("utf-8")().decode
        for part in parts:
            part.seek(0)
            while chunk := part.read(_COPY_BYTES):
                write(decode(chunk))


def _json_dumps(
    obj: object, write: Callable[[str], object] | None = None
) -> str | None:
    """Minimal JSON writer; floats carry 17 significant digits so every value
    round-trips bit-for-bit through json.loads.  Returns the text, or passes
    it to ``write`` piece by piece and returns None."""
    if write is not None:
        _json_pieces(obj, 0, write)
        return None
    pieces: list[str] = []
    _json_pieces(obj, 0, pieces.append)
    return "".join(pieces)


def _fields(obj: object) -> Mapping[str, object]:
    """A dataclass instance as the mapping of its fields in declaration
    order, values uncopied; anything else as itself."""
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return obj


def _json_pieces(obj: object, indent: int, write: Callable[[str], object]) -> None:
    """Pass the text of ``obj`` to ``write`` piece by piece.

    A dataclass instance is written as the mapping of its fields.  A large
    array is written one row at a time, never as one string per enclosing
    container; the rows of a 2-D array are formatted by ``_write_rows``.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    obj = _fields(obj)
    if isinstance(obj, Mapping):
        if not obj:
            write("{}")
            return
        sep = "{\n"
        for key, val in obj.items():
            write(f'{sep}{inner}"{key}": ')
            _json_pieces(val, indent + 1, write)
            sep = ",\n"
        write("\n" + pad + "}")
        return
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            write("[]")
            return
        if not any(isinstance(_fields(v), (Mapping, list, tuple)) for v in obj):
            first, sep, last = "[", ", ", "]"
        else:
            first, sep, last = "[\n" + inner, ",\n" + inner, "\n" + pad + "]"
        for val in obj:
            write(first)
            _json_pieces(val, indent + 1, write)
            first = sep
        write(last)
        return
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind not in "fiu" or obj.ndim not in (1, 2):
            raise TypeError(f"cannot serialize {obj.ndim}-D {obj.dtype} array")
        if obj.ndim == 1:
            write("[" + _row_text(obj, ", ") + "]")
            return
        if len(obj) == 0:
            write("[]")
            return
        first, sep = "[\n" + inner + "[", "],\n" + inner + "["

        def rows(start: int, stop: int, out: Callable[[str], object]) -> None:
            for i, text in enumerate(_row_texts(obj[start:stop], ", "), start):
                out((sep if i else first) + text)

        _write_rows(len(obj), rows, write)
        write("]\n" + pad + "]")
        return
    if isinstance(obj, bool):
        write("true" if obj else "false")
    elif isinstance(obj, int):
        write(str(obj))
    elif isinstance(obj, float):
        write(_format_float(obj))
    elif isinstance(obj, str):
        write(json.dumps(obj, ensure_ascii=False))
    elif obj is None:
        write("null")
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


def _trajectory_csv(buf: TextIO, traj: _Trajectories) -> None:
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

    def rows(start: int, stop: int, out: Callable[[str], object]) -> None:
        cells = [0, 0.0, 0] * len(traj.times)
        values, events = traj.values[start:stop], traj.events[start:stop]
        finite = np.isfinite(values).all(axis=1).tolist()
        for p, row, flags, ok in zip(range(start, stop), values, events, finite):
            cells[0::3] = [p] * len(row)
            cells[2::3] = flags.tolist()
            if ok:
                cells[1::3] = row.tolist()
                out(steps % tuple(cells))
            else:
                cells[1::3] = [_format_float(v) for v in row.tolist()]
                out(steps_nonfinite % tuple(cells))

    _write_rows(len(traj.values), rows, buf.write)


def _csv_text(
    header: Sequence[str],
    rows: Sequence[Sequence[object]] | _Trajectories,
    buf: TextIO,
) -> None:
    """Write the CSV text of ``rows`` under ``header`` into ``buf``, a text
    file or ``io.StringIO``, piece by piece."""
    writer = csv.writer(buf)  # RFC-4180 CRLF line endings by default
    writer.writerow(header)
    if isinstance(rows, _Trajectories):
        _trajectory_csv(buf, rows)
    else:
        for row in rows:
            writer.writerow(
                [_format_float(c) if isinstance(c, float) else c for c in row]
            )


def _run_check(config: RunConfig):
    return validate_assumption_a(config.params, config.grid.dt)


def _run_simulate(config: RunConfig):
    values, events, stats = simulate_paths_batch(
        config.scheme, config.params, config.grid, config.n_paths, config.seed
    )
    return {
        "n_paths": config.n_paths,
        "n_steps": config.grid.n_steps,
        "scheme": config.scheme.value,
        "sign_flip_count": stats.sign_flip_count,
        "clamp_count": stats.clamp_count,
        "min_value": stats.min_value,
        "times": config.grid.times(),
        "paths": values,
        "z_negative": events,
    }


def _run_convergence(config: RunConfig):
    return strong_error(
        config.params, config.scheme, config.grid, config.levels, config.n_paths,
        config.seed,
    )


def _run_moments(config: RunConfig):
    return moment_check(
        config.params, config.scheme, config.grid, config.n_paths, config.seed
    )


def _run_negativity(config: RunConfig):
    return negativity_stats(config.params, config.grid, config.n_paths, config.seed)


def _run_price(config: RunConfig):
    price, ci = price_payoff(
        config.params, config.payoff, config.grid, config.n_paths, config.seed
    )
    return {
        "payoff": config.payoff.kind.value,
        "strike": config.payoff.strike,
        "price": price,
        "ci_halfwidth": ci,
    }


def _metric_rows(result: object, se: Mapping[str, str] = {}) -> list[tuple]:
    """One ``(metric, value, se)`` row per field of ``result``; ``se`` maps a
    metric to the field holding its standard error, which gets no row."""
    fields = _fields(result)
    return [(name, float(value), fields[se[name]] if name in se else 0.0)
            for name, value in fields.items() if name not in se.values()]


# What the result of ``_run_<experiment>`` becomes: the JSON ``results`` is
# the result itself, the row rule makes the CSV rows under the header, and
# the summary rule makes the stdout line.
_METRIC_HEADER = ("metric", "value", "se")
_ARTIFACTS = {  # experiment: (CSV header, row rule, summary rule)
    "check": (
        _METRIC_HEADER, _metric_rows,
        lambda r: f"feasible={str(r.feasible).lower()} "
        f"max_step={r.max_step:.6g} margin={r.margin:.6g}"),
    "simulate": (
        ("path", "step", "time", "value", "z_negative"),
        lambda r: _Trajectories(r["times"], r["paths"], r["z_negative"]),
        "simulated {n_paths} paths x {n_steps} steps ({scheme}): min={min_value:.6g} "
        "sign_flips={sign_flip_count} clamps={clamp_count}".format_map),
    "convergence": (
        ("level", "dt", "mse", "rmse", "ci95"),
        lambda r: [tuple(_fields(rec).values()) for rec in r.levels],
        lambda r: f"fitted_order={r.fitted_order:.4f} (r2={r.fit_r2:.4f}, "
        f"theoretical>={r.theoretical_order:.4g}) over {len(r.levels)} levels"),
    "moments": (
        _METRIC_HEADER,
        lambda r: _metric_rows(
            r, {"sample_mean": "se_mean", "sample_second_moment": "se_second"}),
        lambda r: f"sample_mean={r.sample_mean:.6g} (se={r.se_mean:.3g}) "
        f"analytic={r.analytic_mean:.6g} |err|={r.abs_mean_error:.3g}"),
    "negativity": (
        _METRIC_HEADER, _metric_rows,
        lambda r: f"events={r.z_negative_events}/{r.total_steps} "
        f"clamps={r.clamp_events} max_prob={r.max_step_negativity_prob:.3g}"),
    "price": (
        _METRIC_HEADER,
        lambda r: [("price", r["price"], r["ci_halfwidth"] / 1.96)],
        "price={price:.6g} +/-{ci_halfwidth:.3g} (95% ci, {payoff})".format_map),
}


def run(config: RunConfig) -> int:
    """Execute the configured experiment, write its artifact, print a one-line
    summary.  Returns the process exit code."""
    try:
        header, rows, summary = _ARTIFACTS[config.experiment]
        # by name when called, so a wrapper bound over ``_run_*`` sees the run
        result = globals()[f"_run_{config.experiment}"](config)
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
        table = rows(result)
    else:
        document = {
            "experiment": config.experiment,
            "provenance": _provenance(config),
            "results": result,
        }
    # serialized straight into the file: each piece is encoded as it is
    # written, so no copy of the whole document is ever held; the workers
    # format the rows of 2-D arrays into temporary parts, copied in here
    try:
        with open(config.out_path, "w", encoding="utf-8", newline="") as fh:
            if config.out_format == "csv":
                _csv_text(header, table, fh)
            else:
                _json_dumps(document, fh.write)
                fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write output file: {exc}", file=sys.stderr)
        return 3
    print(f"{summary(result)} -> {config.out_path}")
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
