"""Command-line front end.

    cevlab <experiment> [--config FILE] [--dry-run] [--section.key=value ...]

Experiments: check, simulate, convergence, moments, negativity, price.
Values come from the flat key=value config file; ``--section.key=value``
flags override file entries (e.g. ``--model.k=2 --grid.n_steps=128``,
``--out=report.json``), under the file's rules (``config``).  Exit codes:
0 success, 1 usage/parse error, 2 validation error, 3 runtime numerical or
I/O error.

``_run_<experiment>``, one per experiment, runs it and returns its whole
artifact: the JSON ``results``, the CSV header and body lines, and the
summary line.  Artifacts are written piece by piece, never held whole.
Numeric arrays (the trajectory CSV, and ``times``, ``paths`` and
``z_negative`` in JSON) are formatted ``_BLOCK_CELLS`` cells at a time by
``_text``, in this process.  An artifact whose write fails or is
interrupted is removed if it is a regular file.

Every CSV line follows one rule, ``_csv_line``'s: cells joined by ``,``, a
float as ``format_float`` writes it, anything else as ``str``, and a CRLF
ending.  No cell is ever quoted: names and numbers hold no comma, quote or
line break, so each line is the one ``csv.writer`` would write.

This module imports no numpy.  Parsing, validation, ``check``, ``--dry-run``
and ``--help`` run on scalar ``math`` alone; the numpy engine
(``experiments``, and ``_text`` for arrays) is imported by the ``_run_*``
adapters that simulate, and by the writers when they meet an array.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence, TextIO,
)

from . import __version__
from .config import EXPERIMENTS, FLAG_TO_KEY, RunConfig, parse_config
from .errors import CevlabError, ParseError, ValidationError
from .model import format_float as _format_float, validate_assumption_a

if TYPE_CHECKING:
    import numpy as np

__all__ = ["main", "run"]

_USAGE = (
    "usage: cevlab <experiment> [--config FILE] [--dry-run] "
    "[--section.key=value ...]\n"
    f"experiments: {', '.join(EXPERIMENTS)}\n"
    f"flags: {' '.join(f'--{flag}' for flag in FLAG_TO_KEY)}"
)


class _UsageError(Exception):
    pass


# Cells of an array formatted at a time.  Formatting holds a few dozen
# bytes per cell in temporaries; kept small, they stay on the heap.
_BLOCK_CELLS = 4096


# ---------------------------------------------------------------------------
# JSON emission with fixed 17-significant-digit floats
# ---------------------------------------------------------------------------


def _tiles(n_rows: int, n_cols: int) -> Iterator[tuple[int, int, int, int]]:
    """``(r0, r1, c0, c1)`` tiles of an n_rows x n_cols array in row-major
    order, at most ``_BLOCK_CELLS`` cells each: whole rows where a row fits,
    else pieces of one row."""
    width = max(1, min(n_cols, _BLOCK_CELLS))
    height = max(1, _BLOCK_CELLS // width)
    for r0 in range(0, n_rows, height):
        for c0 in range(0, max(n_cols, 1), width):
            yield r0, min(r0 + height, n_rows), c0, min(c0 + width, n_cols)


def _json_rows(
    arr: np.ndarray, first: str, sep: str, write: Callable[[str], object]
) -> None:
    """Pass the rows of a 2-D array to ``write``: row 0 led by ``first``, the
    others by ``sep``, each followed by its cells joined by ``", "``."""
    import numpy as np

    from . import _text

    leads = _text.literals([first, sep])
    cell_sep = _text.literals(["", ", "])  # before a row's first cell, before the rest
    for r0, r1, c0, c1 in _tiles(*arr.shape):
        row_parts = [leads[np.minimum(np.arange(r0, r1), 1)]] if c0 == 0 else []
        seps = cell_sep[np.minimum(np.arange(c0, c1), 1)]
        write(_text.join(row_parts, [seps, _text.cells(arr[r0:r1, c0:c1])]))


def _fields(obj: object) -> Mapping[str, object]:
    """A dataclass instance as the mapping of its fields in declaration
    order, values uncopied; anything else as itself."""
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return obj


def _json_dumps(obj: object, write: Callable[[str], object], indent: int = 0) -> None:
    """Minimal JSON writer: pass the text of ``obj``, nested ``indent`` levels
    deep, to ``write`` piece by piece.  Floats carry 17 significant digits,
    so every value round-trips bit-for-bit through json.loads.

    A dataclass instance is written as the mapping of its fields.  A numeric
    array is written ``_BLOCK_CELLS`` cells at a time, never as one string
    per enclosing container; numpy is imported only for a value that is no
    scalar, mapping or sequence.
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
            _json_dumps(val, write, indent + 1)
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
            _json_dumps(val, write, indent + 1)
            first = sep
        write(last)
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
        import numpy as np

        if not isinstance(obj, np.ndarray):
            raise TypeError(f"cannot serialize {type(obj)!r}")
        if obj.dtype.kind not in "fiu" or obj.ndim not in (1, 2):
            raise TypeError(f"cannot serialize {obj.ndim}-D {obj.dtype} array")
        if obj.ndim == 1:
            _json_rows(obj[None], "[", "", write)
            write("]")
        elif len(obj) == 0:
            write("[]")
        else:
            _json_rows(obj, "[\n" + inner + "[", "],\n" + inner + "[", write)
            write("]\n" + pad + "]")


# ---------------------------------------------------------------------------
# experiment dispatch
# ---------------------------------------------------------------------------


def _csv_line(cells: Iterable[object]) -> str:
    """The CSV line of ``cells``: the one rule of every line (module docs)."""
    return ",".join(
        _format_float(c) if isinstance(c, float) else str(c) for c in cells) + "\r\n"


def _trajectory_lines(
    times: np.ndarray, values: np.ndarray, events: np.ndarray
) -> Iterator[str]:
    """``path,step,time,value,z_negative`` lines of the paths ``values`` and
    ``events`` (n_paths, n+1) at ``times`` (n+1,), one per (path, step),
    yielded ``_BLOCK_CELLS`` cells at a time."""
    import numpy as np

    from . import _text

    comma, crlf = _text.literals([","]), _text.literals(["\r\n"])
    steps: dict[int, np.ndarray] = {}  # ",step,time," cells by column tile
    for r0, r1, c0, c1 in _tiles(*values.shape):
        if c0 not in steps:  # the same for every path: formatted once
            steps[c0] = _text.concat([
                comma, _text.cells(np.arange(c0, c1)), comma,
                _text.cells(times[c0:c1]), comma])
        yield _text.join([], [
            _text.cells(np.arange(r0, r1))[:, None], steps[c0],
            _text.cells(values[r0:r1, c0:c1]), comma,
            _text.cells(events[r0:r1, c0:c1]), crlf])


def _csv_text(header: Sequence[str], lines: Iterable[str], buf: TextIO) -> None:
    """Write the CSV line of ``header``, then ``lines``, into ``buf``, a text
    file or ``io.StringIO``, piece by piece."""
    buf.write(_csv_line(header))
    for line in lines:
        buf.write(line)
        del line  # a block's text is freed before the next one is formatted


_METRIC_HEADER = ("metric", "value", "se")


def _metric_rows(result: object, se: Mapping[str, str] = {}) -> list[str]:
    """One ``metric,value,se`` line per field of ``result``; ``se`` maps a
    metric to the field holding its standard error, which gets no line."""
    fields = _fields(result)
    return [_csv_line((name, float(value), fields[se[name]] if name in se else 0.0))
            for name, value in fields.items() if name not in se.values()]


# Each ``_run_<experiment>`` returns its artifact: the JSON ``results``, the
# CSV header and body lines, and the stdout summary line.  The adapters that
# simulate import the engine when called, and call it by module attribute,
# so a wrapper bound over an experiment sees the call.
def _run_check(config: RunConfig):
    r = validate_assumption_a(config.params, config.grid.dt)
    return r, _METRIC_HEADER, _metric_rows(r), (
        f"feasible={str(r.feasible).lower()} "
        f"max_step={r.max_step:.6g} margin={r.margin:.6g}")


def _run_simulate(config: RunConfig):
    from . import experiments

    values, events, stats = experiments.simulate_paths_batch(
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
    header = ("path", "step", "time", "value", "z_negative")
    return results, header, _trajectory_lines(times, values, events), (
        "simulated {n_paths} paths x {n_steps} steps ({scheme}): min={min_value:.6g} "
        "sign_flips={sign_flip_count} clamps={clamp_count}".format_map(results))


def _run_convergence(config: RunConfig):
    from . import experiments

    r = experiments.strong_error(
        config.params, config.scheme, config.grid, config.levels, config.n_paths,
        config.seed,
    )
    rows = [_csv_line(_fields(rec).values()) for rec in r.levels]
    return r, ("level", "dt", "mse", "rmse", "ci95"), rows, (
        f"fitted_order={r.fitted_order:.4f} (r2={r.fit_r2:.4f}, "
        f"theoretical>={r.theoretical_order:.4g}) over {len(r.levels)} levels")


def _run_moments(config: RunConfig):
    from . import experiments

    r = experiments.moment_check(
        config.params, config.scheme, config.grid, config.n_paths, config.seed
    )
    rows = _metric_rows(
        r, {"sample_mean": "se_mean", "sample_second_moment": "se_second"})
    return r, _METRIC_HEADER, rows, (
        f"sample_mean={r.sample_mean:.6g} (se={r.se_mean:.3g}) "
        f"analytic={r.analytic_mean:.6g} |err|={r.abs_mean_error:.3g}")


def _run_negativity(config: RunConfig):
    from . import experiments

    r = experiments.negativity_stats(
        config.params, config.grid, config.n_paths, config.seed
    )
    return r, _METRIC_HEADER, _metric_rows(r), (
        f"events={r.z_negative_events}/{r.total_steps} "
        f"clamps={r.clamp_events} max_prob={r.max_step_negativity_prob:.3g}")


def _run_price(config: RunConfig):
    from . import experiments

    price, ci = experiments.price_payoff(
        config.params, config.payoff, config.grid, config.n_paths, config.seed
    )
    results = {
        "payoff": config.payoff.kind.value,
        "strike": config.payoff.strike,
        "price": price,
        "ci_halfwidth": ci,
    }
    return results, _METRIC_HEADER, [_csv_line(("price", price, ci / 1.96))], (
        f"price={price:.6g} +/-{ci:.3g} (95% ci, {results['payoff']})")


def _remove_partial(path: str) -> None:
    """Remove the regular file at ``path``, an artifact whose write failed or
    was cut short, so that no provenance block is left for an incomplete run."""
    path = os.path.realpath(path)  # through a link, the file it points to
    try:
        if os.path.isfile(path):
            os.unlink(path)
    except OSError:
        pass


def run(config: RunConfig) -> int:
    """Execute the configured experiment, write its artifact, print a one-line
    summary.  Returns the process exit code."""
    try:
        # by name when called, so a wrapper bound over ``_run_*`` sees the run
        results, header, lines, summary = globals()[f"_run_{config.experiment}"](config)
    except CevlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 3
    except Exception as exc:  # never panic on user input
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3

    # serialized straight into the file: each piece is encoded as it is
    # written, so no copy of the whole document is ever held
    opened = False
    try:
        with open(config.out_path, "w", encoding="utf-8", newline="") as fh:
            opened = True
            if config.out_format == "csv":
                _csv_text(header, lines, fh)
            else:
                document = {
                    "experiment": config.experiment,
                    "provenance": {"config": config.flat_items(),
                                   "master_seed": config.seed, "version": __version__},
                    "results": results,
                }
                _json_dumps(document, fh.write)
                fh.write("\n")
    except BaseException as exc:  # an interrupt too: no partial artifact is left
        if opened:
            _remove_partial(config.out_path)
        if isinstance(exc, OSError):
            print(f"error: cannot write output file: {exc}", file=sys.stderr)
        elif isinstance(exc, Exception):
            print(f"internal error: {exc!r}", file=sys.stderr)
        else:
            raise
        return 3
    print(f"{summary} -> {config.out_path}")
    return 0


# ---------------------------------------------------------------------------
# argv handling
# ---------------------------------------------------------------------------


def _parse_argv(
    argv: Sequence[str],
) -> tuple[str | None, str | None, dict[str, str], bool]:
    """(experiment, config path, dotted overrides, dry run) of ``argv``.

    A repeated dotted flag keeps its last value.  A second ``--config``, and
    a positional experiment that names another experiment than
    ``--run.experiment``, are usage errors: one of the two would be ignored.
    """
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
            if config_path is not None:
                raise _UsageError("--config may be given only once")
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
    flagged = overrides.get("run.experiment")
    if (experiment is not None and flagged is not None
            and experiment.strip().lower() != flagged.strip().lower()):
        raise _UsageError(
            f"experiment {experiment!r} disagrees with --run.experiment={flagged}"
        )
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
            with open(config_path, "r", encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
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
        _json_dumps(document, sys.stdout.write)
        print()
        return 0
    return run(config)
