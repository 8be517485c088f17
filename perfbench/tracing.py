"""Outside-in layer tracing for the cevlab CLI.

``install`` wraps the calls into each layer with span recorders, from this
file, without editing the program.  A span is (name, layer, start, end,
parent, thread, items, bytes); calls made once per path are only counted.
Spans and counts stay in memory and ``Recorder.dump`` writes them to a file
once the traced process is done.  ``layer_metrics``
turns the spans of one round into the per-layer metrics.

A wrapped name that no longer exists is reported as absent; the metrics
derived from it read 0 and are listed by ``absent_metrics``.
"""

from __future__ import annotations

import builtins
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable

# (span name, layer, module that defines it, attribute, counter)
# The counter maps (args, result) to (items, bytes) worked on by the call.
TARGETS: list[tuple[str, str, str, str, Callable | None]] = [
    ("parse_config", "config", "cevlab.config", "parse_config", None),
    ("increment_block", "brownian", "cevlab.experiments", "_increment_block",
     lambda args, res: (res.size, res.nbytes)),
    ("generator", "brownian", "cevlab.brownian", "_generator", None),
    ("block_sums", "brownian", "cevlab.brownian", "_block_sums",
     lambda args, res: (args[0].size, args[0].nbytes)),
    ("step_block", "schemes", "cevlab.schemes", "_step_block",
     lambda args, res: (res[0].size, 0)),
    ("run_block", "experiments", "cevlab.experiments", "_run_block", None),
    ("map_blocks", "experiments", "cevlab.experiments", "_map_blocks", None),
    ("strong_error", "experiments", "cevlab.experiments", "strong_error", None),
    ("moment_check", "experiments", "cevlab.experiments", "moment_check", None),
    ("negativity_stats", "experiments", "cevlab.experiments", "negativity_stats", None),
    ("price_payoff", "experiments", "cevlab.experiments", "price_payoff", None),
    ("simulate_paths_batch", "experiments", "cevlab.experiments",
     "simulate_paths_batch", None),
    ("run_adapter", "cli", "cevlab.cli", "_run_*", None),
    ("csv_text", "cli", "cevlab.cli", "_csv_text", None),
    ("json_dumps", "cli", "cevlab.cli", "_json_dumps", None),
]
# Recursive serializers: only the outermost call is a span.
_OUTERMOST_ONLY = {"json_dumps"}
# Called once per path: counted, not spanned (a span each would cost more
# than the Philox set-up it times; the time is in the increment_block span).
_COUNT_ONLY = {"generator"}
ENTRY_POINTS = {"strong_error", "moment_check", "negativity_stats", "price_payoff",
                "simulate_paths_batch"}
# The artifact write inside cli.run, wrapped through the module's ``open``.
WRITE = "write"
FIELDS = ("name", "layer", "start", "end", "parent", "thread", "items", "bytes")


class Recorder:
    """In-memory span store; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: dict[str, itertools.count] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str, parent: int | None = None) -> int:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, layer, time.perf_counter(), None, parent,
                               threading.get_ident(), 0, 0])
        stack.append(sid)
        return sid

    def end(self, sid: int, items: int = 0, nbytes: int = 0) -> None:
        span = self.spans[sid]
        span[3] = time.perf_counter()
        span[6], span[7] = int(items), int(nbytes)
        self._stack().pop()

    def dump(self, path: str, absent: list[str]) -> None:
        """Write the spans as rows under a ``fields`` header.  ``json.dumps``
        (one string, C encoder) is several times faster than ``json.dump``."""
        calls = {name: next(counter) for name, counter in self.calls.items()}
        text = json.dumps({"absent": absent, "calls": calls, "fields": FIELDS,
                           "spans": self.spans})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _wrap(rec: Recorder, name: str, layer: str, fn: Callable, counter) -> Callable:
    def traced(*args, **kwargs):
        sid = rec.begin(name, layer)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            items, nbytes = 0, 0
            if counter is not None and result is not None:
                try:
                    items, nbytes = counter(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass
            rec.end(sid, items, nbytes)

    return traced


def _count_calls(rec: Recorder, name: str, fn: Callable) -> Callable:
    counter = rec.calls.setdefault(name, itertools.count())

    def counted(*args, **kwargs):
        next(counter)  # atomic under the GIL, so safe from worker threads
        return fn(*args, **kwargs)

    return counted


def _wrap_map(rec: Recorder, fn: Callable) -> Callable:
    """_map_blocks(work, ...): each block's work becomes a span whose parent
    is the map span, whichever worker thread runs it."""

    def traced(work, *args, **kwargs):
        sid = rec.begin("map_blocks", "experiments")

        def traced_work(block):
            wid = rec.begin("block_work", "experiments", parent=sid)
            try:
                return work(block)
            finally:
                rec.end(wid)

        try:
            return fn(traced_work, *args, **kwargs)
        finally:
            rec.end(sid)

    return traced


def _cevlab_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if (n == "cevlab" or n.startswith("cevlab.")) and m is not None]


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every module-level name (and dispatch-table entry) that refers
    to ``original``, so calls through ``from x import y`` copies are caught."""
    for mod in _cevlab_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def _outermost_only(rec: Recorder, name: str, layer: str, fn: Callable) -> Callable:
    """Record only the outermost call; nested calls go straight to ``fn``
    (the wrapper rebinds the original while it runs, so recursion through the
    module global costs nothing extra)."""

    def traced(*args, **kwargs):
        sid = rec.begin(name, layer)
        _replace_everywhere(traced, fn)
        try:
            return fn(*args, **kwargs)
        finally:
            _replace_everywhere(fn, traced)
            rec.end(sid)

    return traced


class _TracedFile:
    """An open artifact whose span ends when the file is closed."""

    def __init__(self, rec: Recorder, sid: int, path, fh) -> None:
        self._rec, self._sid, self._path, self._fh = rec, sid, path, fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.__exit__(*exc)
        self._finish()
        return False

    def close(self) -> None:
        self._fh.close()
        self._finish()

    def _finish(self) -> None:
        if self._sid is not None:
            sid, self._sid = self._sid, None
            self._rec.end(sid)
            self._rec.spans[sid][7] = os.path.getsize(self._path)

    def __getattr__(self, attr):
        return getattr(self._fh, attr)


def _traced_open(rec: Recorder) -> Callable:
    def traced_open(file, mode="r", *args, **kwargs):
        if not any(c in mode for c in "wax"):
            return builtins.open(file, mode, *args, **kwargs)
        sid = rec.begin(WRITE, "cli")
        try:
            fh = builtins.open(file, mode, *args, **kwargs)
        except BaseException:
            rec.end(sid)
            raise
        return _TracedFile(rec, sid, file, fh)

    return traced_open


def install(rec: Recorder) -> list[str]:
    """Wrap every target present in the imported ``cevlab``; return the span
    names that could not be wrapped."""
    cli = importlib.import_module("cevlab.cli")
    absent = []
    for name, layer, module, attr, counter in TARGETS:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            absent.append(name)
            continue
        if attr.endswith("*"):
            found = [getattr(mod, a) for a in dir(mod)
                     if a.startswith(attr[:-1]) and callable(getattr(mod, a))]
        else:
            found = [getattr(mod, attr)] if callable(getattr(mod, attr, None)) else []
        if not found:
            absent.append(name)
        for fn in found:
            if name == "map_blocks":
                traced = _wrap_map(rec, fn)
            elif name in _OUTERMOST_ONLY:
                traced = _outermost_only(rec, name, layer, fn)
            elif name in _COUNT_ONLY:
                traced = _count_calls(rec, name, fn)
            else:
                traced = _wrap(rec, name, layer, fn, counter)
            _replace_everywhere(fn, traced)
    cli.open = _traced_open(rec)
    return absent


# ---------------------------------------------------------------------------
# derivation of the per-layer metrics
# ---------------------------------------------------------------------------

# metric -> (unit, span names it is derived from)
PER_LAYER: dict[str, tuple[str, tuple[str, ...]]] = {
    "brownian.noise_s": ("s", ("increment_block",)),
    "brownian.draws": ("count", ("increment_block",)),
    "brownian.draws_per_s": ("1/s", ("increment_block",)),
    "brownian.streams": ("count", ("generator",)),
    "brownian.noise_bytes": ("B", ("increment_block",)),
    "brownian.coarsen_s": ("s", ("block_sums",)),
    "brownian.coarsen_bytes": ("B", ("block_sums",)),
    "brownian.coarsen_gb_per_s": ("GB/s", ("block_sums",)),
    "schemes.kernel_s": ("s", ("step_block",)),
    "schemes.kernel_calls": ("count", ("step_block",)),
    "schemes.path_steps": ("count", ("step_block",)),
    "schemes.path_steps_per_s": ("1/s", ("step_block",)),
    "experiments.block_self_s": ("s", ("run_block",)),
    "experiments.blocks": ("count", ("run_block",)),
    "experiments.reduce_s": ("s", tuple(sorted(ENTRY_POINTS))),
    "experiments.map_wall_s": ("s", ("map_blocks",)),
    "experiments.workers": ("count", ("map_blocks",)),
    "experiments.parallel_efficiency": ("ratio", ("map_blocks",)),
    "config.parse_s": ("s", ("parse_config",)),
    "cli.adapt_s": ("s", ("run_adapter",)),
    "cli.serialize_s": ("s", ("csv_text", "json_dumps")),
    "cli.write_s": ("s", (WRITE,)),
    "cli.artifact_bytes": ("B", (WRITE,)),
    "cli.emit_mb_per_s": ("MB/s", ("csv_text", "json_dumps", WRITE)),
    "trace.overhead_s": ("s", ()),
    "trace.unattributed_share": ("ratio", ()),
}


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(processes: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``processes`` holds the dumped span documents of the round's CLI
    processes; ``wall_s`` is their summed spawn-to-exit wall time.  Span
    times are summed over threads, so on a parallel workload a layer's time
    is busy time, which can exceed wall time.
    """
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {}
    items: dict[str, int] = {}
    nbytes: dict[str, int] = {}
    calls: dict[str, int] = {}
    covered = 0.0
    map_capacity = 0.0
    block_busy = 0.0
    workers = 0
    for doc in processes:
        spans = [dict(zip(doc["fields"], row)) for row in doc["spans"]]
        for name, n in doc["calls"].items():
            calls[name] = calls.get(name, 0) + n
        children: dict[int, list[int]] = {}
        for sid, s in enumerate(spans):
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(sid)
        for sid, s in enumerate(spans):
            if s["end"] is None:
                continue
            name, d = s["name"], s["end"] - s["start"]
            kids = [(spans[c]["start"], spans[c]["end"]) for c in children.get(sid, ())
                    if spans[c]["end"] is not None]
            dur[name] = dur.get(name, 0.0) + d
            self_s[name] = self_s.get(name, 0.0) + d - _covered(kids, s["start"], s["end"])
            items[name] = items.get(name, 0) + s["items"]
            nbytes[name] = nbytes.get(name, 0) + s["bytes"]
            calls[name] = calls.get(name, 0) + 1
            if s["parent"] is None:
                covered += d
            if name == "map_blocks":
                threads = {spans[c]["thread"] for c in children.get(sid, ())}
                workers = max(workers, len(threads))
                map_capacity += d * max(len(threads), 1)
                block_busy += sum(b - a for a, b in kids)
    serialize = dur.get("csv_text", 0.0) + dur.get("json_dumps", 0.0)
    write = dur.get(WRITE, 0.0)
    noise = dur.get("increment_block", 0.0)
    coarsen = dur.get("block_sums", 0.0)
    kernel = dur.get("step_block", 0.0)
    return {
        "brownian.noise_s": noise,
        "brownian.draws": items.get("increment_block", 0),
        "brownian.draws_per_s": _ratio(items.get("increment_block", 0), noise),
        "brownian.streams": calls.get("generator", 0),
        "brownian.noise_bytes": nbytes.get("increment_block", 0),
        "brownian.coarsen_s": coarsen,
        "brownian.coarsen_bytes": nbytes.get("block_sums", 0),
        "brownian.coarsen_gb_per_s": _ratio(nbytes.get("block_sums", 0), coarsen) / 1e9,
        "schemes.kernel_s": kernel,
        "schemes.kernel_calls": calls.get("step_block", 0),
        "schemes.path_steps": items.get("step_block", 0),
        "schemes.path_steps_per_s": _ratio(items.get("step_block", 0), kernel),
        "experiments.block_self_s": self_s.get("run_block", 0.0),
        "experiments.blocks": calls.get("run_block", 0),
        "experiments.reduce_s": sum(self_s.get(n, 0.0) for n in ENTRY_POINTS)
        + self_s.get("block_work", 0.0),
        "experiments.map_wall_s": dur.get("map_blocks", 0.0),
        "experiments.workers": workers,
        "experiments.parallel_efficiency": _ratio(block_busy, map_capacity),
        "config.parse_s": dur.get("parse_config", 0.0),
        "cli.adapt_s": self_s.get("run_adapter", 0.0),
        "cli.serialize_s": serialize,
        "cli.write_s": write,
        "cli.artifact_bytes": nbytes.get(WRITE, 0),
        "cli.emit_mb_per_s": _ratio(nbytes.get(WRITE, 0), serialize + write) / 1e6,
        "trace.unattributed_share": _ratio(max(wall_s - covered, 0.0), wall_s),
    }


def absent_metrics(absent_spans: set[str]) -> list[str]:
    return [m for m, (_, names) in PER_LAYER.items()
            if names and all(n in absent_spans for n in names)]
