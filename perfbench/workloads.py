"""The benchmark's workloads: the cevlab CLI commands each one runs and the
checks its artifacts must pass.

Every check compares an artifact with an independent computation or with a
property the method must have, never with a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import refstep

# The paper's standard model: k=1, l=1, sigma=1, a=0.75, x0=1, T=1.
MODEL = {"k": 1.0, "l": 1.0, "sigma": 1.0, "a": 0.75, "x0": 1.0, "t_end": 1.0}


@dataclass(frozen=True)
class Op:
    """One CLI invocation; its artifact is ``<name>.<fmt>`` in the work dir."""

    name: str
    experiment: str
    flags: tuple[tuple[str, object], ...]
    fmt: str
    path_steps: int

    @property
    def artifact(self) -> str:
        return f"{self.name}.{self.fmt}"

    def argv(self, seed: int) -> list[str]:
        return [self.experiment, *(f"--{k}={v}" for k, v in self.flags),
                f"--run.seed={seed}", f"--output.format={self.fmt}",
                f"--out={self.artifact}"]


def _model_flags(**override) -> tuple[tuple[str, object], ...]:
    m = {**MODEL, **override}
    return (("model.k", m["k"]), ("model.l", m["l"]), ("model.sigma", m["sigma"]),
            ("model.a", m["a"]), ("model.x0", m["x0"]), ("grid.t_end", m["t_end"]))


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    ops: Callable[[bool], list[Op]]
    # (seed, smoke, {op name: artifact text}) -> {op name: [problems]}
    check: Callable[[int, bool, dict[str, str]], dict[str, list[str]]]


# ---------------------------------------------------------------------------
# ladder: the strong-order experiment
# ---------------------------------------------------------------------------


def _ladder_size(smoke: bool) -> tuple[int, list[int], int]:
    return (9, [4, 5, 6, 7], 1000) if smoke else (12, [4, 5, 6, 7, 8, 9], 10_000)


def ladder_ops(smoke: bool) -> list[Op]:
    ref, levels, paths = _ladder_size(smoke)
    flags = _model_flags() + (
        ("grid.n_steps", 2**ref), ("run.n_paths", paths), ("run.ref_exponent", ref),
        ("run.levels", ",".join(map(str, levels))))
    steps = paths * (2**ref + sum(2**e for e in levels))
    return [Op("ladder", "convergence", flags, "json", steps)]


def _fit(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope and r^2 of ln(rmse) against ln(dt)."""
    u = [math.log(dt) for dt, _ in points]
    v = [math.log(e) for _, e in points]
    mu, mv = sum(u) / len(u), sum(v) / len(v)
    suu = sum((x - mu) ** 2 for x in u)
    slope = sum((x - mu) * (y - mv) for x, y in zip(u, v)) / suu
    ss_res = sum((y - mv - slope * (x - mu)) ** 2 for x, y in zip(u, v))
    ss_tot = sum((y - mv) ** 2 for y in v)
    return slope, 1.0 - ss_res / ss_tot


def check_ladder(seed: int, smoke: bool, texts: dict[str, str]) -> dict[str, list[str]]:
    bad: list[str] = []
    doc = json.loads(texts["ladder"])
    res = doc["results"]
    _, levels, _ = _ladder_size(smoke)
    recs = res["levels"]
    if sorted(r["exponent"] for r in recs) != levels:
        bad.append(f"levels {[r['exponent'] for r in recs]} != {levels}")
    for r in recs:
        if r["dt"] != 2.0 ** -r["exponent"]:
            bad.append(f"dt {r['dt']!r} != 2^-{r['exponent']}")
        if not math.isclose(r["rmse"] ** 2, r["mse"], rel_tol=1e-12):
            bad.append(f"rmse^2 {r['rmse'] ** 2!r} != mse {r['mse']!r} at e={r['exponent']}")
    by_dt = sorted(recs, key=lambda r: -r["dt"])
    for coarse, fine in zip(by_dt, by_dt[1:]):
        if not fine["rmse"] < coarse["rmse"]:
            bad.append(f"rmse does not fall from e={coarse['exponent']} to e={fine['exponent']}")
    slope, r2 = _fit([(r["dt"], r["rmse"]) for r in recs])
    if not math.isclose(slope, res["fitted_order"], rel_tol=1e-9):
        bad.append(f"refit order {slope!r} != reported {res['fitted_order']!r}")
    if not math.isclose(r2, res["fit_r2"], rel_tol=1e-9, abs_tol=1e-12):
        bad.append(f"refit r2 {r2!r} != reported {res['fit_r2']!r}")
    if not (res["fitted_order"] >= 0.1375 and res["fit_r2"] >= 0.9):
        bad.append(f"order {res['fitted_order']!r} < 0.1375 or r2 {res['fit_r2']!r} < 0.9")
    a = MODEL["a"]
    if res["theoretical_order"] != a * (a - 0.5):
        bad.append(f"theoretical_order {res['theoretical_order']!r} != a(a-1/2)")
    if doc["provenance"]["master_seed"] != seed:
        bad.append("provenance seed differs from the requested seed")
    return {"ladder": bad}


# ---------------------------------------------------------------------------
# dump: trajectory export as CSV and as JSON
# ---------------------------------------------------------------------------

_DUMP_STEPS = 64
_SAMPLED_PATHS = 8
_REF_RTOL = 1e-9


def _dump_paths(smoke: bool) -> int:
    return 64 if smoke else 8192


def dump_ops(smoke: bool) -> list[Op]:
    paths = _dump_paths(smoke)
    flags = _model_flags() + (("grid.n_steps", _DUMP_STEPS), ("run.n_paths", paths))
    return [Op("dump_csv", "simulate", flags, "csv", paths * _DUMP_STEPS),
            Op("dump_json", "simulate", flags, "json", paths * _DUMP_STEPS)]


def _csv_table(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.split("\r\n")
    if lines[-1] == "":
        lines.pop()
    header = lines[0].split(",")
    cells = ",".join(lines[1:]).split(",") if len(lines) > 1 else []
    table = np.array(cells, dtype=np.float64).reshape(-1, len(header))
    return header, table


def check_dump(seed: int, smoke: bool, texts: dict[str, str]) -> dict[str, list[str]]:
    paths, cols = _dump_paths(smoke), _DUMP_STEPS + 1
    csv_bad: list[str] = []
    json_bad: list[str] = []

    header, table = _csv_table(texts["dump_csv"])
    if header != ["path", "step", "time", "value", "z_negative"]:
        csv_bad.append(f"header {header}")
    if table.shape[0] != paths * cols:
        csv_bad.append(f"{table.shape[0]} rows != {paths} x {cols}")
        return {"dump_csv": csv_bad, "dump_json": json_bad}
    step = np.tile(np.arange(cols), paths)
    if not np.array_equal(table[:, 0], np.repeat(np.arange(paths), cols)):
        csv_bad.append("path column out of order")
    if not np.array_equal(table[:, 1], step):
        csv_bad.append("step column out of order")
    if not np.array_equal(table[:, 2], step / _DUMP_STEPS):
        csv_bad.append("time column != step/64")
    if not np.all(table[:, 3] > 0):
        csv_bad.append(f"non-positive value, min {table[:, 3].min()!r}")
    if np.any(table[:, 4] != 0):
        csv_bad.append(f"{int(np.count_nonzero(table[:, 4]))} z<0 events")

    res = json.loads(texts["dump_json"])["results"]
    values = np.array(res["paths"], dtype=np.float64)
    events = np.array(res["z_negative"])
    if values.shape != (paths, cols) or events.shape != (paths, cols):
        json_bad.append(f"paths shape {values.shape} != ({paths}, {cols})")
        return {"dump_csv": csv_bad, "dump_json": json_bad}
    if res["times"] != [k / _DUMP_STEPS for k in range(cols)]:
        json_bad.append("times != step/64")
    if not np.all(values > 0):
        json_bad.append(f"non-positive value, min {values.min()!r}")
    if np.any(events != 0) or res["sign_flip_count"] != 0:
        json_bad.append("z<0 events reported")
    if res["min_value"] != values.min():
        json_bad.append("min_value differs from the smallest path value")
    if not np.array_equal(values.ravel(), table[:, 3]):
        json_bad.append("CSV and JSON values differ")

    rng = random.Random(seed)
    sample = sorted({0, paths - 1, *rng.sample(range(paths), _SAMPLED_PATHS)})
    m = MODEL
    for p in sample:
        ref = np.array(refstep.path(seed, p, _DUMP_STEPS, m["t_end"], m["k"], m["l"],
                                    m["sigma"], m["a"], m["x0"]))
        if not np.allclose(values[p], ref, rtol=_REF_RTOL, atol=0.0):
            worst = float(np.max(np.abs(values[p] / ref - 1.0)))
            json_bad.append(f"path {p} differs from the reference stepper (rel {worst:.3g})")
    return {"dump_csv": csv_bad, "dump_json": json_bad}


# ---------------------------------------------------------------------------
# reports: terminal statistics, single-threaded
# ---------------------------------------------------------------------------

_REPORT_X0 = 2.0
_REPORT_STEPS = 256
_STRIKE = 1.4
_NEG_STEPS = 16


def _report_paths(smoke: bool) -> tuple[int, int]:
    return (1000, 1000) if smoke else (20_000, 62_500)


def reports_ops(smoke: bool) -> list[Op]:
    paths, neg_paths = _report_paths(smoke)
    grid = _model_flags(x0=_REPORT_X0) + (
        ("grid.n_steps", _REPORT_STEPS), ("run.n_paths", paths))
    steps = paths * _REPORT_STEPS
    return [
        Op("moments_sd", "moments", grid + (("run.scheme", "SemiDiscrete"),), "json", steps),
        Op("moments_eft", "moments", grid + (("run.scheme", "EulerFullTruncation"),),
           "json", steps),
        Op("call", "price", grid + (("run.payoff", "EuropeanCall"), ("run.strike", _STRIKE)),
           "json", steps),
        Op("put", "price", grid + (("run.payoff", "EuropeanPut"), ("run.strike", _STRIKE)),
           "json", steps),
        Op("negativity", "negativity", _model_flags() + (
            ("grid.n_steps", _NEG_STEPS), ("run.n_paths", neg_paths)),
           "json", neg_paths * _NEG_STEPS),
    ]


def check_reports(seed: int, smoke: bool, texts: dict[str, str]) -> dict[str, list[str]]:
    res = {name: json.loads(text)["results"] for name, text in texts.items()}
    bad: dict[str, list[str]] = {name: [] for name in texts}
    m = MODEL
    exact = m["l"] + (_REPORT_X0 - m["l"]) * math.exp(-m["k"] * m["t_end"])
    for name in ("moments_sd", "moments_eft"):
        r = res[name]
        if not abs(r["sample_mean"] - exact) <= 3.0 * r["se_mean"] + 0.01:
            bad[name].append(f"mean {r['sample_mean']!r} vs exact {exact!r} "
                             f"(se {r['se_mean']!r})")
    parity = res["call"]["price"] - res["put"]["price"]
    expected = res["moments_sd"]["sample_mean"] - _STRIKE
    if not math.isclose(parity, expected, rel_tol=1e-12, abs_tol=1e-12):
        bad["put"].append(f"call - put {parity!r} != sample_mean - K {expected!r}")
    neg = res["negativity"]
    _, neg_paths = _report_paths(smoke)
    if neg["z_negative_events"] != 0 or neg["clamp_events"] != 0:
        bad["negativity"].append(f"{neg['z_negative_events']} z<0 events, "
                                 f"{neg['clamp_events']} clamps")
    if neg["total_steps"] != neg_paths * _NEG_STEPS:
        bad["negativity"].append(f"total_steps {neg['total_steps']} != paths x steps")
    if not neg["max_step_negativity_prob"] * neg["total_steps"] < 1.0:
        bad["negativity"].append(
            f"max_prob x total_steps = {neg['max_step_negativity_prob'] * neg['total_steps']!r}")
    return bad


WORKLOADS = {
    "ladder": Workload("ladder", 2, ladder_ops, check_ladder),
    "dump": Workload("dump", 2, dump_ops, check_dump),
    "reports": Workload("reports", 1, reports_ops, check_reports),
}
