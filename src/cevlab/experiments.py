"""Monte Carlo engine: strong-error estimation on coupled dyadic grids,
moment diagnostics, sign-flip statistics, and a demonstration payoff pricer.

Paths are independent work items.  Every entry point accepts ``n_threads``;
when omitted the CEVLAB_THREADS environment variable (or the machine core
count) decides.  Per-path noise comes from keyed streams and per-path
results land in preallocated slots indexed by path, so every reported number
is bit-identical regardless of thread count.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .brownian import _block_sums, _increment_block
from .errors import (
    CouplingError,
    InsufficientPoints,
    NonFiniteResult,
    NonPositiveValue,
    ValidationError,
)
from .model import CevParams, TimeGrid, _require_feasible, _sign_flip_prob, analytic_mean
from .schemes import BatchStats, SchemeId, _run_block

__all__ = [
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
]

# Paths per work item.  Fixed (never derived from the thread count) so that
# block boundaries, and hence all floating-point aggregation, are identical
# for any degree of parallelism.
_BLOCK_PATHS = 4096

_COUPLING_TOL = 1e-12


def _resolve_threads(n_threads: int | None) -> int:
    if n_threads is None:
        env = os.environ.get("CEVLAB_THREADS")
        if env is not None:
            try:
                n_threads = int(env)
            except ValueError:
                raise ValidationError(
                    f"CEVLAB_THREADS must be a positive integer, got {env!r}"
                ) from None
        else:
            n_threads = os.cpu_count() or 1
    if n_threads < 1:
        raise ValidationError("thread count must be >= 1")
    return n_threads


def _map_blocks(
    work: Callable[[tuple[int, int]], None],
    n_paths: int,
    n_threads: int | None,
) -> None:
    """Run ``work`` over [start, stop) path blocks, possibly in parallel.

    Each work item must write only to slots of preallocated arrays indexed by
    path, which makes the result independent of scheduling.
    """
    blocks = [
        (start, min(start + _BLOCK_PATHS, n_paths))
        for start in range(0, n_paths, _BLOCK_PATHS)
    ]
    workers = min(_resolve_threads(n_threads), len(blocks))
    if workers <= 1:
        for block in blocks:
            work(block)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # list() drains the iterator so worker exceptions propagate here
        list(pool.map(work, blocks))


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelSpec:
    """Dyadic refinement ladder for the coupled strong-error experiment.

    The reference grid uses 2^ref_exponent steps; each test grid uses 2^e
    steps for e in ``test_exponents`` and is driven by block sums of the
    reference increments, i.e. by the same Brownian path.
    """

    ref_exponent: int
    test_exponents: tuple[int, ...]
    n_paths: int
    master_seed: int

    def __post_init__(self) -> None:
        for name in ("ref_exponent", "n_paths", "master_seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValidationError(f"{name} must be an int, got {type(v).__name__}")
        exps = tuple(int(e) for e in self.test_exponents)
        object.__setattr__(self, "test_exponents", exps)
        if not exps:
            raise ValidationError("test_exponents must be non-empty")
        if any(e < 0 for e in exps):
            raise ValidationError("test exponents must be nonnegative")
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise ValidationError("test exponents must be strictly ascending")
        if self.ref_exponent <= exps[-1]:
            raise ValidationError(
                "ref_exponent must exceed every test exponent "
                f"(got {self.ref_exponent} <= {exps[-1]})"
            )
        if self.n_paths < 2:
            raise ValidationError("n_paths must be >= 2")
        if not 0 <= self.master_seed < 2**64:
            raise ValidationError("master_seed must be an integer in [0, 2^64)")


def _require_feasible_ladder(params: CevParams, spec: LevelSpec, t_end: float) -> None:
    """Every test level and the reference level of the semi-discrete ladder
    must satisfy the stability conditions; raises InfeasibleLevel otherwise."""
    for e in spec.test_exponents:
        _require_feasible(params, t_end / 2**e, f"test level e={e}")
    _require_feasible(
        params, t_end / 2**spec.ref_exponent, f"reference level r={spec.ref_exponent}"
    )


@dataclass(frozen=True)
class LevelRecord:
    """Strong-error estimate at one step size."""

    exponent: int
    dt: float
    mse: float
    rmse: float
    ci_halfwidth: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-level mean-square errors plus the fitted log-log order.

    ``theoretical_order`` is the proven lower bound a(a - 1/2) for the
    semi-discrete scheme; the fit reports what the experiment actually saw.
    Levels are sorted by dt descending (coarsest first).
    """

    levels: tuple[LevelRecord, ...]
    fitted_order: float
    fit_intercept: float
    fit_r2: float
    theoretical_order: float


@dataclass(frozen=True)
class MomentReport:
    """Terminal sample moments against the closed-form mean."""

    sample_mean: float
    sample_second_moment: float
    se_mean: float
    se_second: float
    analytic_mean: float
    abs_mean_error: float


@dataclass(frozen=True)
class NegativityStats:
    """Observed and analytic sign-flip diagnostics over a simulation."""

    total_steps: int
    z_negative_events: int
    clamp_events: int
    max_step_negativity_prob: float


class PayoffKind(enum.Enum):
    EUROPEAN_CALL = "EuropeanCall"
    EUROPEAN_PUT = "EuropeanPut"
    ASIAN_ARITHMETIC_CALL = "AsianArithmeticCall"

    @classmethod
    def parse(cls, token: str) -> "PayoffKind":
        lowered = token.strip().lower()
        for member in cls:
            if lowered == member.value.lower():
                return member
        valid = ", ".join(m.value for m in cls)
        raise ValidationError(f"unknown payoff {token!r}; expected one of: {valid}")


@dataclass(frozen=True)
class PayoffSpec:
    """Payoff selector.  The Asian call averages the post-step values
    (initial state excluded)."""

    kind: PayoffKind
    strike: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.strike) and self.strike >= 0.0):
            raise ValidationError("strike must be >= 0")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def fit_order(points: Iterable[tuple[float, float]]) -> tuple[float, float, float]:
    """Least-squares line through (ln dt, ln rmse); the slope is the order.

    Returns (slope, intercept, r2).  Requires at least two points with
    distinct dt, all values finite and strictly positive.
    """
    pts = list(points)
    if len(pts) < 2:
        raise InsufficientPoints(f"need >= 2 points, got {len(pts)}")
    if not all(math.isfinite(dt) and math.isfinite(err) for dt, err in pts):
        raise NonPositiveValue(f"all step sizes and errors must be finite, got {pts}")
    if any(dt <= 0.0 or err <= 0.0 for dt, err in pts):
        raise NonPositiveValue("all step sizes and errors must be > 0")
    u = np.log(np.array([dt for dt, _ in pts]))
    v = np.log(np.array([err for _, err in pts]))
    du = u - u.mean()
    dv = v - v.mean()
    suu = float(np.sum(du * du))
    if suu == 0.0:
        raise InsufficientPoints("points must span at least two distinct step sizes")
    slope = float(np.sum(du * dv)) / suu
    intercept = float(v.mean() - slope * u.mean())
    residual = v - (intercept + slope * u)
    ss_res = float(np.sum(residual * residual))
    ss_tot = float(np.sum(dv * dv))
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def strong_error(
    params: CevParams,
    scheme: SchemeId,
    spec: LevelSpec,
    t_end: float,
    n_threads: int | None = None,
) -> ConvergenceReport:
    """Coupled mean-square error against a fine-grid proxy of the solution.

    Every path is simulated once on the reference grid (2^ref_exponent
    steps) and once per test level on block-summed copies of the same
    increments; the squared terminal differences estimate the strong error.
    The proxy for the unknown exact solution is the scheme itself on the
    reference grid, so ref_exponent should exceed the finest test exponent
    by a comfortable margin.
    """
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValidationError("t_end must be a positive finite number")
    if scheme is SchemeId.SEMI_DISCRETE:
        _require_feasible_ladder(params, spec, t_end)

    n_fine = 2**spec.ref_exponent
    dt_fine = t_end / n_fine
    n_levels = len(spec.test_exponents)
    sq_diff = np.empty((n_levels, spec.n_paths))

    def work(block: tuple[int, int]) -> None:
        start, stop = block
        fine = _increment_block(spec.master_seed, start, stop, n_fine, dt_fine)
        fine_terminal_w = fine.sum(axis=1)
        ref_term, _, _ = _run_block(scheme, params, dt_fine, fine, first_path=start)
        for i, e in enumerate(spec.test_exponents):
            factor = 2 ** (spec.ref_exponent - e)
            coarse = _block_sums(fine, factor)
            dev = np.abs(coarse.sum(axis=1) - fine_terminal_w)
            bound = _COUPLING_TOL * np.maximum(1.0, np.abs(fine_terminal_w))
            if np.any(dev > bound):
                raise CouplingError(
                    f"coarse/fine terminal Brownian values diverged by "
                    f"{float(dev.max()):.3e} at level e={e}"
                )
            test_term, _, _ = _run_block(
                scheme, params, dt_fine * factor, coarse, first_path=start
            )
            sq_diff[i, start:stop] = (test_term - ref_term) ** 2

    _map_blocks(work, spec.n_paths, n_threads)

    levels = []
    pts = []
    for i, e in enumerate(spec.test_exponents):
        dt_level = t_end / 2**e
        d = sq_diff[i]
        mse = float(d.mean())
        se = float(d.std(ddof=1)) / math.sqrt(spec.n_paths)
        levels.append(
            LevelRecord(
                exponent=e,
                dt=dt_level,
                mse=mse,
                rmse=math.sqrt(mse),
                ci_halfwidth=1.96 * se,
            )
        )
        pts.append((dt_level, math.sqrt(mse)))
    levels.sort(key=lambda rec: -rec.dt)
    slope, intercept, r2 = fit_order(pts)
    return ConvergenceReport(
        levels=tuple(levels),
        fitted_order=slope,
        fit_intercept=intercept,
        fit_r2=r2,
        theoretical_order=params.a * (params.a - 0.5),
    )


def _run_paths(
    scheme: SchemeId,
    params: CevParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    n_threads: int | None,
    trajectory: np.ndarray | None = None,
    event_matrix: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, BatchStats]:
    """Run n_paths keyed paths on ``grid`` through ``_run_block``, one fixed
    block of paths per work item; returns (terminal, path_mean, stats).

    Per-path results land in their path slots, and the block stats are merged
    in block order, so nothing depends on the thread count.  Optional
    (n_paths, n_steps+1) matrices capture trajectories and events.
    """
    terminal = np.empty(n_paths)
    path_mean = np.empty(n_paths)
    collected: dict[int, BatchStats] = {}

    def work(block: tuple[int, int]) -> None:
        start, stop = block
        rows = slice(start, stop)
        dw = _increment_block(seed, start, stop, grid.n_steps, grid.dt)
        terminal[rows], path_mean[rows], collected[start] = _run_block(
            scheme, params, grid.dt, dw,
            None if trajectory is None else trajectory[rows],
            None if event_matrix is None else event_matrix[rows],
            first_path=start,
        )

    _map_blocks(work, n_paths, n_threads)
    blocks = [collected[start] for start in sorted(collected)]
    return terminal, path_mean, functools.reduce(BatchStats.merge, blocks)


def _terminal_stats(
    scheme: SchemeId,
    params: CevParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    n_threads: int | None,
) -> tuple[np.ndarray, np.ndarray, BatchStats]:
    """Terminal values and path means for n_paths keyed paths on ``grid``.

    Raises NonFiniteResult when a terminal value or path mean is not finite,
    so no report is computed from a diverged path.
    """
    if n_paths < 2:
        raise ValidationError("n_paths must be >= 2")
    terminal, path_mean, stats = _run_paths(
        scheme, params, grid, n_paths, seed, n_threads
    )
    finite = np.isfinite(terminal) & np.isfinite(path_mean)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteResult(
            f"path {i} is not finite: terminal value {float(terminal[i])!r}, "
            f"path mean {float(path_mean[i])!r}"
        )
    return terminal, path_mean, stats


def moment_check(
    params: CevParams,
    scheme: SchemeId,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    n_threads: int | None = None,
) -> MomentReport:
    """Terminal mean and second moment with standard errors, against the
    closed-form mean of the continuous model."""
    terminal, _, _ = _terminal_stats(scheme, params, grid, n_paths, seed, n_threads)
    second = terminal**2
    mean = float(terminal.mean())
    m2 = float(second.mean())
    se_mean = float(terminal.std(ddof=1)) / math.sqrt(n_paths)
    se_second = float(second.std(ddof=1)) / math.sqrt(n_paths)
    exact = analytic_mean(params, grid.t_end)
    return MomentReport(
        sample_mean=mean,
        sample_second_moment=m2,
        se_mean=se_mean,
        se_second=se_second,
        analytic_mean=exact,
        abs_mean_error=abs(mean - exact),
    )


def negativity_stats(
    params: CevParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    n_threads: int | None = None,
) -> NegativityStats:
    """Count z < 0 events and inner clamps for the semi-discrete scheme, and
    report the largest one-step sign-flip probability over visited states.

    The maximum probability is exact: the stepper tracks the smallest
    inner^(1-a) over all pre-step states, and the probability is a monotone
    transform of that statistic.
    """
    _, _, stats = _terminal_stats(
        SchemeId.SEMI_DISCRETE, params, grid, n_paths, seed, n_threads
    )
    return NegativityStats(
        total_steps=n_paths * grid.n_steps,
        z_negative_events=stats.sign_flip_count,
        clamp_events=stats.clamp_count,
        max_step_negativity_prob=_sign_flip_prob(stats.min_inner_pow, grid.dt, params),
    )


def price_payoff(
    params: CevParams,
    payoff: PayoffSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    n_threads: int | None = None,
) -> tuple[float, float]:
    """Monte Carlo price of ``payoff`` under semi-discrete paths.

    Returns (price, ci_halfwidth) where the half-width is 1.96 standard
    errors.
    """
    terminal, path_mean, _ = _terminal_stats(
        SchemeId.SEMI_DISCRETE, params, grid, n_paths, seed, n_threads
    )
    if payoff.kind is PayoffKind.EUROPEAN_CALL:
        samples = np.maximum(terminal - payoff.strike, 0.0)
    elif payoff.kind is PayoffKind.EUROPEAN_PUT:
        samples = np.maximum(payoff.strike - terminal, 0.0)
    else:
        samples = np.maximum(path_mean - payoff.strike, 0.0)
    price = float(samples.mean())
    ci = 1.96 * float(samples.std(ddof=1)) / math.sqrt(n_paths)
    return price, ci


def simulate_paths_batch(
    scheme: SchemeId,
    params: CevParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    n_threads: int | None = None,
) -> tuple[np.ndarray, np.ndarray, BatchStats]:
    """Full trajectories for ``n_paths`` keyed paths.

    Returns (values, events, stats) with ``values`` of shape
    (n_paths, n_steps+1) and ``events`` a uint8 matrix marking steps whose
    noise term (or proposed Euler iterate) went negative.  Path i is
    bit-identical to simulating StreamKey(seed, i) on its own.
    """
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    values = np.empty((n_paths, grid.n_steps + 1))
    events = np.zeros((n_paths, grid.n_steps + 1), dtype=np.uint8)
    _, _, stats = _run_paths(
        scheme, params, grid, n_paths, seed, n_threads, values, events
    )
    return values, events, stats
