"""Monte Carlo engine: strong-error estimation on coupled dyadic grids,
moment diagnostics, sign-flip statistics, and a demonstration payoff pricer.

Blocks of paths are independent work items.  Every entry point accepts
``n_threads``, which caps the number of worker processes; when omitted the
CEVLAB_THREADS environment variable (or the machine core count) decides.
The calling process is one worker and the others are forked children, which
send their blocks' results back pickled.  Per-path noise comes from keyed
streams and per-path results are assembled in path order, so every reported
number is bit-identical regardless of the worker count.

Every experiment runs through one driver, ``_walk_paths``: each block walks
time once, in time-major chunks of ``_CHUNK_STEPS`` fine steps, and steps
every grid level it needs from the same chunk.  Memory per block is bounded
by the chunk, not by the number of steps.
"""

from __future__ import annotations

import enum
import functools
import math
import os
import pickle
from dataclasses import dataclass
from typing import Callable, Iterable, NoReturn, TypeVar

import numpy as np

from .brownian import (
    _block_sums,
    _increment_block,
    _increment_chunks,
    _require_u64,
)
from .errors import (
    CouplingError,
    InsufficientPoints,
    NonFiniteResult,
    NonPositiveValue,
    ValidationError,
)
from .model import CevParams, TimeGrid, _require_feasible, _sign_flip_prob, analytic_mean
from .schemes import BatchStats, SchemeId, _Walk

# Nothing here calls ``_increment_block`` (``_walk_paths`` draws through
# ``_increment_chunks``), but the perfbench layer trace finds it under this
# module's name: without the import, its noise metrics read as absent.

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

# Paths per work item, and so the unit a worker process receives.  No
# reported bit depends on it: every floating-point sum is per path, and every
# cross-path reduction is an exact count or a min.  It is still fixed, never
# derived from the worker count.
_BLOCK_PATHS = 4096

# Fine steps per time-major chunk of a block's walk: a power of two, so every
# dyadic level factor either divides it or is a multiple of it.  A block holds
# about 2 x _BLOCK_PATHS x _CHUNK_STEPS doubles of noise at a time.
_CHUNK_STEPS = 512

_COUPLING_TOL = 1e-12


def _resolve_workers(n_threads: int | None) -> int:
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
        raise ValidationError("worker count must be >= 1")
    return n_threads


_T = TypeVar("_T")


def _run_share(
    work: Callable[[tuple[int, int]], _T], blocks: list, first: int, stride: int
) -> dict[int, _T | Exception]:
    """Run blocks first, first + stride, ... in order, up to and including the
    first that raises; map each block index to its result or exception."""
    outcomes: dict[int, _T | Exception] = {}
    for i in range(first, len(blocks), stride):
        try:
            outcomes[i] = work(blocks[i])
        except Exception as exc:
            outcomes[i] = exc
            break
    return outcomes


def _child_share(
    work: Callable[[tuple[int, int]], _T], blocks: list, first: int, stride: int, fd: int
) -> NoReturn:
    """In a forked worker: run its share, write the pickled outcomes to ``fd``
    and end the process without returning to the caller's code, exit status
    0 on success and 1 if the share could not be run or sent."""
    status = 1
    try:
        payload = pickle.dumps(
            _run_share(work, blocks, first, stride), pickle.HIGHEST_PROTOCOL
        )
        with open(fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _map_blocks(
    work: Callable[[tuple[int, int]], _T],
    n_paths: int,
    n_threads: int | None,
) -> list[_T]:
    """Run ``work`` over [start, stop) path blocks, possibly in parallel, and
    return its results in block order.

    Block i runs in worker i mod w.  Worker 0 is this process; workers 1..w-1
    are ``os.fork()`` children, which share nothing with this process after
    the fork: ``work`` must return everything it computes, as a picklable
    value, and write nothing that the caller reads.  A child runs its blocks
    in order, stops at its first failing block and pipes back the pickled
    results.  Every child is read to EOF and reaped before this returns or
    raises.  If any block failed, the exception of the lowest-indexed failed
    block is raised (a child that sent no result raises ChildProcessError
    naming its pid and wait status) and no result is returned.  Without
    ``os.fork`` every block runs here.

    cevlab itself starts no threads, so forking is safe in the CLI; a caller
    that runs threads of its own should pass ``n_threads=1``.
    """
    blocks = [
        (start, min(start + _BLOCK_PATHS, n_paths))
        for start in range(0, n_paths, _BLOCK_PATHS)
    ]
    workers = min(_resolve_workers(n_threads), len(blocks))
    if workers <= 1 or not hasattr(os, "fork"):
        workers = 1
    children = []  # (pid, pipe read end, index of the child's first block)
    outcomes: dict[int, _T | Exception] = {}
    try:
        for first in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child_share(work, blocks, first, workers, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd, first))
        outcomes.update(_run_share(work, blocks, 0, workers))
    finally:
        for pid, read_fd, first in children:
            with open(read_fd, "rb") as pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            if status == 0 and payload:
                outcomes.update(pickle.loads(payload))
            else:
                outcomes[first] = ChildProcessError(
                    f"worker process {pid} ended with wait status {status} "
                    f"(exit code {os.waitstatus_to_exitcode(status)}) "
                    f"and sent no result"
                )
    for i in sorted(outcomes):
        if isinstance(outcomes[i], Exception):
            raise outcomes[i]
    return [outcomes[i] for i in range(len(blocks))]


def _pairwise_push(carry: list, row: np.ndarray) -> np.ndarray | None:
    """Push one (B,) block sum onto ``carry``, a pending left operand per
    height; return the sum of the 2^len(carry) rows it completes, or None.

    The order is ``_block_sums``': (r0 + r1) + (r2 + r3) and so on, so a
    level whose factor exceeds the chunk is assembled from per-chunk sums
    bit-identically, holding one row per height.
    """
    for height, left in enumerate(carry):
        if left is None:
            carry[height] = row
            return None
        carry[height] = None
        row = left + row
    return row


def _level_increments(chunk: np.ndarray, factors: tuple[int, ...], carries: list):
    """Yield (level, increments) for every coarse level that steps in ``chunk``.

    ``factors`` are ascending powers of two; each level's increments are
    block sums of the next finer level's, which ``_block_sums`` guarantees
    equal block sums of the fine increments.  A level whose factor exceeds
    the chunk takes the chunk's sum through its carry and steps when the
    carry completes.  Every sum formed inside the chunk must match the
    chunk's fine Brownian increment path by path, or CouplingError.
    """
    total = chunk.sum(axis=0)
    bound = _COUPLING_TOL * np.maximum(1.0, np.abs(total))
    sums, scale = chunk, 1
    for level, (factor, carry) in enumerate(zip(factors, carries)):
        if scale < min(factor, len(chunk)):
            width = min(factor, len(chunk))
            sums, scale = _block_sums(sums, width // scale), width
            dev = np.abs(sums.sum(axis=0) - total)
            if np.any(dev > bound):
                raise CouplingError(
                    f"coarse/fine Brownian increments diverged by "
                    f"{float(dev.max()):.3e} at coarsening factor {scale}"
                )
        if factor > scale:
            # a one-step chunk is still the noise buffer, which the next
            # chunk overwrites: the carry keeps a copy
            row = _pairwise_push(carry, sums[0].copy() if sums is chunk else sums[0])
            if row is None:
                return
            sums, scale = row[np.newaxis], factor
        yield level, sums


def _walk_paths(
    scheme: SchemeId,
    params: CevParams,
    seed: int,
    n_paths: int,
    n_steps: int,
    dt: float,
    n_threads: int | None,
    factors: tuple[int, ...] = (),
    trajectory: np.ndarray | None = None,
    event_matrix: np.ndarray | None = None,
) -> list[tuple[np.ndarray, np.ndarray, BatchStats]]:
    """Walk n_paths keyed paths through n_steps fine steps of size dt, and
    through each coarse grid of ``factors`` (ascending powers of two that
    divide n_steps) driven by block sums of the same increments.

    Returns (terminal, path_mean, stats) per level: the fine grid first,
    then one per factor.  Each block of paths walks time once, one
    ``_CHUNK_STEPS`` chunk of noise at a time, stepping the fine level at
    every fine step and a coarse level every ``factor`` steps.  Blocks return
    their per-path results and stats, which are joined in path order and
    merged in block order, so nothing depends on the worker count.  Optional
    (n_paths, n_steps+1) matrices receive the fine level's trajectories and
    events.
    """
    chunk = min(n_steps, _CHUNK_STEPS)
    heights = [
        (f // max(prev, chunk)).bit_length() - 1 if f > chunk else 0
        for prev, f in zip((1,) + factors, factors)
    ]
    dts = (dt,) + tuple(dt * f for f in factors)

    def work(block: tuple[int, int]):
        start, stop = block
        n_block = stop - start
        values = np.empty((n_block, n_steps + 1)) if trajectory is not None else None
        events = (
            np.zeros((n_block, n_steps + 1), dtype=np.uint8)
            if event_matrix is not None
            else None
        )
        fine = _Walk(scheme, params, dt, n_block, start, values, events)
        coarse = [_Walk(scheme, params, d, n_block, start) for d in dts[1:]]
        carries = [[None] * h for h in heights]
        # dw is overwritten by the next chunk; walks and carries keep only
        # copies and sums of it
        for dw in _increment_chunks(seed, start, stop, n_steps, dt, _CHUNK_STEPS):
            fine.advance(dw)
            if factors:
                for level, sums in _level_increments(dw, factors, carries):
                    coarse[level].advance(sums)
        return [walk.result() for walk in (fine, *coarse)], values, events

    results = _map_blocks(work, n_paths, n_threads)
    if trajectory is not None:
        np.concatenate([values for _, values, _ in results], out=trajectory)
    if event_matrix is not None:
        np.concatenate([events for _, _, events in results], out=event_matrix)
    return [
        (
            np.concatenate([terminal for terminal, _, _ in blocks]),
            np.concatenate([path_mean for _, path_mean, _ in blocks]),
            functools.reduce(BatchStats.merge, [stats for _, _, stats in blocks]),
        )
        for blocks in zip(*(levels for levels, _, _ in results))
    ]


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
        _require_u64("master_seed", self.master_seed)


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


def _standard_error(samples: np.ndarray, scale: float = 1.0) -> float:
    """``scale`` standard errors of the mean of ``samples``: exactly 0.0 when
    every sample is equal, scale * std(ddof=1) / sqrt(n) otherwise.

    numpy's pairwise mean of identical samples can differ from them in the
    last bit, which would give a spread of ~1e-18 where there is none.  The
    price CI passes its 1.96 as ``scale``; the ladder multiplies the result,
    and the two orders round differently, so each keeps its own.
    """
    if samples.min() == samples.max():
        return 0.0
    return scale * float(samples.std(ddof=1)) / math.sqrt(samples.size)


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

    Every path is simulated on the reference grid (2^ref_exponent steps) and
    on every test level, driven by block sums of the same increments; the
    squared terminal differences estimate the strong error.  The proxy for
    the unknown exact solution is the scheme itself on the reference grid,
    so ref_exponent should exceed the finest test exponent by a comfortable
    margin.

    Each block of paths walks time once, in chunks of ``_CHUNK_STEPS`` fine
    steps, and steps the reference and every test level from the same chunk;
    a level coarser than a chunk is summed across chunks pairwise.  Memory
    is therefore bounded by the block and chunk sizes, whatever
    ref_exponent and the ladder's span, and the report is bit-identical to
    simulating each level on its own block-summed increment matrix.
    """
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValidationError("t_end must be a positive finite number")
    if scheme is SchemeId.SEMI_DISCRETE:
        _require_feasible_ladder(params, spec, t_end)

    n_fine = 2**spec.ref_exponent
    exps = spec.test_exponents
    factors = tuple(2 ** (spec.ref_exponent - e) for e in reversed(exps))
    (ref_term, _, _), *coarse = _walk_paths(
        scheme, params, spec.master_seed, spec.n_paths, n_fine, t_end / n_fine,
        n_threads, factors,
    )

    levels = []
    pts = []
    # coarse is finest first, the ascending test exponents coarsest first
    for e, (term, _, _) in zip(exps, reversed(coarse)):
        dt_level = t_end / 2**e
        d = (term - ref_term) ** 2
        mse = float(d.mean())
        levels.append(
            LevelRecord(
                exponent=e,
                dt=dt_level,
                mse=mse,
                rmse=math.sqrt(mse),
                ci_halfwidth=1.96 * _standard_error(d),
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
    [(terminal, path_mean, stats)] = _walk_paths(
        scheme, params, seed, n_paths, grid.n_steps, grid.dt, n_threads
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
    exact = analytic_mean(params, grid.t_end)
    return MomentReport(
        sample_mean=mean,
        sample_second_moment=m2,
        se_mean=_standard_error(terminal),
        se_second=_standard_error(second),
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
    return float(samples.mean()), _standard_error(samples, scale=1.96)


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
    noise term (or proposed Euler iterate) went negative.  Path i is driven by
    the stream ``Philox(key=[seed, i])``, so its row depends neither on
    n_paths nor on the worker count.
    """
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    values = np.empty((n_paths, grid.n_steps + 1))
    events = np.zeros((n_paths, grid.n_steps + 1), dtype=np.uint8)
    [(_, _, stats)] = _walk_paths(
        scheme, params, seed, n_paths, grid.n_steps, grid.dt, n_threads,
        trajectory=values, event_matrix=events,
    )
    return values, events, stats
