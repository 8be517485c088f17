"""Monte Carlo engine: strong-error estimation on coupled dyadic grids,
moment diagnostics, sign-flip statistics, and a demonstration payoff pricer.

Every experiment takes its grid, path count and seed by the names ``grid``,
``n_paths`` and ``seed``; ``strong_error``'s grid is the reference grid of
its ladder.  Blocks of paths are independent work items, one equal share
of them per worker.  The CEVLAB_THREADS environment variable caps the
number of worker processes (by default the machine core count);
``_resolve_workers`` alone decides whether to fork, and gives 1 worker
where ``os.fork`` does not exist.  The calling process is one worker and
the others are children that ``_map_blocks`` forks, and stops and reaps
if the caller is interrupted; a block writes its per-path results into its
rows of arrays all workers share, and returns only its stats.  Per-path
noise comes from keyed streams, so every reported number is bit-identical
regardless of the worker count and layout.

Every experiment runs through one driver, ``_walk_paths``: each block walks
time once, in time-major chunks of at most ``_CHUNK_STEPS`` fine steps, and
steps every grid level it needs from the same chunk.  A coarse level of the
strong-error ladder is driven by block sums of the fine increments, which
``brownian._dyadic_sums`` forms by one pairwise tree, inside each chunk and
then across chunks.  Memory per worker is bounded by its noise buffer,
block paths x chunk steps within ``_NOISE_BUDGET`` doubles, not by the
number of steps.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import math
import mmap
import os
import pickle
import signal
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from .brownian import _dyadic_sums, _increment_block, _increment_chunks
from .errors import (
    InsufficientPoints,
    NonFiniteResult,
    NonPositiveValue,
    ValidationError,
    _shown,
)
from .model import (
    CevParams,
    PayoffKind,
    PayoffSpec,
    SchemeId,
    TimeGrid,
    _ladder_heights,
    _require_feasible_ladder,
    _require_paths,
    _require_u64,
    _sign_flip_prob,
    analytic_mean,
)
from .schemes import BatchStats, _Walk

# Nothing here calls ``_increment_block`` (``_walk_paths`` draws through
# ``_increment_chunks``), but the perfbench layer trace finds it under this
# module's name: without the import, its noise metrics read as absent.

__all__ = [
    "LevelRecord",
    "ConvergenceReport",
    "MomentReport",
    "NegativityStats",
    "strong_error",
    "fit_order",
    "moment_check",
    "negativity_stats",
    "price_payoff",
    "simulate_paths_batch",
]

# The block layout of a run (``_layout``).  No reported bit depends on it:
# every floating-point sum is per path, and every cross-path reduction is an
# exact count or a min (``TestBlockLayout`` in tests/test_experiments.py).
# Paths per block at most: the largest work item a worker process receives.
# A chunked block keeps one live stream per path, so at 4096 the 10,000-path
# ladder runs as four 2500-path blocks with 256-step chunks: the same noise
# buffer as two 5000 x 128 blocks, half the live streams at a time and half
# the draw calls per path.
_BLOCK_PATHS = 4096
# Doubles a block's noise buffer may hold: block paths x chunk steps.
_NOISE_BUDGET = 2**20
# Fine steps per time-major chunk at most: a power of two, so every dyadic
# level factor either divides it or is a multiple of it.  A run of at most
# this many steps is drawn whole, by re-keyed block draws, which are much
# faster than the per-path generators that a chunked run resumes.
_CHUNK_STEPS = 512


def _resolve_workers() -> int:
    """The worker count: CEVLAB_THREADS, or the core count when it is unset;
    1 where ``os.fork`` does not exist (the one place that decides to fork)."""
    env = os.environ.get("CEVLAB_THREADS")
    try:
        workers = (os.cpu_count() or 1) if env is None else int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValidationError(f"CEVLAB_THREADS must be a positive integer, got {env!r}")
    return workers if hasattr(os, "fork") else 1


def _layout(n_paths: int, n_steps: int) -> tuple[list[tuple[int, int]], int]:
    """(blocks, chunk) of a run: [start, stop) path blocks and the chunk
    length in fine steps.

    The n_paths paths are cut into w x m contiguous blocks whose sizes
    differ by at most 1, w being the worker count (at most one per path), so
    every worker gets the same share.  m is the fewest rounds that keep each
    block at most ``_BLOCK_PATHS`` paths.  A run of at most ``_CHUNK_STEPS``
    steps is one chunk, and its blocks also keep their noise buffer, block
    paths x steps, within ``_NOISE_BUDGET`` doubles.  A longer run's chunk
    halves from ``_CHUNK_STEPS`` while the widest block's buffer exceeds the
    budget: 4096 x 256 = 2^20, so it never falls below 256 steps.
    """
    whole = n_steps <= _CHUNK_STEPS
    cap = max(1, min(_BLOCK_PATHS, _NOISE_BUDGET // (n_steps if whole else 1)))
    workers = min(_resolve_workers(), n_paths)
    blocks = _split(n_paths, workers * -(-n_paths // (workers * cap)))
    chunk = min(n_steps, _CHUNK_STEPS)
    widest = blocks[0][1]
    while widest * chunk > _NOISE_BUDGET:
        chunk //= 2
    return blocks, chunk


def _split(n: int, count: int) -> list[tuple[int, int]]:
    """[start, stop) bounds cutting range(n) into ``count`` contiguous blocks
    (at most one per item, at least one) whose sizes differ by at most 1,
    the larger ones first."""
    count = max(1, min(count, n))
    size, extra = divmod(n, count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


_B = TypeVar("_B")
_T = TypeVar("_T")


@contextlib.contextmanager
def _held_signals() -> Iterator[object]:
    """Hold SIGINT and SIGTERM back from this thread while the ``with`` body
    runs, so that no interrupt lands between two steps that must both be
    taken; yield the signal mask to restore, which the body may restore
    early.  A signal sent meanwhile is taken when the body ends."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
    try:
        yield mask
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _map_blocks(work: Callable[[_B], _T], blocks: list[_B]) -> list[_T]:
    """Run ``work`` over ``blocks``, each passed as given (here a [start,
    stop) range of paths), possibly in parallel; return its results in order.

    Block i runs in worker i mod w, with w the ``_resolve_workers`` count
    (at most one worker per block, and 1 where ``os.fork`` does not exist).  Worker 0 is this process; workers
    1..w-1 are ``os.fork()`` children, which share with this process only
    what was made before the fork to be shared, such as ``_shared`` arrays
    or an open file's descriptor: ``work`` writes nothing the caller reads
    except its own rows of such shared storage, or a file made for it
    before the fork, and returns a picklable value.  A child never returns
    to the caller's code, so it never flushes a file object it inherited: a
    child that formats rows for ``cli`` inherits the open artifact and
    never writes to it.  Each worker runs its blocks in order and stops at
    its first failing block; a child writes the pickled results of its
    blocks to a pipe, which this function alone writes and reads, and ends.
    Every child is read to EOF and reaped before this returns or raises a
    block's exception.  If any block failed, the exception of the
    lowest-indexed failed block is raised (a child that sent no result
    raises ChildProcessError naming its pid and wait status) and no result
    is returned.

    What is raised here itself, rather than by a block, stops the children:
    an interrupt in this process's own share or while it waits for them
    (KeyboardInterrupt, or the SystemExit of the command's SIGTERM handler),
    or a failed fork.  Every child not yet reaped is then killed by SIGKILL
    and reaped, and the exception is raised again.  A child holds nothing
    to clean up: its rows are in shared memory and its files are unnamed.
    SIGINT and SIGTERM are held back while a child is forked and listed, and
    while one is reaped and struck off the list, so none is left behind.

    cevlab itself starts no threads, and a CLI process runs no BLAS pool
    thread either (``cevlab.__main__`` asks for one BLAS thread before numpy
    loads), so forking is safe in the CLI.  Library callers keep numpy's
    default BLAS pool; one that runs threads of its own should set
    CEVLAB_THREADS=1.
    """
    workers = max(1, min(_resolve_workers(), len(blocks)))

    def share(first: int) -> dict[int, _T | Exception]:
        """Outcomes of blocks first, first + w, ... up to the first failure."""
        outcomes: dict[int, _T | Exception] = {}
        for i in range(first, len(blocks), workers):
            try:
                outcomes[i] = work(blocks[i])
            except Exception as exc:
                outcomes[i] = exc
                break
        return outcomes

    children = []  # unreaped (pid, pipe read end, index of its first block)
    outcomes: dict[int, _T | Exception] = {}
    try:
        for first in range(1, workers):
            with _held_signals() as mask:  # until the child is listed
                read_fd, write_fd = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_fd)
                    os.close(write_fd)
                    raise
                if pid == 0:  # the child: exit status 0 once its outcomes are sent
                    status = 1
                    try:
                        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                        payload = pickle.dumps(share(first), pickle.HIGHEST_PROTOCOL)
                        with open(write_fd, "wb") as pipe:
                            pipe.write(payload)
                        status = 0
                    finally:
                        os._exit(status)
                os.close(write_fd)
                children.append((pid, open(read_fd, "rb"), first))
        outcomes.update(share(0))
        while children:
            pid, pipe, first = children[0]
            payload = pipe.read()
            with _held_signals():  # until the reaped child is struck off
                _, status = os.waitpid(pid, 0)
                pipe.close()
                del children[0]
            if status == 0 and payload:
                outcomes.update(pickle.loads(payload))
            else:
                outcomes[first] = ChildProcessError(
                    f"worker process {pid} ended with wait status {status} "
                    f"(exit code {os.waitstatus_to_exitcode(status)}) "
                    f"and sent no result"
                )
    except BaseException:
        with _held_signals():
            for pid, _, _ in children:
                os.kill(pid, signal.SIGKILL)
            for pid, pipe, _ in children:
                os.waitpid(pid, 0)
                pipe.close()
        raise
    for i in sorted(outcomes):
        if isinstance(outcomes[i], Exception):
            raise outcomes[i]
    return [outcomes[i] for i in range(len(blocks))]


def _shared(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A zero-filled array in an anonymous shared mapping: the rows a forked
    worker writes into it are the rows its caller reads.  Raises
    ValidationError, naming the shape and byte count, when no mapping that
    large can be made."""
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    try:
        buffer = mmap.mmap(-1, size * dtype.itemsize)
    except (OSError, OverflowError, MemoryError) as exc:
        if isinstance(exc, OSError) and exc.errno != errno.ENOMEM:
            raise
        raise ValidationError(
            f"cannot allocate a {shape} {dtype} array "
            f"({size * dtype.itemsize} bytes): {exc}"
        ) from exc
    return np.frombuffer(buffer, dtype, size).reshape(shape)


def _walk_paths(
    scheme: SchemeId,
    params: CevParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    heights: tuple[int, ...] = (),
    trajectory: np.ndarray | None = None,
    event_matrix: np.ndarray | None = None,
) -> list[tuple[np.ndarray, np.ndarray, BatchStats]]:
    """Walk n_paths keyed paths through the fine steps of ``grid``, and
    through one coarse grid per entry of ``heights`` (ascending): the grid h
    high steps every 2^h fine steps, driven by the sum of those increments.
    The scheme and seed rules run here, once, before any worker is forked.

    Returns (terminal, path_mean, stats) per level: the fine grid first,
    then one per height.  The paths are cut into the blocks of ``_layout``.
    Each block walks time once, one chunk of noise at a time, stepping the
    fine level at every fine step and the coarse levels on the pairwise sums
    that ``brownian._dyadic_sums`` forms from the chunk and one carry per
    block.  Each block draws its noise into buffers of its own, which
    ``_increment_chunks`` allocates at the block's first draw; they are
    freed once the block is walked.  Whichever worker runs it, a block
    writes its rows of the ``_shared`` terminal and path-mean arrays, and
    of the optional ``_shared`` (n_paths, n_steps+1) fine-level
    ``trajectory`` and ``event_matrix``, and returns only its per-level
    stats, merged in block order; nothing depends on the worker count.
    """
    if not isinstance(scheme, SchemeId):
        raise ValidationError(f"scheme must be a SchemeId, got {_shown(scheme)}")
    _require_u64("seed", seed)
    n_steps, dt = grid.n_steps, grid.dt
    dts = (dt,) + tuple(dt * 2**h for h in heights)
    # first, so a path count too large to hold fails before any layout work
    terminal, path_mean = _shared((len(dts), n_paths)), _shared((len(dts), n_paths))
    blocks, chunk = _layout(n_paths, n_steps)

    def work(block: tuple[int, int]) -> list[BatchStats]:
        start, stop = block
        rows = [None if m is None else m[start:stop] for m in (trajectory, event_matrix)]
        fine = _Walk(scheme, params, dt, stop - start, start, *rows)
        coarse = [_Walk(scheme, params, d, stop - start, start) for d in dts[1:]]
        carry: dict = {}
        # the fine level steps on dw before _dyadic_sums writes the coarse
        # sums over it, and the next chunk overwrites it: walks and the carry
        # keep only copies of it
        for dw in _increment_chunks(seed, start, stop, n_steps, dt, chunk):
            fine.advance(dw)
            if heights:
                for level, sums in _dyadic_sums(dw, heights, carry):
                    coarse[level].advance(sums)
        levels = [walk.result() for walk in (fine, *coarse)]
        for level, (term, mean, _) in enumerate(levels):
            terminal[level, start:stop], path_mean[level, start:stop] = term, mean
        return [stats for _, _, stats in levels]

    block_stats = _map_blocks(work, blocks)
    return [
        (terminal[level], path_mean[level], functools.reduce(BatchStats.merge, stats))
        for level, stats in enumerate(zip(*block_stats))
    ]


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------


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
    grid: TimeGrid,
    test_exponents: tuple[int, ...],
    n_paths: int,
    seed: int,
) -> ConvergenceReport:
    """Coupled mean-square error against a fine-grid proxy of the solution.

    ``grid`` is the reference grid: its n_steps must be 2^ref for an int ref
    above every test exponent.  Every path is simulated on the reference
    grid and on every test level e (2^e steps over ``grid.t_end``, ascending
    ints), driven by block sums of the same increments; the squared terminal
    differences estimate the strong error.  The proxy for the unknown exact
    solution is the scheme itself on the reference grid, so ref should
    exceed the finest test exponent by a comfortable margin.

    Each block of paths walks time once, in chunks of at most
    ``_CHUNK_STEPS`` fine steps, and steps the reference and every test
    level e, ref - e high, from the same chunk.  Every level's increments
    are formed by one pairwise tree over the fine increments, inside the
    chunk and then across chunks, holding one row per height above the
    chunk.  Memory is therefore bounded by the block and chunk sizes,
    whatever ref and the ladder's span, and the report is bit-identical to
    simulating each level on its own ``_block_sums`` of the whole increment
    matrix.
    """
    _require_paths(n_paths, 2)
    exps = tuple(test_exponents)
    heights = _ladder_heights(grid, exps)
    if scheme is SchemeId.SEMI_DISCRETE:
        _require_feasible_ladder(params, grid, exps)
    (ref_term, _, _), *coarse = _walk_paths(scheme, params, grid, n_paths, seed, heights)

    levels = []
    pts = []
    # coarse is finest first, the ascending test exponents coarsest first
    for e, (term, _, _) in zip(exps, reversed(coarse)):
        dt_level = grid.t_end / 2**e
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
) -> tuple[np.ndarray, np.ndarray, BatchStats]:
    """Terminal values and path means for n_paths keyed paths on ``grid``.

    Raises NonFiniteResult when a terminal value or path mean is not finite,
    so no report is computed from a diverged path.
    """
    _require_paths(n_paths, 2)
    [(terminal, path_mean, stats)] = _walk_paths(scheme, params, grid, n_paths, seed)
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
) -> MomentReport:
    """Terminal mean and second moment with standard errors, against the
    closed-form mean of the continuous model."""
    terminal, _, _ = _terminal_stats(scheme, params, grid, n_paths, seed)
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
) -> NegativityStats:
    """Count z < 0 events and inner clamps for the semi-discrete scheme, and
    report the largest one-step sign-flip probability over visited states.

    The maximum probability is exact: the stepper tracks the smallest
    inner^(1-a) over all pre-step states, and the probability is a monotone
    transform of that statistic.
    """
    _, _, stats = _terminal_stats(SchemeId.SEMI_DISCRETE, params, grid, n_paths, seed)
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
) -> tuple[float, float]:
    """Monte Carlo price of ``payoff`` under semi-discrete paths.

    Returns (price, ci_halfwidth) where the half-width is 1.96 standard
    errors.
    """
    terminal, path_mean, _ = _terminal_stats(
        SchemeId.SEMI_DISCRETE, params, grid, n_paths, seed
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
) -> tuple[np.ndarray, np.ndarray, BatchStats]:
    """Full trajectories for ``n_paths`` keyed paths.

    Returns (values, events, stats) with ``values`` of shape
    (n_paths, n_steps+1) and ``events`` a uint8 matrix marking steps whose
    noise term (or proposed Euler iterate) went negative.  Path i is driven by
    the stream ``Philox(key=[seed, i])``, so its row depends neither on
    n_paths nor on the worker count.
    """
    _require_paths(n_paths, 1)
    values = _shared((n_paths, grid.n_steps + 1))
    events = _shared((n_paths, grid.n_steps + 1), np.uint8)
    [(_, _, stats)] = _walk_paths(
        scheme, params, grid, n_paths, seed, trajectory=values, event_matrix=events
    )
    return values, events, stats
