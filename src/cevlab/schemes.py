"""One-step maps and path simulation.

The centerpiece is the explicit semi-discrete update

    y_{k+1} = | sigma (1-a) dW_k + inner(y_k)^(1-a) | ^ (1/(1-a)),

whose output is nonnegative for every realization of the noise.  Three
Euler-Maruyama variants (naive, full-truncation, reflected) are provided as
baselines that illustrate what the update fixes: plain Euler leaves the
positive half-line.

One kernel, ``_step_block``, steps a vector of paths under any scheme, and
one runner, ``_run_block``, drives a (B, n) increment block through it.  The
scalar functions are B=1 views of the two, so a batch row is bit-identical
to ``simulate_path`` on the same increments.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .brownian import IncrementArray
from .errors import GridMismatch, NegativeInner, ValidationError
from .model import CevParams, TimeGrid, _inner_clamped

__all__ = [
    "SchemeId",
    "StepFlags",
    "PathResult",
    "semidiscrete_step",
    "euler_step",
    "simulate_path",
    "BatchStats",
]


class SchemeId(enum.Enum):
    """Closed set of implemented schemes; unknown names are rejected at parse time."""

    SEMI_DISCRETE = "SemiDiscrete"
    EULER_NAIVE = "EulerNaive"
    EULER_FULL_TRUNCATION = "EulerFullTruncation"
    EULER_REFLECTED = "EulerReflected"

    @classmethod
    def parse(cls, token: str) -> "SchemeId":
        lowered = token.strip().lower()
        for member in cls:
            if lowered == member.value.lower():
                return member
        valid = ", ".join(m.value for m in cls)
        raise ValidationError(f"unknown scheme {token!r}; expected one of: {valid}")

    @property
    def is_euler(self) -> bool:
        return self is not SchemeId.SEMI_DISCRETE


class StepFlags(NamedTuple):
    """Per-step diagnostics: did z go negative, did the inner clamp fire."""

    z_negative: bool
    clamped: bool


@dataclass(frozen=True)
class PathResult:
    """One simulated trajectory plus positivity diagnostics.

    ``sign_flip_count`` counts steps whose noise term z was negative
    (semi-discrete) or whose proposed iterate was negative (Euler variants);
    ``clamp_count`` counts rounding clamps of the inner expression, which is
    always zero for Euler variants.
    """

    times: np.ndarray
    values: np.ndarray
    sign_flip_count: int
    clamp_count: int
    min_value: float


@dataclass(frozen=True)
class BatchStats:
    """Aggregate diagnostics of a batch of simulated trajectories.

    ``min_inner_pow`` is the smallest inner^(1-a) over all pre-step states,
    the monotone statistic behind the worst one-step sign-flip probability;
    it is +inf for Euler variants, which have no inner expression.
    """

    sign_flip_count: int
    clamp_count: int
    min_value: float
    min_inner_pow: float = math.inf

    def merge(self, other: "BatchStats") -> "BatchStats":
        """Stats of this batch followed by ``other``; fold blocks in path order."""
        return BatchStats(
            sign_flip_count=self.sign_flip_count + other.sign_flip_count,
            clamp_count=self.clamp_count + other.clamp_count,
            min_value=min(self.min_value, other.min_value),
            min_inner_pow=min(self.min_inner_pow, other.min_inner_pow),
        )


def _step_block(scheme: SchemeId, y, dt: float, dw, params: CevParams):
    """One vectorized step; returns (next, event_mask, clamp_mask, inner_pow_min).

    ``event_mask`` marks a negative noise term z (semi-discrete) or a negative
    proposed iterate (Euler variants).  ``inner_pow_min`` is the smallest
    inner^(1-a) seen at the pre-step states; it is +inf for Euler variants,
    whose clamp mask is all False.
    """
    if scheme is SchemeId.SEMI_DISCRETE:
        inner, clamped = _inner_clamped(y, dt, params)
        one_minus_a = 1.0 - params.a
        ipow = np.power(inner, one_minus_a)
        z = params.sigma * one_minus_a * dw + ipow
        y_next = np.power(np.abs(z), 1.0 / one_minus_a)
        return y_next, z < 0.0, clamped, float(np.min(ipow))
    k, l, sigma, a = params.k, params.l, params.sigma, params.a
    if scheme is SchemeId.EULER_NAIVE:
        # sign-preserving |x|^a keeps the iteration total below zero
        diffusion = np.sign(y) * np.power(np.abs(y), a)
        y_next = y + (k * l - k * y) * dt + sigma * diffusion * dw
        neg = y_next < 0.0
    elif scheme is SchemeId.EULER_FULL_TRUNCATION:
        yp = np.maximum(y, 0.0)
        y_next = y + (k * l - k * yp) * dt + sigma * np.power(yp, a) * dw
        neg = y_next < 0.0
    else:  # EULER_REFLECTED
        proposal = y + (k * l - k * y) * dt + sigma * np.power(np.abs(y), a) * dw
        y_next, neg = np.abs(proposal), proposal < 0.0
    return y_next, neg, np.zeros_like(neg), math.inf


def _run_block(
    scheme: SchemeId,
    params: CevParams,
    dt: float,
    dw: np.ndarray,
    trajectory: np.ndarray | None = None,
    event_matrix: np.ndarray | None = None,
    first_path: int = 0,
) -> tuple[np.ndarray, np.ndarray, BatchStats]:
    """Step a (B, n) increment block from x0; returns (terminal, path_mean, stats).

    ``path_mean`` is the arithmetic mean of the n post-step values (the
    initial state excluded), as used by the Asian payoff.  Optional output
    matrices of shape (B, n+1) capture full trajectories and per-step
    negativity events.  Row i is path ``first_path + i``: a NegativeInner
    from the kernel is re-raised naming that global path and the step.
    """
    n_block, n_steps = dw.shape
    y = np.full(n_block, params.x0)
    running = np.zeros(n_block)
    sign_flips = clamp_count = 0
    min_value, min_inner_pow = float(params.x0), math.inf
    if trajectory is not None:
        trajectory[:, 0] = params.x0
    for k in range(n_steps):
        try:
            y, events, clamps, ipow_min = _step_block(scheme, y, dt, dw[:, k], params)
        except NegativeInner as exc:
            path = first_path + exc.path
            raise NegativeInner(
                f"path {path}, step {k}: {exc}", path=path, step=k
            ) from exc
        sign_flips += int(np.count_nonzero(events))
        clamp_count += int(np.count_nonzero(clamps))
        min_value = min(min_value, float(y.min()))
        min_inner_pow = min(min_inner_pow, ipow_min)
        running += y
        if trajectory is not None:
            trajectory[:, k + 1] = y
        if event_matrix is not None:
            event_matrix[:, k + 1] = events
    stats = BatchStats(sign_flips, clamp_count, min_value, min_inner_pow)
    return y, running / n_steps, stats


def semidiscrete_step(
    y: float, dt: float, dw: float, params: CevParams
) -> tuple[float, StepFlags]:
    """One explicit semi-discrete step from state ``y >= 0``.

    Returns the next state (always >= 0) and the step flags.  Propagates
    NegativeInner when the inner expression violates the clamp threshold.
    """
    if not y >= 0.0:
        raise ValidationError("y must be >= 0")
    y_next, z_neg, clamped, _ = _step_block(
        SchemeId.SEMI_DISCRETE, np.array([y], float), dt, np.array([dw], float), params
    )
    return float(y_next[0]), StepFlags(bool(z_neg[0]), bool(clamped[0]))


def euler_step(
    variant: SchemeId, x: float, dt: float, dw: float, params: CevParams
) -> float:
    """One Euler-Maruyama step of the given baseline variant.

    The state may be negative (negativity is data for the baselines, not an
    error), so no positivity precondition applies.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValidationError("dt must be a positive finite number")
    if not variant.is_euler:
        raise ValidationError(f"{variant} is not an Euler variant")
    x_next, _, _, _ = _step_block(
        variant, np.array([x], float), dt, np.array([dw], float), params
    )
    return float(x_next[0])


def simulate_path(
    scheme: SchemeId,
    params: CevParams,
    grid: TimeGrid,
    inc: IncrementArray,
) -> PathResult:
    """Iterate the chosen scheme over ``grid`` driven by ``inc``.

    The increments must match the grid exactly (same count, same step).  For
    the semi-discrete scheme every value of the result is nonnegative.
    """
    if inc.length != grid.n_steps:
        raise GridMismatch(
            f"increment count {inc.length} does not match n_steps {grid.n_steps}"
        )
    if not math.isclose(inc.dt, grid.dt, rel_tol=1e-12, abs_tol=0.0):
        raise GridMismatch(f"increment dt {inc.dt!r} does not match grid dt {grid.dt!r}")

    values = np.empty(grid.n_steps + 1)
    _, _, stats = _run_block(
        scheme, params, grid.dt, inc.values[np.newaxis], trajectory=values[np.newaxis]
    )
    return PathResult(
        times=grid.times(),
        values=values,
        sign_flip_count=stats.sign_flip_count,
        clamp_count=stats.clamp_count,
        min_value=float(values.min()),
    )
