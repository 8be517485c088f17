"""One-step maps and path simulation.

The centerpiece is the explicit semi-discrete update

    y_{k+1} = | sigma (1-a) dW_k + inner(y_k)^(1-a) | ^ (1/(1-a)),

whose output is nonnegative for every realization of the noise.  Three
Euler-Maruyama variants (naive, full-truncation, reflected) are provided as
baselines that illustrate what the update fixes: plain Euler leaves the
positive half-line.

One kernel, ``_step_block``, steps a vector of paths under any scheme, and
one stepper, ``_Walk``, drives it over time-major increments chunk by chunk,
carrying each path's state between chunks.  They are the only way to step:
every experiment reaches them through ``experiments._walk_paths``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeInner, ValidationError
from .model import CevParams, _inner_clamped

__all__ = ["SchemeId", "BatchStats"]


def _parse_member(cls: type[enum.Enum], token: str, noun: str):
    """The member of ``cls`` whose value is ``token`` up to case and blanks."""
    lowered = token.strip().lower()
    for member in cls:
        if lowered == member.value.lower():
            return member
    valid = ", ".join(m.value for m in cls)
    raise ValidationError(f"unknown {noun} {token!r}; expected one of: {valid}")


class SchemeId(enum.Enum):
    """Closed set of implemented schemes; unknown names are rejected at parse time."""

    SEMI_DISCRETE = "SemiDiscrete"
    EULER_NAIVE = "EulerNaive"
    EULER_FULL_TRUNCATION = "EulerFullTruncation"
    EULER_REFLECTED = "EulerReflected"

    @classmethod
    def parse(cls, token: str) -> "SchemeId":
        return _parse_member(cls, token, "scheme")

    @property
    def is_euler(self) -> bool:
        return self is not SchemeId.SEMI_DISCRETE


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


class _Walk:
    """One grid level of a block of paths, stepped a time-major chunk at a time.

    Carries the state, the running sum behind ``path_mean`` (the mean of the
    post-step values, the initial state excluded) and the diagnostics across
    chunks, and numbers steps from the start of the run:
    a NegativeInner from the kernel is re-raised naming the global path
    (``first_path`` + row) and the level's global step.  Optional (B, n+1)
    matrices receive the trajectory and the per-step events.
    """

    def __init__(
        self,
        scheme: SchemeId,
        params: CevParams,
        dt: float,
        n_block: int,
        first_path: int = 0,
        trajectory: np.ndarray | None = None,
        event_matrix: np.ndarray | None = None,
    ) -> None:
        self.scheme, self.params, self.dt = scheme, params, dt
        self.first_path = first_path
        self.trajectory, self.event_matrix = trajectory, event_matrix
        self.y = np.full(n_block, params.x0)
        self.running = np.zeros(n_block)
        self.steps = self.sign_flips = self.clamp_count = 0
        self.min_value, self.min_inner_pow = float(params.x0), math.inf
        if trajectory is not None:
            trajectory[:, 0] = params.x0

    def advance(self, dw: np.ndarray) -> None:
        """Take one step per row of the time-major (m, B) increments ``dw``."""
        scheme, params, dt = self.scheme, self.params, self.dt
        trajectory, event_matrix = self.trajectory, self.event_matrix
        y, running = self.y, self.running
        sign_flips, clamp_count = self.sign_flips, self.clamp_count
        min_value, min_inner_pow = self.min_value, self.min_inner_pow
        for k, dw_k in enumerate(dw, self.steps):
            try:
                y, events, clamps, ipow_min = _step_block(scheme, y, dt, dw_k, params)
            except NegativeInner as exc:
                path = self.first_path + exc.path
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
        self.y, self.steps = y, self.steps + len(dw)
        self.sign_flips, self.clamp_count = sign_flips, clamp_count
        self.min_value, self.min_inner_pow = min_value, min_inner_pow

    def result(self) -> tuple[np.ndarray, np.ndarray, BatchStats]:
        """(terminal, path_mean, stats) of the steps taken so far."""
        stats = BatchStats(
            self.sign_flips, self.clamp_count, self.min_value, self.min_inner_pow
        )
        return self.y, self.running / self.steps, stats
