"""One-step maps and path simulation.

The centerpiece is the explicit semi-discrete update

    y_{k+1} = | sigma (1-a) dW_k + inner(y_k)^(1-a) | ^ (1/(1-a)),

whose output is nonnegative for every realization of the noise.  Three
Euler-Maruyama variants (naive, full-truncation, reflected) are provided as
baselines that illustrate what the update fixes: plain Euler leaves the
positive half-line.

One stepping layer does the work.  ``_Walk`` holds a block of paths at one
step size: the per-run scalars, the buffers and each path's state, which it
carries from chunk to chunk of time-major increments.  ``_step_block`` is
its step under any scheme, a fixed sequence of in-place array passes; the
semi-discrete step evaluates inner(y_k) through ``model._inner_clamped``, in
the walk's buffers.  They are the only way to step: every experiment reaches
them through ``experiments._walk_paths``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeInner
from .model import CevParams, SchemeId, _inner_clamped

__all__ = ["BatchStats"]


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


def _step_block(walk: _Walk, y, dw):
    """One step of ``walk``'s scheme from the states ``y`` on the increments
    ``dw``: (next, events, clamp count, inner_pow_min).

    Every array pass writes into a buffer of ``walk``, and the next state
    into ``walk.out``.  ``events`` marks a negative noise term z
    (semi-discrete) or a negative proposed iterate (Euler variants); it is
    None when the min shows there is none, so a mask is built only on a step
    that has an event; likewise ``model._inner_clamped`` clamps only when
    some inner value is negative or NaN.  ``inner_pow_min`` is
    the smallest inner^(1-a) at the pre-step states; it is +inf for Euler
    variants, which have no inner expression and never clamp.
    """
    t, z, out = walk.a_buf, walk.b_buf, walk.out
    if walk.scheme is SchemeId.SEMI_DISCRETE:
        inner, clamps = _inner_clamped(y, walk.dt, walk.params, z, t)
        ipow = np.power(inner, walk.one_minus_a, out=t)
        ipow_min = float(np.minimum.reduce(ipow))
        np.multiply(dw, walk.noise, out=z)
        np.add(z, ipow, out=z)
        events = None if np.minimum.reduce(z) >= 0.0 else z < 0.0
        np.abs(z, out=z)
        np.power(z, walk.out_exp, out=out)
        return out, events, clamps, ipow_min
    k, sigma, a = walk.params.k, walk.params.sigma, walk.params.a
    drift, diffusion = t, z
    if walk.scheme is SchemeId.EULER_NAIVE:
        # sign-preserving |x|^a keeps the iteration total below zero
        np.abs(y, out=diffusion)
        np.power(diffusion, a, out=diffusion)
        np.multiply(np.sign(y, out=drift), diffusion, out=diffusion)
        np.multiply(y, k, out=drift)
    elif walk.scheme is SchemeId.EULER_FULL_TRUNCATION:
        np.maximum(y, 0.0, out=drift)
        np.power(drift, a, out=diffusion)
        np.multiply(drift, k, out=drift)
    else:  # EULER_REFLECTED
        np.abs(y, out=diffusion)
        np.power(diffusion, a, out=diffusion)
        np.multiply(y, k, out=drift)
    # y + (k l - k y) dt + sigma diffusion dw, each scheme's y in k y
    np.subtract(walk.kl, drift, out=drift)
    np.multiply(drift, walk.dt, out=drift)
    np.add(y, drift, out=drift)
    np.multiply(diffusion, sigma, out=diffusion)
    np.multiply(diffusion, dw, out=diffusion)
    proposal = np.add(drift, diffusion, out=out)
    events = None if np.minimum.reduce(proposal) >= 0.0 else proposal < 0.0
    if walk.scheme is SchemeId.EULER_REFLECTED:
        np.abs(proposal, out=out)
    return out, events, 0, math.inf


class _Walk:
    """One grid level of a block of paths, stepped a time-major chunk at a time.

    The walk is the step's state: it hoists the per-run scalars of its
    scheme at step ``dt``, but not the inner expression's, which ``model``
    evaluates in the walk's buffers.  It owns two scratch buffers and two
    state buffers: each step writes the next state into ``out``, and the
    state it left becomes the next ``out``.

    Carries the state, the running sum behind ``path_mean`` (the mean of the
    post-step values, the initial state excluded) and the diagnostics across
    chunks, and numbers steps from the start of the run:
    a NegativeInner from the step is re-raised naming the global path
    (``first_path`` + row) and the level's global step.  Optional (B, n+1)
    matrices receive the trajectory and the per-step events; the walk writes
    every column of both, so neither needs initialising.
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
        self.kl = params.k * params.l
        self.one_minus_a = 1.0 - params.a
        self.noise = params.sigma * self.one_minus_a
        self.out_exp = 1.0 / self.one_minus_a
        self.a_buf, self.b_buf, self.out = (np.empty(n_block) for _ in range(3))
        self.first_path = first_path
        self.trajectory, self.event_matrix = trajectory, event_matrix
        self.y = np.full(n_block, params.x0)
        self.running = np.zeros(n_block)
        self.steps = self.sign_flips = self.clamp_count = 0
        self.min_value, self.min_inner_pow = float(params.x0), math.inf
        if trajectory is not None:
            trajectory[:, 0] = params.x0
        if event_matrix is not None:
            event_matrix[:, 0] = 0

    def advance(self, dw: np.ndarray) -> None:
        """Take one step per row of the time-major (m, B) increments ``dw``."""
        trajectory, event_matrix = self.trajectory, self.event_matrix
        y, running = self.y, self.running
        sign_flips, clamp_count = self.sign_flips, self.clamp_count
        min_value, min_inner_pow = self.min_value, self.min_inner_pow
        for k, dw_k in enumerate(dw, self.steps):
            try:
                y_next, events, clamps, ipow_min = _step_block(self, y, dw_k)
            except NegativeInner as exc:
                path = self.first_path + exc.path
                raise NegativeInner(
                    f"path {path}, step {k}: {exc}", path=path, step=k
                ) from exc
            if events is not None:
                sign_flips += int(np.count_nonzero(events))
            clamp_count += clamps
            min_value = min(min_value, float(np.minimum.reduce(y_next)))
            min_inner_pow = min(min_inner_pow, ipow_min)
            running += y_next
            if trajectory is not None:
                trajectory[:, k + 1] = y_next
            if event_matrix is not None:
                event_matrix[:, k + 1] = 0 if events is None else events
            # the state just left is the buffer the next step writes
            self.out, y = y, y_next
        self.y, self.steps = y, self.steps + len(dw)
        self.sign_flips, self.clamp_count = sign_flips, clamp_count
        self.min_value, self.min_inner_pow = min_value, min_inner_pow

    def result(self) -> tuple[np.ndarray, np.ndarray, BatchStats]:
        """(terminal, path_mean, stats) of the steps taken so far."""
        stats = BatchStats(
            self.sign_flips, self.clamp_count, self.min_value, self.min_inner_pow
        )
        return self.y, self.running / self.steps, stats
