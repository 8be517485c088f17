"""Independent reference stepper for the semi-discrete CEV update.

Written from the published formulas only, with scalar Python arithmetic, so
that it shares no code with ``cevlab``:

    inner(y)  = y (1 - k dt) + dt (k l - a sigma^2 y^(2a-1) / 2)
    y_next    = | sigma (1-a) dW + inner(y)^(1-a) | ^ (1/(1-a))

Noise follows the documented stream contract: path ``p`` of master seed ``s``
draws standard normals from ``Generator(Philox(key=[s, p]))`` and scales them
by sqrt(dt).  Results are compared to the program with a relative tolerance,
never bitwise: the program evaluates the same formulas with array kernels.
"""

from __future__ import annotations

import math

import numpy as np


def increments(seed: int, path: int, n_steps: int, dt: float) -> list[float]:
    """The n_steps Brownian increments of one path under the stream contract."""
    key = np.array([seed, path], dtype=np.uint64)
    normals = np.random.Generator(np.random.Philox(key=key)).standard_normal(n_steps)
    return [float(z) * math.sqrt(dt) for z in normals]


def step(y: float, dt: float, dw: float, k: float, l: float, sigma: float, a: float) -> float:
    """One semi-discrete step; a rounding-negative inner value counts as 0."""
    inner = y * (1.0 - k * dt) + dt * (k * l - 0.5 * a * sigma * sigma * y ** (2.0 * a - 1.0))
    inner = max(inner, 0.0)
    z = sigma * (1.0 - a) * dw + inner ** (1.0 - a)
    return abs(z) ** (1.0 / (1.0 - a))


def path(
    seed: int, index: int, n_steps: int, t_end: float,
    k: float, l: float, sigma: float, a: float, x0: float,
) -> list[float]:
    """Trajectory y_0 .. y_n of path ``index`` on a uniform grid."""
    dt = t_end / n_steps
    ys = [x0]
    for dw in increments(seed, index, n_steps, dt):
        ys.append(step(ys[-1], dt, dw, k, l, sigma, a))
    return ys
