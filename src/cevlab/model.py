"""Mean-reverting CEV model: parameters, stability conditions, and the
per-step quantities of the explicit positivity-preserving scheme.

The model is

    dx_t = k (l - x_t) dt + sigma x_t^a dW_t,    x_0 > 0,

with mean-reversion speed ``k >= 0``, long-run level ``l >= 0``, diffusion
coefficient ``sigma >= 0`` and elasticity exponent ``a`` strictly inside
(1/2, 1).  Everything in this module is a pure function of immutable value
types and is safe to call from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleLevel, NegativeInner, ValidationError

__all__ = [
    "INNER_CLAMP_REL",
    "CevParams",
    "TimeGrid",
    "AssumptionAReport",
    "max_stable_step",
    "validate_assumption_a",
    "inner_value",
    "analytic_mean",
    "step_negativity_prob",
    "normal_cdf",
]

# Relative clamp threshold for rounding-induced negativity of the inner
# expression: values in [-tol, 0) with tol = INNER_CLAMP_REL * max(1, y)
# are clamped to 0 and counted; anything below raises NegativeInner.
INNER_CLAMP_REL = 1e-12


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


@dataclass(frozen=True)
class CevParams:
    """Constants of the mean-reverting CEV dynamics.

    Attributes:
        k: mean-reversion speed (1/time), nonnegative.
        l: long-run level (state units), nonnegative.
        sigma: diffusion coefficient (state^(1-a)/sqrt(time)), nonnegative.
        a: elasticity exponent, strictly in (0.5, 1).
        x0: initial state, strictly positive.
    """

    k: float
    l: float
    sigma: float
    a: float
    x0: float

    def __post_init__(self) -> None:
        for name in ("k", "l", "sigma", "a", "x0"):
            v = getattr(self, name)
            _require(isinstance(v, (int, float)) and math.isfinite(v),
                     f"{name} must be a finite number, got {v!r}")
            object.__setattr__(self, name, float(v))
        _require(self.k >= 0.0, "k must be >= 0")
        _require(self.l >= 0.0, "l must be >= 0")
        _require(self.sigma >= 0.0, "sigma must be >= 0")
        _require(0.5 < self.a < 1.0, "a must lie in (0.5, 1)")
        _require(self.x0 > 0.0, "x0 must be > 0")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = t_end with step dt = t_end / n."""

    t_end: float
    n_steps: int
    dt: float = field(init=False)

    def __post_init__(self) -> None:
        _require(isinstance(self.n_steps, int) and self.n_steps >= 1,
                 "n_steps must be an integer >= 1")
        _require(math.isfinite(self.t_end) and self.t_end > 0.0,
                 "t_end must be a positive finite number")
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "dt", self.t_end / self.n_steps)

    def times(self) -> np.ndarray:
        """Grid nodes t_0 .. t_n as a length n_steps+1 array."""
        return np.linspace(0.0, self.t_end, self.n_steps + 1)


@dataclass(frozen=True)
class AssumptionAReport:
    """Outcome of the two stability inequalities.

    ``feasible`` is the conjunction of the drift condition k*l >= a*sigma^2/2
    and the step condition dt <= 2/(2k + a*sigma^2).  Infeasibility is data,
    not an error.
    """

    feasible: bool
    drift_condition_ok: bool
    step_condition_ok: bool
    max_step: float
    margin: float


def max_stable_step(params: CevParams) -> float:
    """Largest step size satisfying the step condition, 2/(2k + a*sigma^2).

    Returns +inf for the degenerate noiseless/driftless model k = sigma = 0.
    """
    denom = 2.0 * params.k + params.a * params.sigma**2
    return math.inf if denom == 0.0 else 2.0 / denom


def validate_assumption_a(params: CevParams, dt: float) -> AssumptionAReport:
    """Evaluate both stability inequalities for step size ``dt``.

    Both inequalities are non-strict: exact equality with the bound is
    accepted.  ``dt`` may be +inf so the degenerate k = sigma = 0 sentinel
    returned by max_stable_step can be validated directly.
    """
    _require(not math.isnan(dt) and dt > 0.0, "dt must be a positive number")
    margin = params.k * params.l - 0.5 * params.a * params.sigma**2
    drift_ok = margin >= 0.0
    bound = max_stable_step(params)
    step_ok = dt <= bound
    return AssumptionAReport(
        feasible=drift_ok and step_ok,
        drift_condition_ok=drift_ok,
        step_condition_ok=step_ok,
        max_step=bound,
        margin=margin,
    )


def _require_feasible(params: CevParams, dt: float, what: str) -> None:
    """Raise InfeasibleLevel naming ``what`` unless step ``dt`` satisfies both
    stability conditions; the one feasibility rule of every stepping run."""
    report = validate_assumption_a(params, dt)
    if not report.feasible:
        raise InfeasibleLevel(
            f"{what} (dt={dt:.6g}) violates the stability conditions: "
            f"max stable step {report.max_step:.6g}, margin {report.margin:.6g}"
        )


def _inner_raw(y, dt: float, params: CevParams):
    """Inner deterministic expression y(1 - k dt) + dt (k l - a sigma^2 y^(2a-1) / 2).

    Array-capable; the y = 0 case yields dt*k*l since 0^(2a-1) = 0 for
    a > 1/2 (np.power handles the zero base without evaluating a log).
    """
    pow_term = np.power(y, 2.0 * params.a - 1.0)
    return y * (1.0 - params.k * dt) + dt * (
        params.k * params.l - 0.5 * params.a * params.sigma**2 * pow_term
    )


def _inner_clamped(y, dt: float, params: CevParams):
    """Array-capable inner expression with the rounding clamp applied.

    Returns ``(inner, clamp_mask)``.  Raises NegativeInner if any value falls
    below -INNER_CLAMP_REL * max(1, y), which signals a genuine violation of
    the step condition rather than rounding noise.
    """
    raw = _inner_raw(y, dt, params)
    tol = INNER_CLAMP_REL * np.maximum(1.0, y)
    below = raw < -tol
    if np.any(below):
        first = int(np.argmax(below))
        raise NegativeInner(
            f"inner expression reached {float(np.ravel(raw)[first]):.6e}, below the "
            f"clamp threshold; step condition violated for dt={dt!r} (max stable "
            f"step {max_stable_step(params):.6g})",
            path=first,
        )
    clamp = raw < 0.0
    return np.where(clamp, 0.0, raw), clamp


def inner_value(y: float, dt: float, params: CevParams) -> float:
    """Inner deterministic expression at state ``y``, clamped at zero.

    Under the stability conditions the exact value is nonnegative; only
    floating-point rounding can produce a tiny negative, which is clamped.
    Larger negatives raise :class:`NegativeInner`.
    """
    _require(y >= 0.0, "y must be >= 0")
    return float(_inner_clamped(float(y), dt, params)[0])


def analytic_mean(params: CevParams, t: float) -> float:
    """Exact first moment l + (x0 - l) exp(-k t) of the model at time ``t``."""
    _require(math.isfinite(t) and t >= 0.0, "t must be >= 0")
    return params.l + (params.x0 - params.l) * math.exp(-params.k * t)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    Accurate to a few ulp into the far left tail; underflows to 0 around
    x < -38, which is acceptable for tail diagnostics.
    """
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _sign_flip_prob(inner_pow: float, dt: float, params: CevParams) -> float:
    """One-step sign-flip probability from a state with inner^(1-a) equal to
    ``inner_pow``; the formula of :func:`step_negativity_prob`."""
    if params.sigma == 0.0:
        return 0.0
    scale = params.sigma * (1.0 - params.a) * math.sqrt(dt)
    return normal_cdf(-inner_pow / scale)


def step_negativity_prob(y: float, dt: float, params: CevParams) -> float:
    """Exact conditional probability that the next scheme noise term z goes
    nonpositive from state ``y``.

    This is Phi(-inner^(1-a) / (sigma (1-a) sqrt(dt))) with Phi the standard
    normal CDF.  Returns 0 by convention for a noiseless model (sigma = 0).
    """
    inner = inner_value(y, dt, params)
    ipow = 0.0 if inner == 0.0 else inner ** (1.0 - params.a)
    return _sign_flip_prob(ipow, dt, params)
