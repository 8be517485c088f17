"""Mean-reverting CEV model: parameters, stability conditions, and the
per-step quantities of the explicit positivity-preserving scheme.

The model is

    dx_t = k (l - x_t) dt + sigma x_t^a dW_t,    x_0 > 0,

with mean-reversion speed ``k >= 0``, long-run level ``l >= 0``, diffusion
coefficient ``sigma >= 0`` and elasticity exponent ``a`` strictly inside
(1/2, 1).  Everything in this module is a pure function of immutable value
types and is safe to call from any number of threads, except that
``_inner_clamped`` writes into the ``out`` and ``scratch`` buffers its
caller passes: a thread that passes buffers of its own shares nothing.

This module also holds every input rule a run is validated by (schemes,
payoffs, seeds, path counts, the dyadic ladder, stability) and the text of
a float in an artifact, so that ``config`` and the CLI can validate a run,
and print its resolved config, without the numpy engine.  Importing it
loads no numpy; ``TimeGrid.times``, ``_inner_clamped``, ``inner_value``,
``step_negativity_prob`` and ``max_step_negativity_bound`` import it when
called.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import InfeasibleLevel, NegativeInner, ValidationError, _shown

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "INNER_CLAMP_REL",
    "CevParams",
    "TimeGrid",
    "SchemeId",
    "PayoffKind",
    "PayoffSpec",
    "AssumptionAReport",
    "max_stable_step",
    "validate_assumption_a",
    "inner_value",
    "analytic_mean",
    "step_negativity_prob",
    "max_step_negativity_bound",
    "normal_cdf",
]

# Relative clamp threshold for rounding-induced negativity of the inner
# expression: values in [-tol, 0) with tol = INNER_CLAMP_REL * max(1, y)
# are clamped to 0 and counted; anything below raises NegativeInner.
INNER_CLAMP_REL = 1e-12


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _is_finite_number(v) -> bool:
    """An int or a float, not a bool, that is finite as a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


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
            _require(_is_finite_number(v),
                     f"{name} must be a finite number, got {_shown(v)}")
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
        n_steps = self.n_steps
        _require(isinstance(n_steps, int) and not isinstance(n_steps, bool)
                 and n_steps >= 1, "n_steps must be an integer >= 1")
        _require(_is_finite_number(self.t_end) and self.t_end > 0.0,
                 "t_end must be a positive finite number")
        object.__setattr__(self, "t_end", float(self.t_end))
        try:
            dt = self.t_end / n_steps
        except OverflowError:  # n_steps beyond the float range
            dt = 0.0
        _require(dt > 0.0, "n_steps must be small enough that t_end / n_steps "
                 "is a positive float")
        object.__setattr__(self, "dt", dt)

    def times(self) -> np.ndarray:
        """Grid nodes t_0 .. t_n as a length n_steps+1 array."""
        import numpy as np

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


def _require_feasible_ladder(
    params: CevParams, grid: TimeGrid, test_exponents: tuple[int, ...]
) -> None:
    """Every test level and the reference level of the semi-discrete ladder
    must satisfy the stability conditions; raises InfeasibleLevel otherwise."""
    for e in test_exponents:
        _require_feasible(params, grid.t_end / 2**e, f"test level e={e}")
    ref = grid.n_steps.bit_length() - 1
    _require_feasible(params, grid.dt, f"reference level r={ref}")


def _ladder_heights(grid: TimeGrid, exps: tuple[int, ...]) -> tuple[int, ...]:
    """Heights ref - e of the test exponents ``exps`` above the reference
    grid, finest level first, where 2^ref is ``grid.n_steps``; every rule of
    a dyadic ladder is checked here.  Raises ValidationError."""
    ref = grid.n_steps.bit_length() - 1
    if grid.n_steps != 2**ref:
        raise ValidationError(
            f"the reference grid's n_steps must be a power of two, got {grid.n_steps}"
        )
    if any(isinstance(e, bool) or not isinstance(e, int) for e in exps):
        raise ValidationError(f"test exponents must be ints, got {exps!r}")
    if not exps:
        raise ValidationError("test_exponents must be non-empty")
    if any(e < 0 for e in exps):
        raise ValidationError("test exponents must be nonnegative")
    if any(b <= a for a, b in zip(exps, exps[1:])):
        raise ValidationError("test exponents must be strictly ascending")
    if ref <= exps[-1]:
        raise ValidationError(
            f"ref_exponent must exceed every test exponent (got {ref} <= {exps[-1]})"
        )
    return tuple(ref - e for e in reversed(exps))


_U64 = 2**64


def _require_u64(name: str, v) -> None:
    """The one rule for every seed and path index: an int (not a bool) in
    [0, 2^64), the range of a Philox key word."""
    if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < _U64:
        raise ValidationError(
            f"{name} must be an integer in [0, 2^64), got {_shown(v)}"
        )


def _require_paths(n_paths, minimum: int) -> None:
    """The one path-count rule: an int (not a bool) from ``minimum`` to 2^64,
    since path p is keyed by the 64-bit word p."""
    is_int = isinstance(n_paths, int) and not isinstance(n_paths, bool)
    if not (is_int and minimum <= n_paths <= 2**64):
        raise ValidationError(
            f"n_paths must be an int >= {minimum} and <= 2^64, got {_shown(n_paths)}"
        )


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


class PayoffKind(enum.Enum):
    EUROPEAN_CALL = "EuropeanCall"
    EUROPEAN_PUT = "EuropeanPut"
    ASIAN_ARITHMETIC_CALL = "AsianArithmeticCall"

    @classmethod
    def parse(cls, token: str) -> "PayoffKind":
        return _parse_member(cls, token, "payoff")


@dataclass(frozen=True)
class PayoffSpec:
    """Payoff selector.  The Asian call averages the post-step values
    (initial state excluded)."""

    kind: PayoffKind
    strike: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, PayoffKind):
            raise ValidationError(f"kind must be a PayoffKind, got {_shown(self.kind)}")
        if not (_is_finite_number(self.strike) and self.strike >= 0.0):
            raise ValidationError(f"strike must be a number >= 0, got {_shown(self.strike)}")


def format_float(x: float) -> str:
    """``%.17g`` text of a float, with ``NaN``, ``Infinity`` and ``-Infinity``:
    the text of every float in an artifact."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _inner_clamped(y, dt: float, params: CevParams, out=None, scratch=None):
    """(inner, clamp count): the inner deterministic expression
    y(1 - k dt) + dt (k l - a sigma^2 y^(2a-1) / 2) at the states ``y``, an
    array, with the rounding clamp applied in place.  This is the one
    evaluation of it, which the kernel runs in its own buffers ``out`` and
    ``scratch`` (both allocated if None).

    The y = 0 case yields dt*k*l since 0^(2a-1) = 0 for a > 1/2 (np.power
    handles the zero base without evaluating a log).  The clamp runs only
    when some value is negative or NaN: a negative is set to 0 and counted;
    a NaN is kept.

    Raises NegativeInner if any value falls below -INNER_CLAMP_REL * max(1, y),
    which signals a genuine violation of the step condition rather than
    rounding noise.
    """
    import numpy as np

    k, sigma, a = params.k, params.sigma, params.a
    t = np.power(y, 2.0 * a - 1.0, out=scratch)
    np.multiply(t, 0.5 * a * sigma**2, out=t)
    np.subtract(k * params.l, t, out=t)
    np.multiply(t, dt, out=t)
    inner = np.multiply(y, 1.0 - k * dt, out=out)
    np.add(inner, t, out=inner)
    if np.minimum.reduce(inner) >= 0.0:
        return inner, 0
    below = inner < -INNER_CLAMP_REL * np.maximum(1.0, y)
    if np.any(below):
        first = int(np.argmax(below))
        raise NegativeInner(
            f"inner expression reached {float(inner[first]):.6e}, below the "
            f"clamp threshold; step condition violated for dt={dt!r} (max stable "
            f"step {max_stable_step(params):.6g})",
            path=first,
        )
    clamp = inner < 0.0
    inner[clamp] = 0.0
    return inner, int(np.count_nonzero(clamp))


def inner_value(y: float, dt: float, params: CevParams) -> float:
    """Inner deterministic expression at state ``y``, clamped at zero.

    Under the stability conditions the exact value is nonnegative; only
    floating-point rounding can produce a tiny negative, which is clamped.
    Larger negatives raise :class:`NegativeInner`.  ``y`` must be a finite
    number >= 0 and ``dt`` a finite number > 0, or ValidationError.
    """
    import numpy as np

    _require(_is_finite_number(y) and y >= 0.0,
             f"y must be a finite number >= 0, got {_shown(y)}")
    _require(_is_finite_number(dt) and dt > 0.0,
             f"dt must be a finite number > 0, got {_shown(dt)}")
    return float(_inner_clamped(np.array([float(y)]), dt, params)[0][0])


def analytic_mean(params: CevParams, t: float) -> float:
    """Exact first moment l + (x0 - l) exp(-k t) of the model at time ``t``."""
    _require(_is_finite_number(t) and t >= 0.0,
             f"t must be a finite number >= 0, got {_shown(t)}")
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
    ``y`` and ``dt`` follow :func:`inner_value`'s rules, or ValidationError.
    """
    import numpy as np

    # the kernel's np.power, not libm's pow, so the result has the kernel's bits
    ipow = np.power(inner_value(y, dt, params), 1.0 - params.a)
    return _sign_flip_prob(float(ipow), dt, params)


def max_step_negativity_bound(params: CevParams, dt: float) -> float:
    """Largest :func:`step_negativity_prob` over all states y >= 0 at a step
    ``dt`` within the step condition.

    inner is convex in y (it subtracts a multiple of y^(2a-1), which is
    concave), so its minimum, and with it the largest flip probability, lies
    where its derivative vanishes:
    y* = (dt a sigma^2 (2a-1) / (2 (1 - k dt)))^(1/(2-2a)).  No run's
    ``max_step_negativity_prob`` can exceed this bound.
    """
    _require(0.0 < dt <= max_stable_step(params), "dt must be in (0, max stable step]")
    if params.sigma == 0.0:  # no noise, no flip; and y* would be 0/0 at dt = 1/k
        return 0.0
    a = params.a
    y_star = (dt * a * params.sigma**2 * (2.0 * a - 1.0)
              / (2.0 * (1.0 - params.k * dt))) ** (1.0 / (2.0 - 2.0 * a))
    return step_negativity_prob(y_star, dt, params)
