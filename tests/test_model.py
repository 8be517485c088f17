"""Model parameters, stability conditions, inner expression, analytic mean,
and the one-step sign-flip probability."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cevlab import (
    CevParams,
    NegativeInner,
    TimeGrid,
    ValidationError,
    analytic_mean,
    inner_value,
    max_stable_step,
    normal_cdf,
    step_negativity_prob,
    validate_assumption_a,
)
from cevlab.model import _inner_clamped, max_step_negativity_bound


# ---------------------------------------------------------------------------
# parameter and grid invariants
# ---------------------------------------------------------------------------


class TestCevParams:
    def test_accepts_valid(self):
        p = CevParams(k=1, l=1, sigma=1, a=0.75, x0=1)
        assert p.a == 0.75

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(k=-0.1, l=1, sigma=1, a=0.75, x0=1), "k must be"),
            (dict(k=1, l=-1, sigma=1, a=0.75, x0=1), "l must be"),
            (dict(k=1, l=1, sigma=-2, a=0.75, x0=1), "sigma must be"),
            (dict(k=1, l=1, sigma=1, a=0.5, x0=1), "a must lie in (0.5, 1)"),
            (dict(k=1, l=1, sigma=1, a=1.0, x0=1), "a must lie in (0.5, 1)"),
            (dict(k=1, l=1, sigma=1, a=1.2, x0=1), "a must lie in (0.5, 1)"),
            (dict(k=1, l=1, sigma=1, a=0.75, x0=0.0), "x0 must be"),
            (dict(k=math.nan, l=1, sigma=1, a=0.75, x0=1), "finite"),
            (dict(k=True, l=1, sigma=1, a=0.75, x0=1), "k must be a finite number"),
            (dict(k=1, l=1, sigma=1, a=0.75, x0=False), "x0 must be a finite number"),
            (dict(k=1, l="1", sigma=1, a=0.75, x0=1), "l must be a finite number"),
            (dict(k=1, l=1, sigma=None, a=0.75, x0=1), "sigma must be a finite number"),
            (dict(k=1, l=10**400, sigma=1, a=0.75, x0=1), "l must be a finite number"),
            (dict(k=10**5000, l=1, sigma=1, a=0.75, x0=1),
             "k must be a finite number, got an int of 16610 bits"),
        ],
    )
    def test_rejects_invalid(self, kwargs, fragment):
        with pytest.raises(ValidationError, match=None) as err:
            CevParams(**kwargs)
        assert fragment in str(err.value)


class TestTimeGrid:
    def test_step_times_product(self):
        grid = TimeGrid(t_end=1.0, n_steps=64)
        assert grid.dt == 1.0 / 64
        assert grid.dt * grid.n_steps == pytest.approx(grid.t_end, rel=1e-15)
        times = grid.times()
        assert times.shape == (65,)
        assert times[0] == 0.0 and times[-1] == 1.0

    def test_rejects_bad_steps(self):
        with pytest.raises(ValidationError):
            TimeGrid(t_end=1.0, n_steps=0)
        with pytest.raises(ValidationError):
            TimeGrid(t_end=-1.0, n_steps=4)

    @pytest.mark.parametrize(
        "t_end, n_steps, fragment",
        [
            (1.0, True, "n_steps must be an integer"),
            (1.0, 4.0, "n_steps must be an integer"),
            ("1", 4, "t_end must be a positive finite number"),
            (True, 4, "t_end must be a positive finite number"),
            (None, 4, "t_end must be a positive finite number"),
            (10**400, 4, "t_end must be a positive finite number"),
            (1.0, 10**400, "n_steps must be small enough"),
            (1e-300, 10**300, "n_steps must be small enough"),
        ],
    )
    def test_rejects_bools_and_non_numbers(self, t_end, n_steps, fragment):
        with pytest.raises(ValidationError, match=fragment):
            TimeGrid(t_end, n_steps)


# ---------------------------------------------------------------------------
# stability conditions
# ---------------------------------------------------------------------------


class TestStabilityConditions:
    def test_feasible_standard(self):
        report = validate_assumption_a(CevParams(k=1, l=1, sigma=1, a=0.75, x0=1), 0.5)
        assert report.feasible
        assert report.drift_condition_ok and report.step_condition_ok
        assert report.max_step == pytest.approx(2 / 2.75, rel=1e-15)
        assert report.margin == pytest.approx(0.625, rel=1e-15)

    def test_drift_violation_is_data(self):
        report = validate_assumption_a(CevParams(k=0, l=5, sigma=2, a=0.6, x0=1), 0.1)
        assert not report.drift_condition_ok
        assert not report.feasible
        assert report.step_condition_ok
        assert report.margin == pytest.approx(-1.2, rel=1e-15)

    def test_boundary_step_accepted(self):
        report = validate_assumption_a(CevParams(k=2, l=1, sigma=0, a=0.75, x0=1), 0.5)
        assert report.feasible
        assert report.max_step == 0.5

    @pytest.mark.parametrize(
        "params, expected",
        [
            (CevParams(k=1, l=1, sigma=1, a=0.75, x0=1), 2 / 2.75),
            (CevParams(k=0, l=5, sigma=0, a=0.6, x0=1), math.inf),
            (CevParams(k=2, l=1, sigma=0, a=0.9, x0=1), 0.5),
        ],
    )
    def test_max_stable_step(self, params, expected):
        assert max_stable_step(params) == pytest.approx(expected, rel=1e-15)

    @given(
        k=st.floats(0.0, 5.0),
        sigma=st.floats(0.0, 3.0),
        a=st.floats(0.51, 0.99),
        extra=st.floats(0.0, 4.0),
        x0=st.floats(1e-6, 1e3),
    )
    def test_boundary_step_always_feasible_when_drift_holds(self, k, sigma, a, extra, x0):
        # construct l so that k*l >= a*sigma^2/2 holds (boundary when extra=0);
        # rounding of l = (a sigma^2/2 + extra)/k may break the premise by one
        # ulp, in which case the property does not apply
        if k == 0.0:
            l = extra
        else:
            l = (a * sigma**2 / 2 + extra) / k
        # a subnormal k overflows l to inf, which CevParams rightly rejects
        assume(math.isfinite(l))
        params = CevParams(k=k, l=l, sigma=sigma, a=a, x0=x0)
        assume(params.k * params.l - 0.5 * params.a * params.sigma**2 >= 0.0)
        report = validate_assumption_a(params, max_stable_step(params))
        assert report.feasible


# ---------------------------------------------------------------------------
# inner expression
# ---------------------------------------------------------------------------


class TestInnerValue:
    def test_unit_state(self):
        p = CevParams(k=1, l=1, sigma=0.5, a=0.75, x0=1)
        assert inner_value(1.0, 0.1, p) == pytest.approx(0.990625, rel=1e-15)

    def test_zero_state_reduces_to_drift(self):
        p = CevParams(k=1, l=1, sigma=1, a=0.6, x0=1)
        assert inner_value(0.0, 0.1, p) == pytest.approx(0.1, rel=1e-15)

    def test_perfect_square_power(self):
        p = CevParams(k=1, l=1, sigma=1, a=0.75, x0=1)
        assert inner_value(4.0, 0.1, p) == pytest.approx(3.625, rel=1e-15)

    def test_rejects_negative_state(self):
        p = CevParams(k=1, l=1, sigma=1, a=0.75, x0=1)
        with pytest.raises(ValidationError):
            inner_value(-0.5, 0.1, p)

    def test_large_negative_raises(self):
        # drift condition fails badly: inner goes genuinely negative
        p = CevParams(k=0, l=5, sigma=2, a=0.6, x0=1)
        with pytest.raises(NegativeInner):
            inner_value(0.01, 0.1, p)

    def test_no_clamp_on_clean_input(self):
        p = CevParams(k=1, l=1, sigma=1, a=0.75, x0=1)
        value, clamps = _inner_clamped(np.array([0.3]), 0.25, p)
        assert value[0] > 0.0 and clamps == 0

    def test_matches_50_digit_arithmetic(self):
        """Double-precision evaluation stays within 1e-14 relative of exact."""
        mp.mp.dps = 50
        rng = np.random.default_rng(20240915)
        for _ in range(100):
            a = rng.uniform(0.55, 0.95)
            sigma = rng.uniform(0.1, 2.0)
            k = rng.uniform(0.2, 3.0)
            margin = rng.uniform(0.1, 1.0)
            l = (a * sigma**2 / 2 + margin) / k
            params = CevParams(k=k, l=l, sigma=sigma, a=a, x0=1.0)
            dt = rng.uniform(0.1, 0.9) * max_stable_step(params)
            y = float(10 ** rng.uniform(-3, 3))
            got = inner_value(y, dt, params)
            ak, al, asig, aa, ay, adt = (
                mp.mpf(repr(v)) for v in (k, l, sigma, a, y, dt)
            )
            exact = ay * (1 - ak * adt) + adt * (
                ak * al - aa * asig**2 / 2 * ay ** (2 * aa - 1)
            )
            assert abs(got - float(exact)) <= 1e-14 * abs(float(exact))

    @given(
        a=st.floats(0.51, 0.99),
        sigma=st.floats(0.0, 3.0),
        k=st.floats(0.01, 5.0),
        extra=st.floats(0.0, 2.0),
        frac=st.floats(0.01, 1.0),
        y=st.floats(0.0, 1e6),
    )
    @settings(max_examples=200)
    def test_nonnegative_on_feasible_region(self, a, sigma, k, extra, frac, y):
        """Including the drift boundary (extra=0) and the full step bound (frac=1)."""
        l = (a * sigma**2 / 2 + extra) / k
        params = CevParams(k=k, l=l, sigma=sigma, a=a, x0=1.0)
        dt = frac * max_stable_step(params)
        assert inner_value(y, dt, params) >= 0.0


# ---------------------------------------------------------------------------
# analytic mean
# ---------------------------------------------------------------------------


class TestAnalyticMean:
    def test_fixed_point(self):
        p = CevParams(k=1, l=1, sigma=1, a=0.75, x0=1)
        assert analytic_mean(p, 0.0) == 1.0
        assert analytic_mean(p, 17.3) == 1.0

    def test_no_reversion(self):
        p = CevParams(k=0, l=9.0, sigma=1, a=0.75, x0=2)
        assert analytic_mean(p, 5.0) == 2.0

    def test_relaxation_value(self):
        p = CevParams(k=1, l=1, sigma=1, a=0.75, x0=2)
        assert analytic_mean(p, 1.0) == pytest.approx(1.3678794411714423, rel=1e-15)

    def test_matches_ode_oracle(self):
        """m' = k l - k m integrated numerically agrees with the closed form."""
        from scipy.integrate import solve_ivp

        cases = [
            (CevParams(k=1.0, l=1.0, sigma=1, a=0.75, x0=2.0), 1.0),
            (CevParams(k=2.5, l=0.3, sigma=0.5, a=0.6, x0=0.7), 2.0),
            (CevParams(k=0.2, l=4.0, sigma=1, a=0.9, x0=1.0), 3.5),
        ]
        for params, t in cases:
            sol = solve_ivp(
                lambda _, m: params.k * params.l - params.k * m,
                (0.0, t),
                [params.x0],
                rtol=1e-12,
                atol=1e-14,
            )
            assert analytic_mean(params, t) == pytest.approx(
                sol.y[0, -1], rel=1e-9
            )


# ---------------------------------------------------------------------------
# one-step sign-flip probability
# ---------------------------------------------------------------------------


class TestStepNegativityProb:
    def test_zero_inner_gives_half(self):
        # l = 0 and y = 0 force inner = dt*k*l = 0 exactly, so the flip
        # probability is Phi(0) = 1/2
        p = CevParams(k=1.0, l=0.0, sigma=1.0, a=0.6, x0=1)
        assert inner_value(0.0, 0.1, p) == 0.0
        assert step_negativity_prob(0.0, 0.1, p) == pytest.approx(0.5, abs=1e-15)

    def test_tail_value_matches_high_precision_oracle(self):
        # frozen from mpmath.ncdf at 50 digits
        p = CevParams(k=1, l=1, sigma=0.5, a=0.75, x0=1)
        got = step_negativity_prob(1.0, 0.1, p)
        assert got == pytest.approx(7.5319105589e-141, rel=1e-10)

    def test_noiseless_convention(self):
        p = CevParams(k=1, l=1, sigma=0, a=0.75, x0=1)
        assert step_negativity_prob(123.0, 0.25, p) == 0.0

    def test_decreasing_in_state_inner(self, standard_params):
        # inner is increasing in y here, so the probability must decrease
        probs = [
            step_negativity_prob(y, 1 / 16, standard_params)
            for y in (0.05, 0.2, 0.5, 1.0, 2.0, 5.0)
        ]
        assert all(b < a for a, b in zip(probs, probs[1:]))

    @given(
        a=st.floats(0.55, 0.95),
        sigma=st.floats(0.1, 2.0),
        k=st.floats(0.1, 3.0),
        extra=st.floats(0.0, 2.0),
        y=st.floats(0.0, 100.0),
        frac=st.floats(0.05, 1.0),
    )
    @settings(max_examples=150)
    def test_quartering_dt_never_increases(self, a, sigma, k, extra, y, frac):
        l = (a * sigma**2 / 2 + extra) / k
        params = CevParams(k=k, l=l, sigma=sigma, a=a, x0=1.0)
        dt = frac * max_stable_step(params)
        assert step_negativity_prob(y, dt / 4, params) <= step_negativity_prob(
            y, dt, params
        )

    @given(
        a=st.floats(0.51, 0.99),
        sigma=st.floats(0.01, 3.0),
        k=st.floats(0.01, 5.0),
        extra=st.floats(0.0, 2.0),
        frac=st.floats(0.01, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_bound_caps_every_state(self, a, sigma, k, extra, frac):
        """The flip probability at the convex minimum of inner caps the one
        from every state.  The y-grid is log-spaced: on the standard model
        at dt = 1/128 the minimum lies near y = 2e-6, between the points of
        any linear grid."""
        l = (a * sigma**2 / 2 + extra) / k
        params = CevParams(k=k, l=l, sigma=sigma, a=a, x0=1.0)
        dt = frac * max_stable_step(params)
        bound = max_step_negativity_bound(params, dt)
        for y in np.geomspace(1e-30, 1e4, 1000).tolist():
            assert step_negativity_prob(y, dt, params) <= bound

    def test_bound_at_the_standard_minimum(self, standard_params, noiseless_params):
        dt = 1 / 128
        y_star = (dt * 0.75 * 0.5 / (2 * (1 - dt))) ** 2.0  # exponent 1/(2-2a)
        assert y_star == pytest.approx(2.18e-6, rel=1e-3)
        bound = max_step_negativity_bound(standard_params, dt)
        assert bound == step_negativity_prob(y_star, dt, standard_params)
        assert bound > step_negativity_prob(y_star * 1.01, dt, standard_params)
        assert bound > step_negativity_prob(y_star / 1.01, dt, standard_params)
        assert max_step_negativity_bound(noiseless_params, 1.0) == 0.0  # dt = 1/k
        with pytest.raises(ValidationError):
            max_step_negativity_bound(standard_params, 0.8)  # max stable 0.727

    def test_increasing_in_dt_at_fixed_inner(self):
        # at fixed inner the scale sigma(1-a)sqrt(dt) grows with dt; check via
        # normal_cdf directly on the same inner value
        inner_pow = 0.8
        scales = [0.5 * 0.25 * math.sqrt(dt) for dt in (0.01, 0.04, 0.16)]
        probs = [normal_cdf(-inner_pow / s) for s in scales]
        assert probs[0] < probs[1] < probs[2]
