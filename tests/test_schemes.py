"""One-step maps and path simulation: positivity, collapse identities, and
agreement with high-precision replays."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cevlab import (
    CevParams,
    GridMismatch,
    IncrementArray,
    NegativeInner,
    SchemeId,
    StreamKey,
    TimeGrid,
    ValidationError,
    euler_step,
    inner_value,
    sample_increments,
    semidiscrete_step,
    simulate_path,
)


class TestSchemeId:
    def test_parses_canonical_names(self):
        assert SchemeId.parse("SemiDiscrete") is SchemeId.SEMI_DISCRETE
        assert SchemeId.parse("eulernaive") is SchemeId.EULER_NAIVE
        assert SchemeId.parse("EulerFullTruncation") is SchemeId.EULER_FULL_TRUNCATION
        assert SchemeId.parse("EULERREFLECTED") is SchemeId.EULER_REFLECTED

    def test_rejects_unknown(self):
        with pytest.raises(ValidationError):
            SchemeId.parse("Milstein")


class TestSemidiscreteStep:
    def test_noiseless_collapses_to_deterministic_euler(self):
        p = CevParams(k=1, l=1, sigma=0.0, a=0.75, x0=1)
        y, flags = semidiscrete_step(1.0, 0.1, 0.3, p)
        assert y == pytest.approx(1.0, rel=1e-15)
        assert not flags.z_negative and not flags.clamped

    def test_zero_noise_is_inner_value(self):
        p = CevParams(k=1, l=1, sigma=1, a=0.75, x0=1)
        y, _ = semidiscrete_step(4.0, 0.1, 0.0, p)
        assert y == pytest.approx(3.625, rel=1e-15)

    def test_matches_50_digit_value(self):
        # frozen from a 50-digit evaluation of the update formula
        p = CevParams(k=1, l=1, sigma=0.5, a=0.75, x0=1)
        y, flags = semidiscrete_step(1.0, 0.1, 0.2, p)
        assert y == pytest.approx(1.0937161718944800459, rel=1e-12)
        assert not flags.z_negative

    def test_negative_z_reflects_to_positive(self):
        # l=0 forces inner=0 at y=0; any dw<0 makes z<0 and output |z|^(1/(1-a))>0
        p = CevParams(k=1.0, l=0.0, sigma=1.0, a=0.75, x0=1)
        y, flags = semidiscrete_step(0.0, 0.1, -0.4, p)
        assert flags.z_negative
        assert y == pytest.approx((0.25 * 0.4) ** 4, rel=1e-12)
        assert y > 0.0

    def test_rejects_negative_state(self):
        p = CevParams(k=1, l=1, sigma=1, a=0.75, x0=1)
        with pytest.raises(ValidationError):
            semidiscrete_step(-1.0, 0.1, 0.0, p)

    @given(
        y=st.floats(0.0, 1e4),
        extra=st.floats(0.0, 2.0),
        a=st.floats(0.55, 0.95),
        sigma=st.floats(0.05, 2.0),
        k=st.floats(0.05, 3.0),
        frac=st.floats(0.05, 1.0),
        dw_scaled=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=200)
    def test_dw_zero_identity_and_output_nonnegative(
        self, y, extra, a, sigma, k, frac, dw_scaled
    ):
        from cevlab import max_stable_step

        l = (a * sigma**2 / 2 + extra) / k
        params = CevParams(k=k, l=l, sigma=sigma, a=a, x0=1.0)
        dt = frac * max_stable_step(params)
        inner = inner_value(y, dt, params)
        at_zero, _ = semidiscrete_step(y, dt, 0.0, params)
        assert at_zero == pytest.approx(inner, rel=1e-12, abs=1e-300)
        stepped, _ = semidiscrete_step(y, dt, dw_scaled * math.sqrt(dt), params)
        assert stepped >= 0.0

    def test_positivity_over_1e6_random_and_adversarial_steps(self, standard_params):
        """One vectorized sweep: a million random one-step inputs plus the
        +-10 sqrt(dt) extremes all land strictly above zero."""
        from cevlab.schemes import _step_block

        rng = np.random.default_rng(20240916)
        dt = 1 / 16
        y = 10 ** rng.uniform(-6, 4, size=1_000_000)
        dw = rng.normal(0.0, math.sqrt(dt), size=1_000_000)
        out, _, _, _ = _step_block(SchemeId.SEMI_DISCRETE, y, dt, dw, standard_params)
        assert float(out.min()) > 0.0
        for bad_dw in (-10 * math.sqrt(dt), 10 * math.sqrt(dt)):
            out, _, _, _ = _step_block(
                SchemeId.SEMI_DISCRETE, y, dt, np.full(y.size, bad_dw), standard_params
            )
            assert float(out.min()) > 0.0

    def test_monotone_in_dw_on_positive_branch(self, standard_params):
        y, dt = 0.7, 1 / 16
        inner = inner_value(y, dt, standard_params)
        threshold = -(inner ** (1 - 0.75)) / (1.0 * 0.25)
        grid = np.linspace(threshold * 0.999, 5.0, 200)
        outputs = [semidiscrete_step(y, dt, float(dw), standard_params)[0] for dw in grid]
        assert all(b >= a for a, b in zip(outputs, outputs[1:]))


class TestEulerStep:
    def test_full_truncation_fixed_point(self):
        p = CevParams(k=1, l=1, sigma=0.7, a=0.8, x0=1)
        assert euler_step(SchemeId.EULER_FULL_TRUNCATION, 1.0, 0.1, 0.0, p) == 1.0

    def test_full_truncation_from_negative_state(self):
        p = CevParams(k=1, l=1, sigma=1, a=0.75, x0=1)
        got = euler_step(SchemeId.EULER_FULL_TRUNCATION, -0.5, 0.1, 0.0, p)
        assert got == pytest.approx(-0.4, rel=1e-15)

    def test_reflected_unit_state(self):
        p = CevParams(k=1, l=1, sigma=0.5, a=0.75, x0=1)
        got = euler_step(SchemeId.EULER_REFLECTED, 1.0, 0.1, 0.2, p)
        assert got == pytest.approx(1.1, rel=1e-15)

    def test_naive_sign_preserving_diffusion(self):
        p = CevParams(k=1, l=1, sigma=1, a=0.75, x0=1)
        # x=-1: drift (1-(-1))*0.1=0.2, diffusion sign(-1)*|−1|^a*dw = -dw
        got = euler_step(SchemeId.EULER_NAIVE, -1.0, 0.1, 0.3, p)
        assert got == pytest.approx(-1.0 + 0.2 - 0.3, rel=1e-14)

    def test_semidiscrete_rejected(self):
        p = CevParams(k=1, l=1, sigma=1, a=0.75, x0=1)
        with pytest.raises(ValidationError):
            euler_step(SchemeId.SEMI_DISCRETE, 1.0, 0.1, 0.0, p)


class TestSimulatePath:
    def test_noiseless_closed_recursion(self, noiseless_params):
        grid = TimeGrid(1.0, 10)
        inc = IncrementArray(grid.dt, np.full(10, 0.37))  # noise ignored at sigma=0
        res = simulate_path(SchemeId.SEMI_DISCRETE, noiseless_params, grid, inc)
        expected = 1.0 + 0.9 ** np.arange(11)
        assert res.values == pytest.approx(expected, rel=1e-12)
        assert np.all(np.diff(res.values) < 0)
        assert res.min_value == res.values[-1]
        assert res.sign_flip_count == 0 and res.clamp_count == 0

    def test_single_step_equals_step_map(self, standard_params):
        grid = TimeGrid(0.25, 1)
        inc = sample_increments(StreamKey(99, 0), 1, grid.dt)
        res = simulate_path(SchemeId.SEMI_DISCRETE, standard_params, grid, inc)
        direct, _ = semidiscrete_step(
            standard_params.x0, grid.dt, float(inc.values[0]), standard_params
        )
        assert res.values[1] == direct
        assert res.values[0] == standard_params.x0

    def test_matches_50_digit_replay(self, standard_params):
        """Every node of a 64-step trajectory agrees with a 50-digit replay of
        the recursion to 1e-10 relative."""
        mp.mp.dps = 50
        grid = TimeGrid(1.0, 64)
        inc = sample_increments(StreamKey(42, 0), 64, grid.dt)
        res = simulate_path(SchemeId.SEMI_DISCRETE, standard_params, grid, inc)

        k, l, sig, a = (mp.mpf(v) for v in ("1", "1", "1", "0.75"))
        dt = mp.mpf(repr(grid.dt))
        y = mp.mpf(1)
        for j in range(64):
            inner = y * (1 - k * dt) + dt * (
                k * l - a * sig**2 / 2 * (y ** (2 * a - 1) if y > 0 else mp.mpf(0))
            )
            z = sig * (1 - a) * mp.mpf(repr(float(inc.values[j]))) + inner ** (1 - a)
            y = mp.fabs(z) ** (1 / (1 - a))
            assert abs(res.values[j + 1] - float(y)) <= 1e-10 * float(y)

    def test_grid_mismatch_rejected(self, standard_params):
        grid = TimeGrid(1.0, 8)
        wrong_count = sample_increments(StreamKey(1, 0), 16, grid.dt)
        with pytest.raises(GridMismatch):
            simulate_path(SchemeId.SEMI_DISCRETE, standard_params, grid, wrong_count)
        wrong_dt = sample_increments(StreamKey(1, 0), 8, grid.dt * 2)
        with pytest.raises(GridMismatch):
            simulate_path(SchemeId.SEMI_DISCRETE, standard_params, grid, wrong_dt)

    def test_infeasible_step_raises_negative_inner(self):
        # dt far above the stability bound eventually drives inner negative
        p = CevParams(k=1, l=1, sigma=1, a=0.75, x0=2)
        grid = TimeGrid(8.0, 4)  # dt=2 >> 2/2.75
        inc = sample_increments(StreamKey(3, 0), 4, grid.dt)
        with pytest.raises(NegativeInner):
            simulate_path(SchemeId.SEMI_DISCRETE, p, grid, inc)

    def test_positivity_along_noisy_paths(self, standard_params):
        grid = TimeGrid(1.0, 64)
        for path in range(20):
            inc = sample_increments(StreamKey(77, path), 64, grid.dt)
            res = simulate_path(SchemeId.SEMI_DISCRETE, standard_params, grid, inc)
            assert res.min_value > 0.0

    def test_naive_euler_goes_negative_on_stress_config(self):
        stress = CevParams(k=1.0, l=0.61, sigma=1.0, a=0.6, x0=0.1)
        grid = TimeGrid(1.0, 4)
        hits = 0
        for path in range(200):
            inc = sample_increments(StreamKey(8, path), 4, grid.dt)
            res = simulate_path(SchemeId.EULER_NAIVE, stress, grid, inc)
            if res.min_value < 0.0:
                hits += 1
                assert res.sign_flip_count > 0
        assert hits > 0

    def test_reflected_euler_counts_reflections(self):
        stress = CevParams(k=1.0, l=0.61, sigma=1.0, a=0.6, x0=0.1)
        grid = TimeGrid(1.0, 4)
        total_flips = 0
        for path in range(200):
            inc = sample_increments(StreamKey(8, path), 4, grid.dt)
            res = simulate_path(SchemeId.EULER_REFLECTED, stress, grid, inc)
            assert res.min_value >= 0.0
            total_flips += res.sign_flip_count
        assert total_flips > 0

    @given(
        x0=st.floats(0.1, 5.0),
        k=st.floats(0.0, 2.0),
        l=st.floats(0.0, 3.0),
        a=st.floats(0.55, 0.95),
    )
    @settings(max_examples=50)
    def test_noiseless_reduction_all_schemes_agree(self, x0, k, l, a):
        params = CevParams(k=k, l=l, sigma=0.0, a=a, x0=x0)
        grid = TimeGrid(1.0, 8)
        inc = IncrementArray(grid.dt, np.linspace(-1, 1, 8))
        results = {
            scheme: simulate_path(scheme, params, grid, inc).values
            for scheme in SchemeId
        }
        reference = results[SchemeId.SEMI_DISCRETE]
        for scheme, values in results.items():
            assert values == pytest.approx(reference, rel=1e-14, abs=1e-14)


class TestBatchKernelConsistency:
    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_batch_rows_equal_scalar_paths_bitwise(self, scheme):
        from cevlab import simulate_paths_batch

        # the stress config sends the Euler baselines below zero
        params = CevParams(k=1.0, l=0.61, sigma=1.0, a=0.6, x0=0.1)
        grid = TimeGrid(1.0, 32)
        values, events, stats = simulate_paths_batch(scheme, params, grid, 6, seed=42)
        assert values.shape == (6, 33)
        for path in range(6):
            inc = sample_increments(StreamKey(42, path), 32, grid.dt)
            res = simulate_path(scheme, params, grid, inc)
            assert (values[path] == res.values).all()
            assert int(events[path].sum()) == res.sign_flip_count
        assert stats.min_value == min(
            float(values[p].min()) for p in range(6)
        )
        assert stats.sign_flip_count == int(events.sum())

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_scalar_steps_equal_rows_of_one_vector_step(self, scheme):
        from cevlab.schemes import _step_block

        params = CevParams(k=1.0, l=0.61, sigma=1.0, a=0.6, x0=0.1)
        dt = 1 / 4
        rng = np.random.default_rng(7)
        y = 10 ** rng.uniform(-4, 1, size=500)
        if scheme.is_euler:
            y[::3] *= -1.0  # the baselines step from negative states too
        dw = rng.normal(0.0, math.sqrt(dt), size=500)
        out, events, clamps, _ = _step_block(scheme, y, dt, dw, params)
        for i in range(y.size):
            if scheme.is_euler:
                got = euler_step(scheme, float(y[i]), dt, float(dw[i]), params)
            else:
                got, flags = semidiscrete_step(float(y[i]), dt, float(dw[i]), params)
                assert flags == (bool(events[i]), bool(clamps[i]))
            assert got == out[i]
