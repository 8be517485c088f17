"""Monte Carlo engine: order fitting, coupled strong error, moments,
sign-flip statistics, and payoff pricing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cevlab import (
    CevParams,
    InfeasibleLevel,
    InsufficientPoints,
    LevelSpec,
    NegativeInner,
    NonFiniteResult,
    NonPositiveValue,
    PayoffKind,
    PayoffSpec,
    SchemeId,
    StreamKey,
    TimeGrid,
    ValidationError,
    fit_order,
    moment_check,
    negativity_stats,
    price_payoff,
    sample_increments,
    simulate_path,
    simulate_paths_batch,
    step_negativity_prob,
    strong_error,
)


class TestFitOrder:
    def test_exact_first_order_line(self):
        slope, intercept, r2 = fit_order(
            [(2**-4, 2**-4), (2**-6, 2**-6), (2**-8, 2**-8)]
        )
        assert slope == 1.0
        assert r2 == 1.0

    def test_exact_half_order_line(self):
        slope, _, r2 = fit_order([(2**-4, 2**-2), (2**-6, 2**-3), (2**-8, 2**-4)])
        assert slope == 0.5
        assert r2 == 1.0

    def test_scaled_line_recovered(self):
        c = 0.37
        slope, intercept, r2 = fit_order(
            [(2.0**-e, c * 2.0**-e) for e in range(3, 9)]
        )
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(math.log(c), abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_noisy_slope_recovered(self):
        # multiplicative noise exp(eps), eps ~ normal(0, 0.01), around slope 0.3
        rng = np.random.default_rng(2024)
        pts = [
            (dt, 0.7 * dt**0.3 * math.exp(rng.normal(0.0, 0.01)))
            for dt in (2.0**-e for e in range(4, 10))
        ]
        slope, _, _ = fit_order(pts)
        assert 0.25 <= slope <= 0.35

    def test_errors(self):
        with pytest.raises(InsufficientPoints):
            fit_order([(0.1, 0.2)])
        with pytest.raises(NonPositiveValue):
            fit_order([(0.1, 0.2), (0.05, -0.1)])
        with pytest.raises(NonPositiveValue):
            fit_order([(0.0, 0.2), (0.05, 0.1)])
        with pytest.raises(InsufficientPoints):
            fit_order([(0.1, 0.2), (0.1, 0.3)])

    @pytest.mark.parametrize(
        "pts",
        [
            [(0.5, math.nan), (0.25, 0.1)],
            [(0.5, 0.2), (0.25, math.inf)],
            [(math.nan, 0.2), (0.25, 0.1)],
            [(math.inf, 0.2), (0.25, 0.1)],
        ],
    )
    def test_rejects_non_finite_points(self, pts):
        # a diverging ladder must not come back as a NaN order
        with pytest.raises(NonPositiveValue, match="finite"):
            fit_order(pts)

    @given(
        slope=st.floats(-2.0, 2.0),
        log_c=st.floats(-3.0, 3.0),
        n=st.integers(3, 8),
    )
    @settings(max_examples=60)
    def test_recovers_arbitrary_exact_power_laws(self, slope, log_c, n):
        pts = [(2.0**-e, math.exp(log_c) * (2.0**-e) ** slope) for e in range(2, 2 + n)]
        got_slope, got_intercept, r2 = fit_order(pts)
        assert got_slope == pytest.approx(slope, abs=1e-9)
        assert got_intercept == pytest.approx(log_c, abs=1e-9)


class TestLevelSpec:
    def test_rejects_bad_ladders(self):
        with pytest.raises(ValidationError):
            LevelSpec(ref_exponent=6, test_exponents=(4, 6), n_paths=10, master_seed=0)
        with pytest.raises(ValidationError):
            LevelSpec(ref_exponent=8, test_exponents=(5, 4), n_paths=10, master_seed=0)
        with pytest.raises(ValidationError):
            LevelSpec(ref_exponent=8, test_exponents=(), n_paths=10, master_seed=0)
        with pytest.raises(ValidationError):
            LevelSpec(ref_exponent=8, test_exponents=(-1, 4), n_paths=10, master_seed=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("master_seed", 1.5),
            ("master_seed", 1.0),
            ("master_seed", True),
            ("master_seed", "1"),
            ("n_paths", 10.0),
            ("n_paths", True),
            ("ref_exponent", 8.0),
            ("ref_exponent", False),
        ],
    )
    def test_rejects_non_int_fields_up_front(self, field, value):
        kwargs = dict(ref_exponent=8, test_exponents=(4, 5), n_paths=10, master_seed=0)
        kwargs[field] = value
        with pytest.raises(ValidationError, match=f"{field} must be an int"):
            LevelSpec(**kwargs)


class TestStrongError:
    def test_self_coupling_gives_exact_zero(self, standard_params):
        """Driving the same scheme with the identical increment matrix twice
        reproduces the terminal values bit-for-bit, so the squared gap of a
        level coupled to itself is exactly zero."""
        from cevlab.brownian import _block_sums
        from cevlab.experiments import _increment_block, _run_block

        dt = 1 / 64
        fine = _increment_block(123, 0, 256, 64, dt)
        ref, _, _ = _run_block(SchemeId.SEMI_DISCRETE, standard_params, dt, fine)
        test, _, _ = _run_block(
            SchemeId.SEMI_DISCRETE, standard_params, dt, _block_sums(fine, 1)
        )
        assert float(((test - ref) ** 2).mean()) == 0.0

    @pytest.mark.parametrize("a", [0.55, 0.75, 0.95])
    def test_noiseless_first_order_independent_of_exponent(self, a):
        params = CevParams(k=1.0, l=1.0, sigma=0.0, a=a, x0=2.0)
        spec = LevelSpec(
            ref_exponent=16, test_exponents=(2, 3, 4, 5, 6), n_paths=4, master_seed=7
        )
        report = strong_error(params, SchemeId.SEMI_DISCRETE, spec, 1.0)
        assert report.fitted_order == pytest.approx(1.0, abs=0.05)
        assert report.fit_r2 > 0.999
        assert all(rec.ci_halfwidth == 0.0 for rec in report.levels)

    def test_levels_sorted_and_monotone(self, standard_params):
        spec = LevelSpec(
            ref_exponent=10, test_exponents=(3, 4, 5, 6), n_paths=2000, master_seed=11
        )
        report = strong_error(standard_params, SchemeId.SEMI_DISCRETE, spec, 1.0)
        dts = [rec.dt for rec in report.levels]
        assert dts == sorted(dts, reverse=True)
        # statistical monotonicity: mse nonincreasing up to twice the ci
        for coarse, fine in zip(report.levels, report.levels[1:]):
            assert fine.mse <= coarse.mse + 2 * (coarse.ci_halfwidth + fine.ci_halfwidth)
        assert report.theoretical_order == pytest.approx(0.75 * 0.25, rel=1e-15)

    def test_bit_identical_across_thread_counts(self, standard_params):
        spec = LevelSpec(
            ref_exponent=9, test_exponents=(3, 4, 5), n_paths=2500, master_seed=3
        )
        a = strong_error(standard_params, SchemeId.SEMI_DISCRETE, spec, 1.0, n_threads=1)
        b = strong_error(standard_params, SchemeId.SEMI_DISCRETE, spec, 1.0, n_threads=3)
        assert a == b

    def test_infeasible_level_named(self, standard_params):
        spec = LevelSpec(ref_exponent=9, test_exponents=(4, 5), n_paths=100, master_seed=0)
        with pytest.raises(InfeasibleLevel, match="e=4"):
            strong_error(standard_params, SchemeId.SEMI_DISCRETE, spec, 16.0)

    def test_infeasible_level_is_a_validation_error(self):
        assert issubclass(InfeasibleLevel, ValidationError)

    def test_euler_scheme_skips_stability_check(self):
        # the naive baseline has no stability precondition; a step far above
        # the semi-discrete bound still runs
        params = CevParams(k=1, l=1, sigma=0.2, a=0.75, x0=1)
        spec = LevelSpec(ref_exponent=6, test_exponents=(2, 3), n_paths=50, master_seed=0)
        report = strong_error(params, SchemeId.EULER_NAIVE, spec, 4.0)
        assert len(report.levels) == 2


class TestMomentCheck:
    def test_noiseless_bias_small(self, noiseless_params):
        report = moment_check(
            noiseless_params, SchemeId.SEMI_DISCRETE, TimeGrid(1.0, 1024), 16, seed=1
        )
        assert report.analytic_mean == pytest.approx(1 + math.exp(-1), rel=1e-12)
        assert report.abs_mean_error <= 2e-3
        assert report.se_mean == pytest.approx(0.0, abs=1e-14)

    def test_stationary_start_mean_error_within_noise(self, standard_params):
        report = moment_check(
            standard_params, SchemeId.SEMI_DISCRETE, TimeGrid(1.0, 64), 20_000, seed=2
        )
        assert report.analytic_mean == 1.0
        assert report.abs_mean_error <= 3 * report.se_mean + 0.01

    def test_second_moment_dominates_squared_mean(self, shifted_params):
        report = moment_check(
            shifted_params, SchemeId.SEMI_DISCRETE, TimeGrid(1.0, 64), 5000, seed=3
        )
        assert (
            report.sample_second_moment
            >= report.sample_mean**2 - 4 * report.se_second
        )


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_paths_raise_instead_of_nan(self):
        # Euler with k*dt ~ 1e98 overflows to inf and then NaN
        params = CevParams(k=1e100, l=1, sigma=1, a=0.75, x0=1)
        grid = TimeGrid(1.0, 64)
        with pytest.raises(NonFiniteResult, match=r"^path 0 is not finite"):
            moment_check(params, SchemeId.EULER_NAIVE, grid, 100, seed=0)

    def test_non_finite_result_is_arithmetic(self):
        from cevlab import CevlabError

        assert issubclass(NonFiniteResult, CevlabError)
        assert issubclass(NonFiniteResult, ArithmeticError)


class TestNegativityStats:
    def test_noiseless_everything_zero(self, noiseless_params):
        stats = negativity_stats(noiseless_params, TimeGrid(1.0, 32), 100, seed=0)
        assert stats.z_negative_events == 0
        assert stats.clamp_events == 0
        assert stats.max_step_negativity_prob == 0.0
        assert stats.total_steps == 3200

    def test_standard_config_no_events_and_prob_matches_rescan(self, standard_params):
        grid = TimeGrid(1.0, 16)
        n_paths = 500
        stats = negativity_stats(standard_params, grid, n_paths, seed=11)
        assert stats.z_negative_events == 0
        assert stats.clamp_events == 0
        # independent rescan: evaluate the one-step probability at every
        # pre-step state of the same trajectories and take the max
        values, _, _ = simulate_paths_batch(
            SchemeId.SEMI_DISCRETE, standard_params, grid, n_paths, seed=11
        )
        rescan = max(
            step_negativity_prob(float(y), grid.dt, standard_params)
            for y in values[:, :-1].ravel()
        )
        assert stats.max_step_negativity_prob == rescan

    def test_boundary_stress_envelope(self):
        # drift boundary (margin 0), tiny start, half the stability bound
        a, sigma, k = 0.6, 1.0, 1.0
        params = CevParams(k=k, l=a * sigma**2 / 2 / k, sigma=sigma, a=a, x0=0.01)
        from cevlab import max_stable_step

        dt = max_stable_step(params) / 2
        grid = TimeGrid(3 * dt, 3)
        stats = negativity_stats(params, grid, 10_000, seed=21)
        assert stats.z_negative_events > 0  # flips are routine here
        envelope = stats.max_step_negativity_prob * stats.total_steps * 10
        assert stats.z_negative_events <= envelope

    def test_halving_dt_never_increases_max_prob(self, standard_params):
        probs = [
            negativity_stats(
                standard_params, TimeGrid(1.0, 2**e), 1000, seed=11
            ).max_step_negativity_prob
            for e in range(4, 9)
        ]
        assert all(b <= a for a, b in zip(probs, probs[1:]))


class TestPricePayoff:
    def test_noiseless_call_is_deterministic_terminal(self, noiseless_params):
        grid = TimeGrid(1.0, 1024)
        price, ci = price_payoff(
            noiseless_params, PayoffSpec(PayoffKind.EUROPEAN_CALL, 0.0), grid, 64, seed=1
        )
        assert price == pytest.approx(1 + math.exp(-1), abs=2e-3)
        assert ci == pytest.approx(0.0, abs=1e-12)

    def test_zero_strike_call_equals_sample_mean_bitwise(self, standard_params):
        grid = TimeGrid(1.0, 32)
        price, _ = price_payoff(
            standard_params, PayoffSpec(PayoffKind.EUROPEAN_CALL, 0.0), grid, 4000, seed=3
        )
        report = moment_check(
            standard_params, SchemeId.SEMI_DISCRETE, grid, 4000, seed=3
        )
        assert price == report.sample_mean

    def test_zero_strike_put_prices_to_zero(self, standard_params):
        price, ci = price_payoff(
            standard_params,
            PayoffSpec(PayoffKind.EUROPEAN_PUT, 0.0),
            TimeGrid(1.0, 32),
            4000,
            seed=3,
        )
        assert price == 0.0
        assert ci == 0.0

    def test_asian_excludes_initial_state(self, noiseless_params):
        grid = TimeGrid(1.0, 16)
        price, _ = price_payoff(
            noiseless_params,
            PayoffSpec(PayoffKind.ASIAN_ARITHMETIC_CALL, 0.0),
            grid,
            8,
            seed=0,
        )
        inc = sample_increments(StreamKey(0, 0), 16, grid.dt)
        path = simulate_path(SchemeId.SEMI_DISCRETE, noiseless_params, grid, inc)
        assert price == pytest.approx(float(path.values[1:].mean()), rel=1e-12)
        assert price != pytest.approx(float(path.values.mean()), rel=1e-6)

    def test_naive_euler_exhibits_negative_terminals(self):
        """Positivity contrast: the scheme prices a zero-strike put at exactly
        zero, while naive Euler terminals on the stress config go negative
        with positive frequency (so a zero-strike put would price > 0)."""
        stress = CevParams(k=1.0, l=0.61, sigma=1.0, a=0.6, x0=0.1)
        grid = TimeGrid(1.0, 4)
        values, _, stats = simulate_paths_batch(
            SchemeId.EULER_NAIVE, stress, grid, 4000, seed=5
        )
        terminals = values[:, -1]
        put_price = float(np.maximum(0.0 - terminals, 0.0).mean())
        assert stats.min_value < 0.0
        assert float((terminals < 0.0).mean()) > 0.0
        assert put_price > 0.0


class TestNegativeInnerLocation:
    def test_infeasible_step_names_path_and_step(self):
        # dt=2 >> 2/2.75: the inner expression fails at x0 on the first step
        p = CevParams(k=1, l=1, sigma=1, a=0.75, x0=2)
        with pytest.raises(NegativeInner, match=r"^path 0, step 0: ") as info:
            simulate_paths_batch(SchemeId.SEMI_DISCRETE, p, TimeGrid(8.0, 4), 8, seed=3)
        assert (info.value.path, info.value.step) == (0, 0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_global_path_index_replays_from_its_stream_key(self, threads):
        # dt=1.5 is infeasible too, but only paths that climb far fail; with
        # seed 1 the first of them lies in the second 4096-path block
        p = CevParams(k=1, l=1, sigma=0.25, a=0.75, x0=1)
        grid = TimeGrid(6.0, 4)
        with pytest.raises(NegativeInner) as info:
            simulate_paths_batch(SchemeId.SEMI_DISCRETE, p, grid, 8192, 1, threads)
        path, step = info.value.path, info.value.step
        assert (path, step) == (5757, 3)
        assert str(info.value).startswith(f"path {path}, step {step}: ")
        # every earlier path runs clean, and the named one fails on its own
        simulate_paths_batch(SchemeId.SEMI_DISCRETE, p, grid, path, 1, threads)
        inc = sample_increments(StreamKey(1, path), grid.n_steps, grid.dt)
        with pytest.raises(NegativeInner) as replay:
            simulate_path(SchemeId.SEMI_DISCRETE, p, grid, inc)
        assert replay.value.step == step


class TestThreadEnvironment:
    def test_env_variable_controls_default(self, standard_params, monkeypatch):
        grid = TimeGrid(1.0, 16)
        monkeypatch.setenv("CEVLAB_THREADS", "2")
        a = moment_check(standard_params, SchemeId.SEMI_DISCRETE, grid, 5000, seed=9)
        monkeypatch.setenv("CEVLAB_THREADS", "1")
        b = moment_check(standard_params, SchemeId.SEMI_DISCRETE, grid, 5000, seed=9)
        assert a == b

    def test_env_variable_garbage_rejected(self, standard_params, monkeypatch):
        monkeypatch.setenv("CEVLAB_THREADS", "many")
        with pytest.raises(ValidationError):
            moment_check(
                standard_params, SchemeId.SEMI_DISCRETE, TimeGrid(1.0, 4), 64, seed=0
            )
