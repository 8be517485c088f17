"""Monte Carlo engine: order fitting, coupled strong error, moments,
sign-flip statistics, and payoff pricing."""

import math
import os
import signal
import subprocess
import sys
from pathlib import Path

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
    TimeGrid,
    ValidationError,
    fit_order,
    moment_check,
    negativity_stats,
    price_payoff,
    simulate_paths_batch,
    step_negativity_prob,
    strong_error,
)
from cevlab.brownian import _block_sums, _increment_block
from cevlab.experiments import (
    _BLOCK_PATHS,
    _CHUNK_STEPS,
    ConvergenceReport,
    LevelRecord,
    _map_blocks,
    _standard_error,
)
from cevlab.schemes import _Walk

SRC = Path(__file__).resolve().parents[1] / "src"


def _walk_terminal(scheme, params, dt, dw, first_path=0):
    """Terminal values of a (B, n) increment block walked as one chunk."""
    walk = _Walk(scheme, params, dt, dw.shape[0], first_path)
    walk.advance(dw.T)
    return walk.result()[0]


def _whole_matrix_strong_error(params, scheme, spec, t_end):
    """The coupled ladder computed from each block's whole fine-increment
    matrix: one walk on the reference grid and one per level on the level's
    block sums, with the report built as ``strong_error`` builds it.  The
    streamed walk must reproduce this bit for bit."""
    n_fine = 2**spec.ref_exponent
    dt = t_end / n_fine
    sq_diff = np.empty((len(spec.test_exponents), spec.n_paths))
    for start in range(0, spec.n_paths, _BLOCK_PATHS):
        stop = min(start + _BLOCK_PATHS, spec.n_paths)
        fine = _increment_block(spec.master_seed, start, stop, n_fine, dt)
        ref = _walk_terminal(scheme, params, dt, fine, start)
        for i, e in enumerate(spec.test_exponents):
            factor = 2 ** (spec.ref_exponent - e)
            coarse = _block_sums(fine.T, factor).T
            test = _walk_terminal(scheme, params, dt * factor, coarse, start)
            sq_diff[i, start:stop] = (test - ref) ** 2
    levels = []
    for i, e in enumerate(spec.test_exponents):
        mse = float(sq_diff[i].mean())
        ci = 1.96 * _standard_error(sq_diff[i])
        levels.append(LevelRecord(e, t_end / 2**e, mse, math.sqrt(mse), ci))
    slope, intercept, r2 = fit_order((rec.dt, rec.rmse) for rec in levels)
    levels.sort(key=lambda rec: -rec.dt)
    return ConvergenceReport(
        tuple(levels), slope, intercept, r2, params.a * (params.a - 0.5)
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
        with pytest.raises(ValidationError, match="master_seed must be an integer"):
            LevelSpec(ref_exponent=8, test_exponents=(4,), n_paths=10, master_seed=2**64)

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


class TestStandardError:
    def test_identical_samples_read_exactly_zero(self):
        # numpy's pairwise mean of these differs from them in the last bit
        x = np.full(1000, 0.1 + 0.2)
        assert float(x.std(ddof=1)) != 0.0
        assert _standard_error(x) == 0.0
        assert _standard_error(x, scale=1.96) == 0.0

    def test_spread_samples_keep_the_plain_arithmetic(self):
        x = np.random.default_rng(5).normal(size=999)
        n = math.sqrt(x.size)
        assert _standard_error(x) == float(x.std(ddof=1)) / n
        assert _standard_error(x, scale=1.96) == 1.96 * float(x.std(ddof=1)) / n

    def test_noiseless_reports_read_exactly_zero(self, noiseless_params):
        """All paths of a sigma=0 run are identical, so every CI and standard
        error of the three CI-bearing reports is exactly 0.0."""
        spec = LevelSpec(
            ref_exponent=10, test_exponents=(4, 5, 6, 7), n_paths=1000, master_seed=7
        )
        ladder = strong_error(noiseless_params, SchemeId.SEMI_DISCRETE, spec, 1.0)
        assert [rec.ci_halfwidth for rec in ladder.levels] == [0.0] * 4
        grid = TimeGrid(1.0, 64)
        moments = moment_check(
            noiseless_params, SchemeId.SEMI_DISCRETE, grid, 1000, seed=7
        )
        assert (moments.se_mean, moments.se_second) == (0.0, 0.0)
        call = PayoffSpec(PayoffKind.EUROPEAN_CALL, 0.5)
        price, ci = price_payoff(noiseless_params, call, grid, 1000, seed=7)
        assert price > 0.0 and ci == 0.0


class TestStrongError:
    def test_self_coupling_gives_exact_zero(self, standard_params):
        """Driving the same scheme with the identical increment matrix twice
        reproduces the terminal values bit-for-bit, so the squared gap of a
        level coupled to itself is exactly zero."""
        dt = 1 / 64
        fine = _increment_block(123, 0, 256, 64, dt)
        ref = _walk_terminal(SchemeId.SEMI_DISCRETE, standard_params, dt, fine)
        test = _walk_terminal(
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

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "ref, exps, n_paths",
        [
            # eight chunks, every level inside a chunk
            (12, (4, 5, 6, 7, 8, 9), 300),
            # factors 2^9 and 2^10: one level spans two chunks
            (11, (1, 2), 300),
            # factor 2^11 spans four chunks, summed from the 2^8 level
            (12, (1, 4), 300),
            # two chunks, and a second block of one path
            (10, (3, 5), _BLOCK_PATHS + 1),
        ],
    )
    def test_streamed_walk_equals_whole_matrix_ladder(
        self, standard_params, ref, exps, n_paths, threads
    ):
        assert 2**ref > _CHUNK_STEPS
        spec = LevelSpec(ref, exps, n_paths, 20240601)
        report = strong_error(
            standard_params, SchemeId.SEMI_DISCRETE, spec, 1.0, n_threads=threads
        )
        oracle = _whole_matrix_strong_error(
            standard_params, SchemeId.SEMI_DISCRETE, spec, 1.0
        )
        assert report == oracle

    @pytest.mark.parametrize("chunk", [1, 2, 8])
    def test_report_independent_of_chunk_size(
        self, standard_params, monkeypatch, chunk
    ):
        """Chunks share one noise buffer; no level may keep a view of it,
        down to one-step chunks, where a carry takes the raw row."""
        monkeypatch.setattr("cevlab.experiments._CHUNK_STEPS", chunk)
        spec = LevelSpec(6, (2, 3, 4), 40, 20240601)
        report = strong_error(standard_params, SchemeId.SEMI_DISCRETE, spec, 1.0)
        oracle = _whole_matrix_strong_error(
            standard_params, SchemeId.SEMI_DISCRETE, spec, 1.0
        )
        assert report == oracle

    def test_peak_memory_flat_in_ref_exponent(self, tmp_path):
        """A reference grid 4x longer must not grow a convergence run's peak
        RSS: each block holds one chunk of noise, never a whole path."""
        peaks = {}
        for ref in (12, 14):
            argv = [
                sys.executable, "-m", "cevlab", "convergence",
                "--model.k=1", "--model.l=1", "--model.sigma=1", "--model.a=0.75",
                "--model.x0=1", "--grid.t_end=1", f"--grid.n_steps={2**ref}",
                f"--run.ref_exponent={ref}", "--run.levels=4,5,6,7,8,9",
                "--run.n_paths=1000", "--run.seed=20240601",
                f"--out=ladder{ref}.csv",
            ]
            env = {**os.environ, "CEVLAB_THREADS": "1"}
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(SRC), env.get("PYTHONPATH")])
            )
            child = subprocess.Popen(
                argv, cwd=tmp_path, env=env, stdout=subprocess.DEVNULL
            )
            # the child's own peak: RUSAGE_CHILDREN is a max over all children
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            assert child.returncode == 0
            peaks[ref] = usage.ru_maxrss
        assert peaks[14] <= 1.2 * peaks[12], peaks

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
        values, _, _ = simulate_paths_batch(
            SchemeId.SEMI_DISCRETE, noiseless_params, grid, 1, seed=0
        )
        assert price == pytest.approx(float(values[0, 1:].mean()), rel=1e-12)
        assert price != pytest.approx(float(values[0].mean()), rel=1e-6)

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


def _assert_replay_fails(params, grid, seed, path, step):
    """Path ``path`` alone, from its own stream, fails at the same global path
    and step."""
    walk = _Walk(SchemeId.SEMI_DISCRETE, params, grid.dt, 1, first_path=path)
    dw = _increment_block(seed, path, path + 1, grid.n_steps, grid.dt)
    with pytest.raises(NegativeInner) as replay:
        walk.advance(dw.T)
    assert (replay.value.path, replay.value.step) == (path, step)


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
        _assert_replay_fails(p, grid, 1, path, step)


    def test_global_step_index_across_chunks(self):
        # 1024 steps walk as two chunks; with seed 2 the first failure is
        # path 1 in the second chunk, and the error counts from step 0
        p = CevParams(k=1, l=1, sigma=0.25, a=0.75, x0=1)
        grid = TimeGrid(1536.0, 1024)
        with pytest.raises(NegativeInner) as info:
            moment_check(p, SchemeId.SEMI_DISCRETE, grid, 4, 2)
        path, step = info.value.path, info.value.step
        assert (path, step) == (1, 859) and step > _CHUNK_STEPS
        assert str(info.value).startswith(f"path {path}, step {step}: ")
        _assert_replay_fails(p, grid, 2, path, step)


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


@pytest.fixture
def deadline():
    """Fail a test that would otherwise wait forever for a worker."""

    def expire(signum, frame):
        raise TimeoutError("no result within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_every_worker_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerProcesses:
    """``_map_blocks`` runs block i in worker i mod w, where worker 0 is the
    calling process and the others are forked children."""

    THREE_BLOCKS = 2 * _BLOCK_PATHS + 1

    def test_one_worker_runs_every_block_in_the_caller(self, deadline):
        pids = _map_blocks(lambda block: os.getpid(), self.THREE_BLOCKS, 1)
        assert pids == [os.getpid()] * 3
        _assert_every_worker_reaped()

    def test_two_workers_share_blocks_by_index(self, deadline):
        pids = _map_blocks(lambda block: os.getpid(), self.THREE_BLOCKS, 2)
        assert pids[0] == pids[2] == os.getpid()
        assert pids[1] != os.getpid()
        _assert_every_worker_reaped()

    def test_worker_that_dies_is_named(self, deadline, tmp_path):
        caller = os.getpid()

        def work(block):
            if block[0] == _BLOCK_PATHS and os.getpid() != caller:
                (tmp_path / "pid").write_text(str(os.getpid()))
                os._exit(3)
            return block

        with pytest.raises(ChildProcessError) as info:
            _map_blocks(work, self.THREE_BLOCKS, 2)
        pid = int((tmp_path / "pid").read_text())
        message = str(info.value)
        assert message.startswith(f"worker process {pid} ended with wait status ")
        assert "(exit code 3)" in message
        _assert_every_worker_reaped()

    def test_lowest_failed_block_is_raised(self, deadline):
        caller = os.getpid()

        def work(block):
            if block[0] > 0:
                where = "caller" if os.getpid() == caller else "child"
                raise ValueError(f"block {block[0] // _BLOCK_PATHS} in {where}")
            return block

        with pytest.raises(ValueError, match=r"^block 1 in child$"):
            _map_blocks(work, self.THREE_BLOCKS, 2)
        _assert_every_worker_reaped()
