"""Monte Carlo engine: order fitting, coupled strong error, moments,
sign-flip statistics, and payoff pricing."""

import math
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cevlab import (
    CevParams,
    InfeasibleLevel,
    InsufficientPoints,
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
    _layout,
    _map_blocks,
    _standard_error,
)
from cevlab.schemes import BatchStats, _Walk

SRC = Path(__file__).resolve().parents[1] / "src"


def _walk_terminal(scheme, params, dt, dw, first_path=0):
    """Terminal values of a (B, n) increment block walked as one chunk."""
    walk = _Walk(scheme, params, dt, dw.shape[0], first_path)
    walk.advance(dw.T)
    return walk.result()[0]


def _whole_matrix_strong_error(params, scheme, ref, exps, n_paths, seed):
    """The coupled ladder on 2^ref steps over [0, 1] computed from each
    block's whole fine-increment matrix: one walk on the reference grid and
    one per level on the level's block sums, with the report built as
    ``strong_error`` builds it.  The streamed walk must reproduce this bit
    for bit."""
    n_fine = 2**ref
    dt = 1.0 / n_fine
    sq_diff = np.empty((len(exps), n_paths))
    for start in range(0, n_paths, _BLOCK_PATHS):
        stop = min(start + _BLOCK_PATHS, n_paths)
        fine = _increment_block(seed, start, stop, n_fine, dt)
        ref_terminal = _walk_terminal(scheme, params, dt, fine, start)
        for i, e in enumerate(exps):
            factor = 2 ** (ref - e)
            coarse = _block_sums(fine.T.copy(), factor).T
            test = _walk_terminal(scheme, params, dt * factor, coarse, start)
            sq_diff[i, start:stop] = (test - ref_terminal) ** 2
    levels = []
    for i, e in enumerate(exps):
        mse = float(sq_diff[i].mean())
        ci = 1.96 * _standard_error(sq_diff[i])
        levels.append(LevelRecord(e, 1.0 / 2**e, mse, math.sqrt(mse), ci))
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


def _call(name, params, grid, n_paths, seed):
    """Run the entry point ``name`` with its grid, path count and seed passed
    by name; the ladder is 2^4 and 2^5 steps under ``grid``."""
    return {
        "strong_error": lambda: strong_error(
            params, SchemeId.SEMI_DISCRETE, test_exponents=(4, 5),
            grid=grid, n_paths=n_paths, seed=seed,
        ),
        "moment_check": lambda: moment_check(
            params, SchemeId.SEMI_DISCRETE, grid=grid, n_paths=n_paths, seed=seed
        ),
        "negativity_stats": lambda: negativity_stats(
            params, grid=grid, n_paths=n_paths, seed=seed
        ),
        "price_payoff": lambda: price_payoff(
            params, PayoffSpec(PayoffKind.EUROPEAN_CALL, 1.0),
            grid=grid, n_paths=n_paths, seed=seed,
        ),
        "simulate_paths_batch": lambda: simulate_paths_batch(
            SchemeId.SEMI_DISCRETE, params, grid=grid, n_paths=n_paths, seed=seed
        ),
    }[name]()


ENTRY_POINTS = [
    "strong_error",
    "moment_check",
    "negativity_stats",
    "price_payoff",
    "simulate_paths_batch",
]


class TestRunInputs:
    """The ladder, path-count and seed rules, one of each, at every entry
    point that takes the input."""

    def test_rejects_bad_ladders(self, standard_params):
        def ladder(n_steps, exps, seed=0):
            strong_error(
                standard_params, SchemeId.SEMI_DISCRETE, TimeGrid(1.0, n_steps),
                exps, 10, seed,
            )

        with pytest.raises(ValidationError, match="must exceed every test exponent"):
            ladder(2**6, (4, 6))
        with pytest.raises(ValidationError, match="strictly ascending"):
            ladder(2**8, (5, 4))
        with pytest.raises(ValidationError, match="non-empty"):
            ladder(2**8, ())
        with pytest.raises(ValidationError, match="nonnegative"):
            ladder(2**8, (-1, 4))
        with pytest.raises(ValidationError, match="power of two"):
            ladder(3 * 2**6, (4, 5))
        with pytest.raises(ValidationError, match="seed must be an integer"):
            ladder(2**8, (4,), seed=2**64)

    @pytest.mark.parametrize("exps", [(4.5, 6), (True, 4), (4.0, 5)])
    def test_rejects_non_int_exponents(self, standard_params, exps):
        # no exponent is silently truncated to an int
        with pytest.raises(ValidationError, match="test exponents must be ints"):
            strong_error(
                standard_params, SchemeId.SEMI_DISCRETE, TimeGrid(1.0, 2**8),
                exps, 10, 0,
            )

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 1.5),
            ("seed", 1.0),
            ("seed", True),
            ("seed", "1"),
            ("seed", -1),
            ("n_paths", 10.0),
            ("n_paths", True),
            ("n_paths", 0),
        ],
    )
    def test_rejects_non_int_fields_up_front(self, standard_params, name, field, value):
        inputs = dict(n_paths=10, seed=0)
        inputs[field] = value
        with pytest.raises(ValidationError, match=f"{field} must be an int"):
            _call(name, standard_params, TimeGrid(1.0, 2**8), **inputs)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("n_paths", [10**30, 2**64 + 1], ids=["1e30", "2^64+1"])
    def test_path_ceiling_rejected_at_once(self, standard_params, monkeypatch, name, n_paths):
        """Path p is keyed by the 64-bit word p, so more than 2^64 paths are
        rejected before a block list is built for them."""
        monkeypatch.setenv("CEVLAB_THREADS", "1")
        began = time.perf_counter()
        with pytest.raises(ValidationError, match=r"n_paths must be an int >= \d and <= 2\^64"):
            _call(name, standard_params, TimeGrid(1.0, 16), n_paths, 1)
        assert time.perf_counter() - began < 0.5

    @pytest.mark.parametrize("name", ["moment_check", "simulate_paths_batch", "cli"])
    @pytest.mark.parametrize("n_paths", [10**13, 2**64], ids=["1e13", "2^64"])
    def test_unholdable_path_count_rejected_at_once(self, tmp_path, name, n_paths):
        """A path count the rule admits but no memory holds fails at the first
        allocation of its results, before any block list is built.  Each run
        is a child process under a 1.5 GB address-space limit, one worker."""
        run = {
            "moment_check": "moment_check(p, SchemeId.SEMI_DISCRETE, grid, n, 1)",
            "simulate_paths_batch": "simulate_paths_batch(SchemeId.SEMI_DISCRETE, p, grid, n, 1)",
            "cli": "print('exit', main(['moments', '--model.k=1', '--model.l=1', "
            "'--model.sigma=0.5', '--model.a=0.75', '--model.x0=1', '--grid.t_end=1', "
            "'--grid.n_steps=16', f'--run.n_paths={n}', '--out=m.json']))",
        }[name]
        code = (
            "import resource, time\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, hard))\n"
            "from cevlab import *\n"
            "from cevlab.cli import main\n"
            f"p, grid, n = CevParams(1, 1, 0.5, 0.75, 1), TimeGrid(1.0, 16), {n_paths}\n"
            "began = time.perf_counter()\n"
            "try:\n"
            f"    {run}\n"
            "except ValidationError as exc:\n"
            "    print('rejected', exc)\n"
            "print('elapsed', time.perf_counter() - began)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC), "CEVLAB_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1"}
        child = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True,
            text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        lines = child.stdout.splitlines()
        if name == "cli":
            assert lines[0] == "exit 2"
            assert "error: cannot allocate a " in child.stderr
        else:
            assert re.fullmatch(r"rejected cannot allocate a \(\d+, \d+\) \w+ array "
                                r"\(\d+ bytes\): .+", lines[0])
        assert float(lines[-1].split()[1]) < 0.5

    @pytest.mark.parametrize("name", ["strong_error", "moment_check", "simulate_paths_batch"])
    @pytest.mark.parametrize("scheme", ["SemiDiscrete", "bogus", None])
    def test_rejects_a_scheme_that_is_not_a_scheme_id(
        self, standard_params, monkeypatch, name, scheme
    ):
        """A scheme's name is not a scheme: no block runs for it, so no
        unlisted scheme body does either."""

        def no_blocks(work, blocks):
            raise AssertionError("a block ran")

        monkeypatch.setattr("cevlab.experiments._map_blocks", no_blocks)
        grid = TimeGrid(1.0, 2**6)
        run = {
            "strong_error": lambda: strong_error(standard_params, scheme, grid, (4, 5), 10, 0),
            "moment_check": lambda: moment_check(standard_params, scheme, grid, 10, 0),
            "simulate_paths_batch": lambda: simulate_paths_batch(
                scheme, standard_params, grid, 10, 0
            ),
        }[name]
        with pytest.raises(ValidationError, match="scheme must be a SchemeId, got "):
            run()

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_path_floor(self, standard_params, name):
        """Every report needs two paths for its spread; a dump needs one."""
        grid = TimeGrid(1.0, 2**6)
        if name == "simulate_paths_batch":
            values, _, _ = _call(name, standard_params, grid, 1, 0)
            assert values.shape == (1, 2**6 + 1)
        else:
            with pytest.raises(ValidationError, match="n_paths must be an int >= 2"):
                _call(name, standard_params, grid, 1, 0)


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
        ladder = strong_error(
            noiseless_params, SchemeId.SEMI_DISCRETE, TimeGrid(1.0, 2**10),
            (4, 5, 6, 7), 1000, 7,
        )
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
        report = strong_error(
            params, SchemeId.SEMI_DISCRETE, TimeGrid(1.0, 2**16), (2, 3, 4, 5, 6), 4, 7
        )
        assert report.fitted_order == pytest.approx(1.0, abs=0.05)
        assert report.fit_r2 > 0.999
        assert all(rec.ci_halfwidth == 0.0 for rec in report.levels)

    def test_levels_sorted_and_monotone(self, standard_params):
        report = strong_error(
            standard_params, SchemeId.SEMI_DISCRETE, TimeGrid(1.0, 2**10),
            (3, 4, 5, 6), 2000, 11,
        )
        dts = [rec.dt for rec in report.levels]
        assert dts == sorted(dts, reverse=True)
        # statistical monotonicity: mse nonincreasing up to twice the ci
        for coarse, fine in zip(report.levels, report.levels[1:]):
            assert fine.mse <= coarse.mse + 2 * (coarse.ci_halfwidth + fine.ci_halfwidth)
        assert report.theoretical_order == pytest.approx(0.75 * 0.25, rel=1e-15)

    def test_bit_identical_across_thread_counts(self, standard_params, monkeypatch):
        args = (
            standard_params, SchemeId.SEMI_DISCRETE, TimeGrid(1.0, 2**9), (3, 4, 5),
            2500, 3,
        )
        monkeypatch.setenv("CEVLAB_THREADS", "1")
        a = strong_error(*args)
        monkeypatch.setenv("CEVLAB_THREADS", "3")
        b = strong_error(*args)
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
            # two chunks, and two blocks of 4097 and 4096 paths
            (10, (3, 5), _BLOCK_PATHS + 1),
        ],
    )
    def test_streamed_walk_equals_whole_matrix_ladder(
        self, standard_params, monkeypatch, ref, exps, n_paths, threads
    ):
        assert 2**ref > _CHUNK_STEPS
        monkeypatch.setenv("CEVLAB_THREADS", str(threads))
        report = strong_error(
            standard_params, SchemeId.SEMI_DISCRETE, TimeGrid(1.0, 2**ref), exps,
            n_paths, 20240601,
        )
        oracle = _whole_matrix_strong_error(
            standard_params, SchemeId.SEMI_DISCRETE, ref, exps, n_paths, 20240601
        )
        assert report == oracle

    @pytest.mark.parametrize("chunk", [1, 2, 8])
    def test_report_independent_of_chunk_size(
        self, standard_params, monkeypatch, chunk
    ):
        """Chunks share one noise buffer; no level may keep a view of it,
        down to one-step chunks, where a carry takes the raw row."""
        monkeypatch.setattr("cevlab.experiments._CHUNK_STEPS", chunk)
        report = strong_error(
            standard_params, SchemeId.SEMI_DISCRETE, TimeGrid(1.0, 2**6), (2, 3, 4),
            40, 20240601,
        )
        oracle = _whole_matrix_strong_error(
            standard_params, SchemeId.SEMI_DISCRETE, 6, (2, 3, 4), 40, 20240601
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
        with pytest.raises(InfeasibleLevel, match="e=4"):
            strong_error(
                standard_params, SchemeId.SEMI_DISCRETE, TimeGrid(16.0, 2**9), (4, 5),
                100, 0,
            )

    def test_infeasible_level_is_a_validation_error(self):
        assert issubclass(InfeasibleLevel, ValidationError)

    def test_euler_scheme_skips_stability_check(self):
        # the naive baseline has no stability precondition; a step far above
        # the semi-discrete bound still runs
        params = CevParams(k=1, l=1, sigma=0.2, a=0.75, x0=1)
        report = strong_error(
            params, SchemeId.EULER_NAIVE, TimeGrid(4.0, 2**6), (2, 3), 50, 0
        )
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

    @pytest.mark.parametrize("seed", [11, 19, 24, 30])
    def test_standard_config_no_events_and_prob_matches_rescan(
            self, standard_params, seed):
        grid = TimeGrid(1.0, 16)
        n_paths = 500
        stats = negativity_stats(standard_params, grid, n_paths, seed=seed)
        assert stats.z_negative_events == 0
        assert stats.clamp_events == 0
        # independent rescan: evaluate the one-step probability at every
        # pre-step state of the same trajectories and take the max
        values, _, _ = simulate_paths_batch(
            SchemeId.SEMI_DISCRETE, standard_params, grid, n_paths, seed=seed
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

    @pytest.mark.parametrize(
        "kind, strike",
        [
            ("EuropeanCall", 1.0),  # a name, which the Asian branch used to catch
            (None, 1.0),
            (PayoffKind.EUROPEAN_CALL, True),
            (PayoffKind.EUROPEAN_CALL, "1"),
            (PayoffKind.EUROPEAN_CALL, 10**400),
            (PayoffKind.EUROPEAN_CALL, math.inf),
            (PayoffKind.EUROPEAN_CALL, math.nan),
            (PayoffKind.EUROPEAN_PUT, -0.5),
        ],
        ids=["kind-name", "kind-none", "bool", "str", "huge-int", "inf", "nan", "negative"],
    )
    def test_spec_rejects_invalid_fields(self, kind, strike):
        with pytest.raises(ValidationError, match="^(kind|strike) must be a"):
            PayoffSpec(kind=kind, strike=strike)

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
    def test_global_path_index_replays_from_its_stream_key(self, monkeypatch, threads):
        # dt=1.5 is infeasible too, but only paths that climb far fail; with
        # seed 1 the first of them lies past path 4096, in the second block
        # of two workers
        monkeypatch.setenv("CEVLAB_THREADS", str(threads))
        p = CevParams(k=1, l=1, sigma=0.25, a=0.75, x0=1)
        grid = TimeGrid(6.0, 4)
        with pytest.raises(NegativeInner) as info:
            simulate_paths_batch(SchemeId.SEMI_DISCRETE, p, grid, 8192, 1)
        path, step = info.value.path, info.value.step
        assert (path, step) == (5757, 3)
        assert str(info.value).startswith(f"path {path}, step {step}: ")
        # every earlier path runs clean, and the named one fails on its own
        simulate_paths_batch(SchemeId.SEMI_DISCRETE, p, grid, path, 1)
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

    @pytest.mark.parametrize("threads", ["many", "0", "-2", "1.5"])
    def test_env_variable_garbage_rejected(self, standard_params, monkeypatch, threads):
        monkeypatch.setenv("CEVLAB_THREADS", threads)
        message = f"CEVLAB_THREADS must be a positive integer, got {threads!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            moment_check(
                standard_params, SchemeId.SEMI_DISCRETE, TimeGrid(1.0, 4), 64, seed=0
            )


def _every_report(params, n_steps, n_paths):
    """``strong_error``, ``moment_check``, ``negativity_stats`` and
    ``simulate_paths_batch`` of one run shape, comparable by ``==``."""
    grid = TimeGrid(1.0, n_steps)
    values, events, stats = simulate_paths_batch(
        SchemeId.SEMI_DISCRETE, params, grid, n_paths, 5
    )
    return (
        strong_error(params, SchemeId.SEMI_DISCRETE, grid, (2, 3, 4), n_paths, 5),
        moment_check(params, SchemeId.SEMI_DISCRETE, grid, n_paths, 5),
        negativity_stats(params, grid, n_paths, 5),
        values.tobytes(),
        events.tobytes(),
        stats,
    )


class TestBlockLayout:
    """``_layout`` cuts the paths into one balanced share per worker, in
    blocks and chunks sized by a noise budget.  No report depends on the
    layout: every float sum is per path, and every cross-path reduction is
    an exact count or a min."""

    @pytest.mark.parametrize(
        "workers, n_paths, n_steps, sizes, chunk",
        [
            # ladder: two 2500-path blocks per worker, chunked at 256 steps
            (2, 10_000, 2**12, [2500] * 4, 256),
            # reports' moments, call and put: drawn whole, 4000 x 256 <= 2^20
            (1, 20_000, 256, [4000] * 5, 256),
            # reports' negativity: at most 4096 paths per block
            (1, 62_500, 16, [3907] * 4 + [3906] * 12, 16),
            # dump
            (2, 8192, 64, [4096] * 2, 64),
            # more workers than paths: one path each
            (4, 3, 8, [1] * 3, 8),
            # drawn whole at 400 steps: 2^20 // 400 = 2621 paths per block
            (1, 10_000, 400, [2500] * 4, 400),
            # 2048 x 512 = 2^20: the widest block that keeps a 512-step chunk
            (2, 8192, 512, [2048] * 4, 512),
            # chunked, and 1500 x 512 fits the budget
            (2, 3000, 4096, [1500] * 2, 512),
            # chunked, and 3334 x 512 does not: the chunk halves once
            (2, 20_000, 1024, [3334] * 2 + [3333] * 4, 256),
        ],
    )
    def test_layout_of_benchmark_shapes(
        self, monkeypatch, workers, n_paths, n_steps, sizes, chunk
    ):
        monkeypatch.setenv("CEVLAB_THREADS", str(workers))
        blocks, got = _layout(n_paths, n_steps)
        assert [stop - start for start, stop in blocks] == sizes
        assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
        assert blocks[-1][1] == n_paths
        assert got == chunk

    @pytest.mark.parametrize("cap, n_paths", [(1, 20), (7, 20), (4096, 8200)])
    def test_reports_independent_of_path_cap(
        self, standard_params, monkeypatch, cap, n_paths
    ):
        monkeypatch.setenv("CEVLAB_THREADS", "2")
        want = _every_report(standard_params, 64, n_paths)
        monkeypatch.setattr("cevlab.experiments._BLOCK_PATHS", cap)
        blocks, _ = _layout(n_paths, 64)
        assert len(blocks) > 2 and max(b - a for a, b in blocks) <= cap
        assert _every_report(standard_params, 64, n_paths) == want

    @pytest.mark.parametrize("chunk", [1, 2, 8])
    def test_reports_independent_of_noise_budget(
        self, standard_params, monkeypatch, chunk
    ):
        """A budget of 6 x chunk doubles forces chunks of ``chunk`` steps on
        two 6-path blocks."""
        monkeypatch.setenv("CEVLAB_THREADS", "2")
        n_steps, n_paths = 2 * _CHUNK_STEPS, 12
        assert _layout(n_paths, n_steps) == ([(0, 6), (6, 12)], _CHUNK_STEPS)
        want = _every_report(standard_params, n_steps, n_paths)
        monkeypatch.setattr("cevlab.experiments._NOISE_BUDGET", 6 * chunk)
        assert _layout(n_paths, n_steps) == ([(0, 6), (6, 12)], chunk)
        assert _every_report(standard_params, n_steps, n_paths) == want


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

    # a layout forced to three blocks, the last of one path
    THREE_BLOCKS = [
        (0, _BLOCK_PATHS),
        (_BLOCK_PATHS, 2 * _BLOCK_PATHS),
        (2 * _BLOCK_PATHS, 2 * _BLOCK_PATHS + 1),
    ]

    def test_one_worker_runs_every_block_in_the_caller(self, deadline, monkeypatch):
        monkeypatch.setenv("CEVLAB_THREADS", "1")
        pids = _map_blocks(lambda block: os.getpid(), self.THREE_BLOCKS)
        assert pids == [os.getpid()] * 3
        _assert_every_worker_reaped()

    def test_two_workers_share_blocks_by_index(self, deadline, monkeypatch):
        monkeypatch.setenv("CEVLAB_THREADS", "2")
        pids = _map_blocks(lambda block: os.getpid(), self.THREE_BLOCKS)
        assert pids[0] == pids[2] == os.getpid()
        assert pids[1] != os.getpid()
        _assert_every_worker_reaped()

    def test_worker_that_dies_is_named(self, deadline, monkeypatch, tmp_path):
        monkeypatch.setenv("CEVLAB_THREADS", "2")
        caller = os.getpid()

        def work(block):
            if block[0] == _BLOCK_PATHS and os.getpid() != caller:
                (tmp_path / "pid").write_text(str(os.getpid()))
                os._exit(3)
            return block

        with pytest.raises(ChildProcessError) as info:
            _map_blocks(work, self.THREE_BLOCKS)
        pid = int((tmp_path / "pid").read_text())
        message = str(info.value)
        assert message.startswith(f"worker process {pid} ended with wait status ")
        assert "(exit code 3)" in message
        _assert_every_worker_reaped()

    def test_blocks_send_back_only_their_stats(self, deadline, standard_params, monkeypatch):
        """Whichever worker runs it, a block writes its rows into shared
        arrays, so no per-path array crosses the pipe: a block's result is
        its per-level stats, a few hundred bytes pickled."""
        monkeypatch.setenv("CEVLAB_THREADS", "2")
        results = []

        def spy(work, blocks):
            out = _map_blocks(work, blocks)
            results.extend(out)
            return out

        monkeypatch.setattr("cevlab.experiments._map_blocks", spy)
        simulate_paths_batch(
            SchemeId.SEMI_DISCRETE, standard_params, TimeGrid(1.0, 64), 8192, seed=0
        )
        assert len(results) == 2
        for result in results:
            assert isinstance(result, list)
            assert all(isinstance(stats, BatchStats) for stats in result)
            assert len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL)) < 512
        _assert_every_worker_reaped()

    def test_lowest_failed_block_is_raised(self, deadline, monkeypatch):
        monkeypatch.setenv("CEVLAB_THREADS", "2")
        caller = os.getpid()

        def work(block):
            if block[0] > 0:
                where = "caller" if os.getpid() == caller else "child"
                raise ValueError(f"block {block[0] // _BLOCK_PATHS} in {where}")
            return block

        with pytest.raises(ValueError, match=r"^block 1 in child$"):
            _map_blocks(work, self.THREE_BLOCKS)
        _assert_every_worker_reaped()
