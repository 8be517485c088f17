"""Acceptance gate: the eight contract-level checks, one test each, every
tolerance pinned.  Each test prints a single PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s

Known red: criterion 6 asserts that the largest one-step sign-flip
probability along visited states stays below 1e-50.  That ceiling holds at
the starting state (probability ~3e-57) but not along the chain: paths
routinely visit states below y ~ 0.76 where the one-step probability climbs
to ~1e-17, so the assertion fails by construction of the chain, not through
an implementation defect.  The observed-event and monotone-sweep clauses of
criterion 6 both hold.  See the test docstring for the numbers.  Clause
2' beside it bounds the same maximum by the largest flip probability over
all states, which holds.
"""

import math

import numpy as np
import pytest

from cevlab import (
    CevParams,
    NegativeInner,
    SchemeId,
    TimeGrid,
    max_stable_step,
    moment_check,
    negativity_stats,
    simulate_paths_batch,
    strong_error,
)
from cevlab.model import INNER_CLAMP_REL, _inner_clamped, max_step_negativity_bound

STANDARD = CevParams(k=1.0, l=1.0, sigma=1.0, a=0.75, x0=1.0)
SHIFTED = CevParams(k=1.0, l=1.0, sigma=1.0, a=0.75, x0=2.0)
NOISELESS = CevParams(k=1.0, l=1.0, sigma=0.0, a=0.75, x0=2.0)
EULER_STRESS = CevParams(k=1.0, l=0.61, sigma=1.0, a=0.6, x0=0.1)

MASTER_SEED = 20240601
REF_GRID = TimeGrid(1.0, 2**12)
LEVELS = (4, 5, 6, 7, 8, 9)


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def standard_convergence():
    """Criterion-3 workload, single-threaded; reused by criterion 8."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CEVLAB_THREADS", "1")
        return strong_error(
            STANDARD, SchemeId.SEMI_DISCRETE, REF_GRID, LEVELS, 10_000, MASTER_SEED
        )


def test_c1_positivity_and_naive_euler_contrast():
    """10^5 semi-discrete paths at dt=1/64 never touch zero and never clamp,
    while naive Euler on the stress config goes negative."""
    _, _, stats = simulate_paths_batch(
        SchemeId.SEMI_DISCRETE, STANDARD, TimeGrid(1.0, 64), 100_000, seed=MASTER_SEED
    )
    _, _, euler = simulate_paths_batch(
        SchemeId.EULER_NAIVE, EULER_STRESS, TimeGrid(1.0, 4), 10_000, seed=MASTER_SEED
    )
    ok = stats.min_value > 0.0 and stats.clamp_count == 0 and euler.min_value < 0.0
    _line(
        "C1 positivity + contrast",
        ok,
        f"semidiscrete min={stats.min_value:.3e}, clamps={stats.clamp_count}, "
        f"naive-euler min={euler.min_value:.3e}",
    )
    assert stats.min_value > 0.0
    assert stats.clamp_count == 0
    assert euler.min_value < 0.0


def test_c2_inner_nonnegative_across_feasible_region():
    """10^4 log-spaced states x 100 feasible parameter sets, drift boundary
    and maximal step included: the inner expression never drops below
    -1e-12 * max(1, y), the floor below which ``_inner_clamped`` raises
    NegativeInner (a negative above it is clamped to 0), and is never NaN."""
    assert INNER_CLAMP_REL == 1e-12
    rng = np.random.default_rng(99)
    ys = np.concatenate([[0.0], np.logspace(-12, 6, 10_000)])
    clamps, bad = 0, []
    for i in range(100):
        a = rng.uniform(0.51, 0.99)
        sigma = rng.uniform(0.0, 3.0)
        k = rng.uniform(0.01, 5.0)
        on_boundary = i % 2 == 0
        l = (a * sigma**2 / 2 + (0.0 if on_boundary else rng.uniform(0.0, 2.0))) / k
        params = CevParams(k=k, l=l, sigma=sigma, a=a, x0=1.0)
        dt = max_stable_step(params)
        try:
            inner, count = _inner_clamped(ys, dt, params)
        except NegativeInner as exc:
            bad.append(str(exc))
            continue
        if np.isnan(inner).any():
            bad.append(f"NaN inner expression for {params}")
        clamps += count
    ok = not bad
    _line("C2 inner nonnegativity sweep", ok,
          f"sets below floor or NaN={len(bad)}, clamped values={clamps}")
    assert not bad, bad[0]


def test_c3_strong_order_at_least_theoretical(standard_convergence):
    """Fitted log-log order >= 0.1875 - 0.05 with a clean fit (r2 >= 0.9);
    the 0.1875 bound is a floor, the observed order is reported as-is."""
    report = standard_convergence
    ok = report.fitted_order >= 0.1875 - 0.05 and report.fit_r2 >= 0.9
    _line(
        "C3 strong order",
        ok,
        f"fitted={report.fitted_order:.4f} (floor 0.1375), r2={report.fit_r2:.5f}, "
        f"theoretical>={report.theoretical_order}",
    )
    assert report.fitted_order >= 0.1875 - 0.05
    assert report.fit_r2 >= 0.9


def test_c4_deterministic_limit_first_order():
    """sigma=0 collapses every level to an exact recursion; the fitted order
    must be 1.00 +/- 0.05 with no Monte Carlo noise (all ci exactly 0)."""
    report = strong_error(
        NOISELESS, SchemeId.SEMI_DISCRETE, REF_GRID, LEVELS, 4, MASTER_SEED
    )
    ok = abs(report.fitted_order - 1.0) <= 0.05
    _line(
        "C4 deterministic-limit order",
        ok,
        f"fitted={report.fitted_order:.4f}, ci_max={max(r.ci_halfwidth for r in report.levels):.1e}",
    )
    assert report.fitted_order == pytest.approx(1.0, abs=0.05)
    assert all(rec.ci_halfwidth == 0.0 for rec in report.levels)


def test_c5_mean_matches_drift_ode():
    """x0=2 run at dt=2^-8 with 10^5 paths: sample mean within
    3 standard errors + 0.01 of l + (x0-l) e^(-kT) = 1.3678794."""
    report = moment_check(
        SHIFTED, SchemeId.SEMI_DISCRETE, TimeGrid(1.0, 256), 100_000, seed=MASTER_SEED
    )
    budget = 3 * report.se_mean + 0.01
    ok = abs(report.sample_mean - 1.3678794) <= budget
    _line(
        "C5 mean consistency",
        ok,
        f"mean={report.sample_mean:.6f}, analytic={report.analytic_mean:.7f}, "
        f"|err|={report.abs_mean_error:.5f} <= {budget:.5f}",
    )
    assert abs(report.sample_mean - 1.3678794) <= budget


def test_c6_sign_flip_rarity():
    """Three clauses at dt=1/16 on the standard configuration:

    (1) zero observed z<0 events over 10^6 path-steps  -- holds;
    (2) max one-step analytic flip probability along visited states < 1e-50
        -- does NOT hold and cannot: ~17% of paths leave y > 0.764 after a
        single step (z ~ N(0.994, 0.0625) in transformed coordinates), and
        any state below that line already has one-step probability above
        1e-50; the observed maximum is ~2e-17.  The bound is satisfied at
        the starting state only (Phi(-15.9) ~ 3e-57).  Kept as stated so the
        failure stays visible rather than silently relaxed;
    (3) halving dt never increases the max analytic probability across a
        5-level sweep -- holds with many orders of magnitude to spare.
    """
    stats = negativity_stats(STANDARD, TimeGrid(1.0, 16), 62_500, seed=MASTER_SEED)
    clause1 = stats.z_negative_events == 0 and stats.total_steps == 1_000_000

    sweep = [
        negativity_stats(
            STANDARD, TimeGrid(1.0, 2**e), 4096, seed=MASTER_SEED
        ).max_step_negativity_prob
        for e in range(4, 9)
    ]
    clause3 = all(b <= a for a, b in zip(sweep, sweep[1:]))
    clause2 = stats.max_step_negativity_prob < 1e-50

    ok = clause1 and clause2 and clause3
    _line(
        "C6 sign-flip rarity",
        ok,
        f"events={stats.z_negative_events}/{stats.total_steps} (clause1 "
        f"{'ok' if clause1 else 'FAIL'}), max_prob={stats.max_step_negativity_prob:.3e} "
        f"vs 1e-50 (clause2 {'ok' if clause2 else 'FAIL'}), sweep monotone="
        f"{clause3} (clause3 {'ok' if clause3 else 'FAIL'})",
    )
    assert clause1, "observed z<0 events in the standard configuration"
    assert clause3, "halving dt increased the max analytic probability"
    assert clause2, (
        "max one-step flip probability along visited states is "
        f"{stats.max_step_negativity_prob:.3e}, not below 1e-50; the ceiling "
        "only holds at the starting state, see docstring"
    )


def test_c6_clause2_prime_bound_at_the_convex_minimum():
    """Clause 2', beside the red clause 2 at dt=1/16 on the standard
    configuration: the observed max one-step flip probability (~7.5e-18) is
    at most the flip probability at the minimum of inner over all states
    (~6.5e-16); that bound falls strictly as dt halves over 2^-4 .. 2^-8,
    and is below 1e-50 at 2^-8 (~6.4e-58)."""
    stats = negativity_stats(STANDARD, TimeGrid(1.0, 16), 62_500, seed=MASTER_SEED)
    bounds = [max_step_negativity_bound(STANDARD, 2.0**-e) for e in range(4, 9)]
    holds = stats.max_step_negativity_prob <= bounds[0]
    falls = all(b < a for a, b in zip(bounds, bounds[1:]))
    tiny = bounds[-1] < 1e-50
    _line(
        "C6 clause 2' convex-minimum bound",
        holds and falls and tiny,
        f"max_prob={stats.max_step_negativity_prob:.3e} <= {bounds[0]:.3e}: {holds}, "
        f"bounds {', '.join(f'{b:.3g}' for b in bounds)} falling: {falls}, "
        f"< 1e-50 at 2^-8: {tiny}",
    )
    assert holds, "a visited state's flip probability exceeds the bound"
    assert falls, "halving dt did not lower the bound"
    assert tiny, f"the bound at dt=2^-8 is {bounds[-1]:.3e}, not below 1e-50"


def test_c7_second_moment_stays_bounded():
    """Terminal second moment across dt in {2^-4 .. 2^-9} moves by less than
    5 pooled standard errors between the coarsest and finest level."""
    n_paths = 20_000
    reports = [
        moment_check(
            STANDARD, SchemeId.SEMI_DISCRETE, TimeGrid(1.0, 2**e), n_paths, seed=MASTER_SEED
        )
        for e in range(4, 10)
    ]
    m2 = [r.sample_second_moment for r in reports]
    pooled = math.hypot(reports[0].se_second, reports[-1].se_second)
    gap = abs(m2[0] - m2[-1])
    ok = gap < 5 * pooled
    _line(
        "C7 second-moment boundedness",
        ok,
        f"|m2(2^-4) - m2(2^-9)| = {gap:.5f} < 5*pooled_se = {5 * pooled:.5f}",
    )
    assert gap < 5 * pooled


def test_c8_bit_identical_across_thread_caps(standard_convergence, monkeypatch):
    """The criterion-3 report is byte-for-byte reproducible with
    CEVLAB_THREADS=1 and CEVLAB_THREADS=4."""
    args = (STANDARD, SchemeId.SEMI_DISCRETE, REF_GRID, LEVELS, 10_000, MASTER_SEED)
    monkeypatch.setenv("CEVLAB_THREADS", "4")
    threaded = strong_error(*args)
    monkeypatch.setenv("CEVLAB_THREADS", "1")
    serial = strong_error(*args)
    ok = threaded == serial == standard_convergence
    _line(
        "C8 thread reproducibility",
        ok,
        f"reports identical for CEVLAB_THREADS in {{1,4}}: {ok} "
        f"(fitted={threaded.fitted_order:.12f})",
    )
    assert threaded == serial
    assert threaded == standard_convergence
