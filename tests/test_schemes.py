"""The step kernel and path simulation: positivity, collapse identities, and
agreement with high-precision replays and with independent scalar steppers."""

import importlib.util
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cevlab import (
    CevParams,
    NegativeInner,
    SchemeId,
    TimeGrid,
    ValidationError,
    inner_value,
    max_stable_step,
    simulate_paths_batch,
    step_negativity_prob,
)
from cevlab import model, schemes
from cevlab.brownian import _increment_block
from cevlab.schemes import _step_block, _Walk


def _load_refstep():
    """The benchmark's independent scalar stepper, loaded by file path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "refstep.py"
    spec = importlib.util.spec_from_file_location("cevlab_test_refstep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


refstep = _load_refstep()

# The benchmark's tolerance against refstep (perfbench/workloads.py).
REF_RTOL = 1e-9
# The scalar Euler forms below evaluate each formula in the kernel's order, so
# only pow may round differently; 1e-12 leaves room for that to grow along a
# path.
EULER_TOL = 1e-12

# The stress configuration sends the Euler baselines below zero.
STRESS = CevParams(k=1.0, l=0.61, sigma=1.0, a=0.6, x0=0.1)


def _walk_step(scheme, y, dt, dw, params, with_events=True):
    """One step of a walk from the states ``y`` on the increments ``dw``:
    (next, event row or None, stats)."""
    events = np.empty((np.size(y), 2), np.uint8) if with_events else None
    walk = _Walk(scheme, params, dt, np.size(y), event_matrix=events)
    walk.y = np.array(y, float)
    walk.advance(np.asarray(dw, float)[np.newaxis])
    terminal, _, stats = walk.result()
    return terminal, None if events is None else events[:, 1].astype(bool), stats


def _step(scheme, y, dt, dw, params):
    """One step from a single state: (next, event, clamped)."""
    out, events, stats = _walk_step(scheme, [y], dt, [dw], params)
    return float(out[0]), bool(events[0]), stats.clamp_count > 0


def _euler_reference(scheme, x, dt, dw, k, l, sigma, a):
    """One Euler-Maruyama baseline step in scalar Python, from the published
    formulas: (next, the proposed iterate went negative)."""
    if scheme is SchemeId.EULER_NAIVE:
        # sign-preserving |x|^a keeps the iteration total below zero
        x_next = x + (k * l - k * x) * dt + sigma * math.copysign(abs(x) ** a, x) * dw
        return x_next, x_next < 0.0
    if scheme is SchemeId.EULER_FULL_TRUNCATION:
        xp = max(x, 0.0)
        x_next = x + (k * l - k * xp) * dt + sigma * xp**a * dw
        return x_next, x_next < 0.0
    proposal = x + (k * l - k * x) * dt + sigma * abs(x) ** a * dw
    return abs(proposal), proposal < 0.0


def _semidiscrete_z_negative(y, dt, dw, k, l, sigma, a):
    """Whether z = sigma (1-a) dW + inner(y)^(1-a) is negative, in scalar Python."""
    inner = y * (1.0 - k * dt) + dt * (
        k * l - 0.5 * a * sigma * sigma * y ** (2.0 * a - 1.0)
    )
    return sigma * (1.0 - a) * dw + max(inner, 0.0) ** (1.0 - a) < 0.0


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
        y, z_negative, clamped = _step(SchemeId.SEMI_DISCRETE, 1.0, 0.1, 0.3, p)
        assert y == pytest.approx(1.0, rel=1e-15)
        assert not z_negative and not clamped

    def test_zero_noise_is_inner_value(self):
        p = CevParams(k=1, l=1, sigma=1, a=0.75, x0=1)
        y, _, _ = _step(SchemeId.SEMI_DISCRETE, 4.0, 0.1, 0.0, p)
        assert y == pytest.approx(3.625, rel=1e-15)

    def test_matches_50_digit_value(self):
        # frozen from a 50-digit evaluation of the update formula
        p = CevParams(k=1, l=1, sigma=0.5, a=0.75, x0=1)
        y, z_negative, _ = _step(SchemeId.SEMI_DISCRETE, 1.0, 0.1, 0.2, p)
        assert y == pytest.approx(1.0937161718944800459, rel=1e-12)
        assert not z_negative

    def test_negative_z_reflects_to_positive(self):
        # l=0 forces inner=0 at y=0; any dw<0 makes z<0 and output |z|^(1/(1-a))>0
        p = CevParams(k=1.0, l=0.0, sigma=1.0, a=0.75, x0=1)
        y, z_negative, _ = _step(SchemeId.SEMI_DISCRETE, 0.0, 0.1, -0.4, p)
        assert z_negative
        assert y == pytest.approx((0.25 * 0.4) ** 4, rel=1e-12)
        assert y > 0.0

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
        l = (a * sigma**2 / 2 + extra) / k
        params = CevParams(k=k, l=l, sigma=sigma, a=a, x0=1.0)
        dt = frac * max_stable_step(params)
        inner = inner_value(y, dt, params)
        at_zero, _, _ = _step(SchemeId.SEMI_DISCRETE, y, dt, 0.0, params)
        assert at_zero == pytest.approx(inner, rel=1e-12, abs=1e-300)
        stepped, _, _ = _step(
            SchemeId.SEMI_DISCRETE, y, dt, dw_scaled * math.sqrt(dt), params
        )
        assert stepped >= 0.0

    def test_positivity_over_1e6_random_and_adversarial_steps(self, standard_params):
        """One vectorized sweep: a million random one-step inputs plus the
        +-10 sqrt(dt) extremes all land strictly above zero."""
        rng = np.random.default_rng(20240916)
        dt = 1 / 16
        y = 10 ** rng.uniform(-6, 4, size=1_000_000)
        dw = rng.normal(0.0, math.sqrt(dt), size=1_000_000)
        out, _, _ = _walk_step(SchemeId.SEMI_DISCRETE, y, dt, dw, standard_params)
        assert float(out.min()) > 0.0
        for bad_dw in (-10 * math.sqrt(dt), 10 * math.sqrt(dt)):
            out, _, _ = _walk_step(
                SchemeId.SEMI_DISCRETE, y, dt, np.full(y.size, bad_dw), standard_params
            )
            assert float(out.min()) > 0.0

    def test_monotone_in_dw_on_positive_branch(self, standard_params):
        y, dt = 0.7, 1 / 16
        inner = inner_value(y, dt, standard_params)
        threshold = -(inner ** (1 - 0.75)) / (1.0 * 0.25)
        grid = np.linspace(threshold * 0.999, 5.0, 200)
        # one state against 200 increments
        outputs, _, _ = _walk_step(
            SchemeId.SEMI_DISCRETE, np.full(200, y), dt, grid, standard_params
        )
        assert outputs.shape == (200,)
        assert np.all(np.diff(outputs) >= 0.0)


class TestEulerStep:
    def test_full_truncation_fixed_point(self):
        p = CevParams(k=1, l=1, sigma=0.7, a=0.8, x0=1)
        assert _step(SchemeId.EULER_FULL_TRUNCATION, 1.0, 0.1, 0.0, p)[0] == 1.0

    def test_full_truncation_from_negative_state(self):
        p = CevParams(k=1, l=1, sigma=1, a=0.75, x0=1)
        got, _, _ = _step(SchemeId.EULER_FULL_TRUNCATION, -0.5, 0.1, 0.0, p)
        assert got == pytest.approx(-0.4, rel=1e-15)

    def test_reflected_unit_state(self):
        p = CevParams(k=1, l=1, sigma=0.5, a=0.75, x0=1)
        got, _, _ = _step(SchemeId.EULER_REFLECTED, 1.0, 0.1, 0.2, p)
        assert got == pytest.approx(1.1, rel=1e-15)

    def test_naive_sign_preserving_diffusion(self):
        p = CevParams(k=1, l=1, sigma=1, a=0.75, x0=1)
        # x=-1: drift (1-(-1))*0.1=0.2, diffusion sign(-1)*|−1|^a*dw = -dw
        got, went_negative, clamped = _step(SchemeId.EULER_NAIVE, -1.0, 0.1, 0.3, p)
        assert got == pytest.approx(-1.0 + 0.2 - 0.3, rel=1e-14)
        assert went_negative and not clamped


# l = 0 breaks the drift condition, so the inner expression has a root at
# y* = (dt a sigma^2 / (2 (1 - k dt)))^(1/(2-2a)) = 1/576, where it rounds to
# tiny negatives: the rounding clamp's range.
CLAMP_PARAMS = CevParams(k=1.0, l=0.0, sigma=1.0, a=0.75, x0=1.0)
CLAMP_DT = 0.1


def _plain_inner(y, dt, params):
    """The inner expression y(1 - k dt) + dt (k l - a sigma^2 y^(2a-1) / 2) by
    its plain formula, unclamped."""
    k, l, sigma, a = params.k, params.l, params.sigma, params.a
    return y * (1.0 - k * dt) + dt * (
        k * l - 0.5 * a * sigma**2 * np.power(y, 2.0 * a - 1.0))


def _state_in_clamp_range():
    """A state just below y* whose inner value rounds into [-tol, 0)."""
    root = 1.0 / 576.0
    for y in root * (1.0 - np.arange(1, 64) * 2.0**-52):
        raw = float(_plain_inner(y, CLAMP_DT, CLAMP_PARAMS))
        if -1e-12 <= raw < 0.0:
            return float(y)
    raise AssertionError("no state rounds into the clamp range")


def _unfused_step(scheme, y, dt, dw, params):
    """The step and the rounding clamp by the plain formulas:
    (next, event mask, clamp mask, min inner^(1-a))."""
    k, l, sigma, a = params.k, params.l, params.sigma, params.a
    if scheme is SchemeId.SEMI_DISCRETE:
        raw = _plain_inner(y, dt, params)
        # within -1e-12 max(1, y) of zero a negative is rounding, clamped to 0
        assert np.all(raw >= -1e-12 * np.maximum(1.0, y))
        clamps = raw < 0.0
        ipow = np.power(np.where(clamps, 0.0, raw), 1.0 - a)
        z = sigma * (1.0 - a) * dw + ipow
        return np.power(np.abs(z), 1.0 / (1.0 - a)), z < 0.0, clamps, float(ipow.min())
    if scheme is SchemeId.EULER_NAIVE:
        proposal = y + (k * l - k * y) * dt + sigma * (
            np.sign(y) * np.power(np.abs(y), a)) * dw
        return proposal, proposal < 0.0, np.zeros(y.shape, bool), math.inf
    if scheme is SchemeId.EULER_FULL_TRUNCATION:
        yp = np.maximum(y, 0.0)
        proposal = y + (k * l - k * yp) * dt + sigma * np.power(yp, a) * dw
        return proposal, proposal < 0.0, np.zeros(y.shape, bool), math.inf
    proposal = y + (k * l - k * y) * dt + sigma * np.power(np.abs(y), a) * dw
    return np.abs(proposal), proposal < 0.0, np.zeros(y.shape, bool), math.inf


class TestFusedKernel:
    """The fused in-place kernel against the plain formulas, on states that
    take its rare branches: an inner value in the clamp range and a negative
    noise term z (or proposed Euler iterate)."""

    @staticmethod
    def _rare_inputs():
        # row 1 is clamped; row 2's large negative increment makes z < 0
        y = np.array([1.0, _state_in_clamp_range(), 1.0, 0.3])
        dw = np.array([0.1, 0.2, -5.0, -0.05])
        return y, dw

    def _assert_same(self, got, want):
        y_next, events, stats = got
        assert y_next.tobytes() == want[0].tobytes()
        assert events is None or np.array_equal(events, want[1])
        assert stats.sign_flip_count == np.count_nonzero(want[1])
        assert stats.clamp_count == np.count_nonzero(want[2])
        assert stats.min_inner_pow == want[3]

    @pytest.mark.parametrize("with_events", [True, False])
    def test_rare_branches_match_unfused_formulas(self, with_events):
        y, dw = self._rare_inputs()
        want = _unfused_step(SchemeId.SEMI_DISCRETE, y, CLAMP_DT, dw, CLAMP_PARAMS)
        assert want[1].tolist() == [False, False, True, False]
        assert want[2].tolist() == [False, True, False, False]
        got = _walk_step(
            SchemeId.SEMI_DISCRETE, y, CLAMP_DT, dw, CLAMP_PARAMS, with_events
        )
        self._assert_same(got, want)

    def test_quiet_step_builds_no_masks(self):
        y, dw = np.array([1.0, 0.5]), np.array([0.1, -0.1])
        walk = _Walk(SchemeId.SEMI_DISCRETE, CLAMP_PARAMS, CLAMP_DT, y.size)
        y_next, events, clamps, ipow_min = _step_block(walk, y, dw)
        want = _unfused_step(SchemeId.SEMI_DISCRETE, y, CLAMP_DT, dw, CLAMP_PARAMS)
        assert events is None and clamps == 0
        assert not want[1].any() and not want[2].any()
        assert y_next.tobytes() == want[0].tobytes() and ipow_min == want[3]

    @pytest.mark.parametrize(
        "scheme", [s for s in SchemeId if s is not SchemeId.SEMI_DISCRETE])
    @pytest.mark.parametrize("with_events", [True, False])
    def test_euler_branches_match_unfused_formulas(self, scheme, with_events):
        y = np.array([1.0, -0.2, 0.0, 0.04])
        dw = np.array([0.1, 0.05, 0.0, -2.0])
        want = _unfused_step(scheme, y, 0.25, dw, STRESS)
        assert want[1].any()
        got = _walk_step(scheme, y, 0.25, dw, STRESS, with_events)
        assert got[2].clamp_count == 0
        self._assert_same(got, want)

    def test_event_matrix_columns_are_all_written(self):
        """Every column of an event matrix is written: 0 on a quiet step,
        1 exactly where z went negative, whatever the matrix held before."""
        n_paths, n_steps, dt = 32, 8, 1 / 8
        k, l, sigma, a = STRESS.k, STRESS.l, STRESS.sigma, STRESS.a
        dw = _increment_block(42, 0, n_paths, n_steps, dt)
        values = np.empty((n_paths, n_steps + 1))
        events = np.ones((n_paths, n_steps + 1), np.uint8)
        walk = _Walk(SchemeId.SEMI_DISCRETE, STRESS, dt, n_paths, 0, values, events)
        walk.advance(dw.T)
        flags = [
            [False] + [
                _semidiscrete_z_negative(y, dt, dw_k, k, l, sigma, a)
                for y, dw_k in zip(row, dws)
            ]
            for row, dws in zip(values, dw)
        ]
        assert events.tolist() == np.array(flags, np.uint8).tolist()
        stepped = events[:, 1:].any(axis=0)
        assert stepped.any() and not stepped.all()  # both kinds of step occur

    def test_walk_counts_and_minima(self):
        y, dw = self._rare_inputs()
        want_next, _, _, want_min = _unfused_step(
            SchemeId.SEMI_DISCRETE, y, CLAMP_DT, dw, CLAMP_PARAMS
        )
        walk = _Walk(SchemeId.SEMI_DISCRETE, CLAMP_PARAMS, CLAMP_DT, y.size)
        walk.y = y.copy()
        walk.advance(dw[np.newaxis])
        terminal, path_mean, stats = walk.result()
        assert terminal.tobytes() == want_next.tobytes() == path_mean.tobytes()
        assert (stats.sign_flip_count, stats.clamp_count) == (1, 1)
        assert stats.min_value == min(CLAMP_PARAMS.x0, float(want_next.min()))
        assert stats.min_inner_pow == want_min

    def test_scalar_helpers_return_the_kernels_bits(self, monkeypatch):
        """``inner_value`` and ``step_negativity_prob`` equal, bit for bit, the
        inner value and the flip probability of a one-row walk step, on 10^4
        random feasible states and on a state in the clamp range."""
        seen = []

        def recording(*args):
            inner, clamps = model._inner_clamped(*args)
            seen.append(float(inner[0]))
            return inner, clamps

        monkeypatch.setattr(schemes, "_inner_clamped", recording)
        rng = np.random.default_rng(20261020)
        cases = [(CLAMP_PARAMS, CLAMP_DT, [_state_in_clamp_range()])]
        for _ in range(100):
            a, sigma = rng.uniform(0.51, 0.99), rng.uniform(0.05, 3.0)
            k = rng.uniform(0.01, 5.0)
            l = (a * sigma**2 / 2 + rng.uniform(0.0, 1.0)) / k
            params = CevParams(k=k, l=l, sigma=sigma, a=a, x0=1.0)
            dt = rng.uniform(0.01, 1.0) * max_stable_step(params)
            cases.append((params, dt, [0.0, *10 ** rng.uniform(-12, 2, size=100)]))
        kernel, scalar = [], []
        for params, dt, ys in cases:
            walk = _Walk(SchemeId.SEMI_DISCRETE, params, dt, 1)
            for y in ys:
                seen.clear()
                _, _, _, ipow_min = _step_block(walk, np.array([y]), np.zeros(1))
                assert len(seen) == 1  # the step evaluates inner once, in model
                kernel.append((seen[0], model._sign_flip_prob(ipow_min, dt, params)))
                scalar.append(
                    (inner_value(y, dt, params), step_negativity_prob(y, dt, params)))
        assert len(kernel) >= 10_000 and kernel[0] == (0.0, 0.5)
        assert [(i.hex(), p.hex()) for i, p in scalar] == [
            (i.hex(), p.hex()) for i, p in kernel]
        assert sum(p > 0.0 for _, p in kernel) > 1000  # the flip tail is exercised

    def test_negative_inner_names_global_path_and_step(self):
        # far below y* the inner expression is a genuine negative, not rounding
        y, dw = self._rare_inputs()
        y[3] = 1e-4
        walk = _Walk(SchemeId.SEMI_DISCRETE, CLAMP_PARAMS, CLAMP_DT, y.size, 100)
        walk.y, walk.steps = y.copy(), 7
        with pytest.raises(NegativeInner, match=r"^path 103, step 7: ") as info:
            walk.advance(dw[np.newaxis])
        assert (info.value.path, info.value.step) == (103, 7)


class TestTrajectories:
    def test_noiseless_closed_recursion(self, noiseless_params):
        grid = TimeGrid(1.0, 10)
        # the keyed noise is ignored at sigma=0
        values, events, stats = simulate_paths_batch(
            SchemeId.SEMI_DISCRETE, noiseless_params, grid, 1, seed=0
        )
        expected = 1.0 + 0.9 ** np.arange(11)
        assert values[0] == pytest.approx(expected, rel=1e-12)
        assert np.all(np.diff(values[0]) < 0)
        assert stats.min_value == values[0, -1]
        assert stats.sign_flip_count == 0 and stats.clamp_count == 0
        assert not events.any()

    def test_single_step_equals_step_map(self, standard_params):
        grid = TimeGrid(0.25, 1)
        values, _, _ = simulate_paths_batch(
            SchemeId.SEMI_DISCRETE, standard_params, grid, 1, seed=99
        )
        [[dw]] = _increment_block(99, 0, 1, 1, grid.dt)
        direct, _, _ = _step(
            SchemeId.SEMI_DISCRETE, standard_params.x0, grid.dt, dw, standard_params
        )
        assert values[0, 1] == direct
        assert values[0, 0] == standard_params.x0

    def test_matches_50_digit_replay(self, standard_params):
        """Every node of a 64-step trajectory agrees with a 50-digit replay of
        the recursion to 1e-10 relative."""
        mp.mp.dps = 50
        grid = TimeGrid(1.0, 64)
        values, _, _ = simulate_paths_batch(
            SchemeId.SEMI_DISCRETE, standard_params, grid, 1, seed=42
        )
        [inc] = _increment_block(42, 0, 1, 64, grid.dt)

        k, l, sig, a = (mp.mpf(v) for v in ("1", "1", "1", "0.75"))
        dt = mp.mpf(repr(grid.dt))
        y = mp.mpf(1)
        for j in range(64):
            inner = y * (1 - k * dt) + dt * (
                k * l - a * sig**2 / 2 * (y ** (2 * a - 1) if y > 0 else mp.mpf(0))
            )
            z = sig * (1 - a) * mp.mpf(repr(float(inc[j]))) + inner ** (1 - a)
            y = mp.fabs(z) ** (1 / (1 - a))
            assert abs(values[0, j + 1] - float(y)) <= 1e-10 * float(y)

    def test_infeasible_step_raises_negative_inner(self):
        # dt far above the stability bound eventually drives inner negative
        p = CevParams(k=1, l=1, sigma=1, a=0.75, x0=2)
        grid = TimeGrid(8.0, 4)  # dt=2 >> 2/2.75
        with pytest.raises(NegativeInner):
            simulate_paths_batch(SchemeId.SEMI_DISCRETE, p, grid, 1, seed=3)

    def test_positivity_along_noisy_paths(self, standard_params):
        values, _, stats = simulate_paths_batch(
            SchemeId.SEMI_DISCRETE, standard_params, TimeGrid(1.0, 64), 20, seed=77
        )
        assert np.all(values.min(axis=1) > 0.0)
        assert stats.min_value > 0.0

    def test_naive_euler_goes_negative_on_stress_config(self):
        values, events, _ = simulate_paths_batch(
            SchemeId.EULER_NAIVE, STRESS, TimeGrid(1.0, 4), 200, seed=8
        )
        negative = values.min(axis=1) < 0.0
        assert negative.any()
        assert np.all(events[negative].sum(axis=1) > 0)

    def test_reflected_euler_counts_reflections(self):
        values, _, stats = simulate_paths_batch(
            SchemeId.EULER_REFLECTED, STRESS, TimeGrid(1.0, 4), 200, seed=8
        )
        assert float(values.min()) >= 0.0
        assert stats.sign_flip_count > 0

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
        results = {
            scheme: simulate_paths_batch(scheme, params, grid, 1, seed=0)[0][0]
            for scheme in SchemeId
        }
        reference = results[SchemeId.SEMI_DISCRETE]
        for scheme, values in results.items():
            assert values == pytest.approx(reference, rel=1e-14, abs=1e-14)


class TestIndependentReference:
    """The kernel against steppers that share no code with it: refstep for
    the semi-discrete update, the scalar forms above for the baselines."""

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_batch_rows_match_reference_paths(self, scheme):
        grid = TimeGrid(1.0, 8)
        values, events, stats = simulate_paths_batch(scheme, STRESS, grid, 32, seed=42)
        assert values.shape == (32, 9)
        assert events.any()  # every scheme has events on this grid
        k, l, sigma, a, x0 = STRESS.k, STRESS.l, STRESS.sigma, STRESS.a, STRESS.x0
        for path in range(32):
            dws = refstep.increments(42, path, grid.n_steps, grid.dt)
            if scheme is SchemeId.SEMI_DISCRETE:
                want = refstep.path(42, path, grid.n_steps, 1.0, k, l, sigma, a, x0)
                flags = [False] + [
                    _semidiscrete_z_negative(y, grid.dt, dw, k, l, sigma, a)
                    for y, dw in zip(want, dws)
                ]
                assert np.allclose(values[path], want, rtol=REF_RTOL, atol=0.0)
            else:
                want, flags = [x0], [False]
                for dw in dws:
                    x_next, negative = _euler_reference(
                        scheme, want[-1], grid.dt, dw, k, l, sigma, a
                    )
                    want.append(x_next)
                    flags.append(negative)
                assert np.allclose(values[path], want, rtol=EULER_TOL, atol=EULER_TOL)
            assert events[path].tolist() == flags
        assert stats.min_value == float(values.min())
        assert stats.sign_flip_count == int(events.sum())

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_vector_step_matches_reference_steps(self, scheme):
        dt = 1 / 4
        rng = np.random.default_rng(7)
        y = 10 ** rng.uniform(-4, 1, size=500)
        if scheme is not SchemeId.SEMI_DISCRETE:
            y[::3] *= -1.0  # the baselines step from negative states too
        dw = rng.normal(0.0, math.sqrt(dt), size=500)
        out, events, stats = _walk_step(scheme, y, dt, dw, STRESS)
        assert stats.clamp_count == 0
        k, l, sigma, a = STRESS.k, STRESS.l, STRESS.sigma, STRESS.a
        for i in range(y.size):
            yi, dwi = float(y[i]), float(dw[i])
            if scheme is SchemeId.SEMI_DISCRETE:
                want = refstep.step(yi, dt, dwi, k, l, sigma, a)
                negative = _semidiscrete_z_negative(yi, dt, dwi, k, l, sigma, a)
                assert math.isclose(out[i], want, rel_tol=REF_RTOL, abs_tol=0.0)
            else:
                want, negative = _euler_reference(scheme, yi, dt, dwi, k, l, sigma, a)
                assert math.isclose(out[i], want, rel_tol=EULER_TOL, abs_tol=EULER_TOL)
            assert bool(events[i]) == negative
