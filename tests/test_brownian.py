"""Keyed increment streams and dyadic coarsening."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cevlab import (
    IncrementArray,
    NonDivisibleFactor,
    StreamKey,
    ValidationError,
    coarsen,
    sample_increments,
)


class TestStreamKey:
    def test_valid_range(self):
        StreamKey(master_seed=0, path_index=2**64 - 1)

    @pytest.mark.parametrize("seed, path", [(-1, 0), (0, -3), (2**64, 0)])
    def test_rejects_out_of_range(self, seed, path):
        with pytest.raises(ValidationError):
            StreamKey(master_seed=seed, path_index=path)

    @pytest.mark.parametrize(
        "seed, path", [(True, 0), (0, False), (True, False), (1.0, 0), (0, "1")]
    )
    def test_rejects_non_int_fields(self, seed, path):
        with pytest.raises(ValidationError):
            StreamKey(master_seed=seed, path_index=path)


class TestSampleIncrements:
    def test_bit_identical_rerun(self):
        a = sample_increments(StreamKey(123, 1), 4096, 0.25)
        b = sample_increments(StreamKey(123, 1), 4096, 0.25)
        assert (a.values == b.values).all()
        assert a.dt == b.dt

    def test_gaussian_moments(self):
        n, dt = 1_000_000, 0.001
        inc = sample_increments(StreamKey(123, 0), n, dt)
        assert abs(inc.values.mean()) < 4 * math.sqrt(dt / n)
        assert abs(inc.values.var(ddof=1) - dt) < 0.01 * dt

    def test_streams_uncorrelated(self):
        n = 100_000
        a = sample_increments(StreamKey(123, 1), n, 0.5).values
        b = sample_increments(StreamKey(123, 2), n, 0.5).values
        assert abs(float(np.corrcoef(a, b)[0, 1])) < 0.01

    def test_values_are_read_only(self):
        inc = sample_increments(StreamKey(5, 5), 16, 0.1)
        with pytest.raises(ValueError):
            inc.values[0] = 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            sample_increments(StreamKey(1, 1), 0, 0.1)
        with pytest.raises(ValidationError):
            sample_increments(StreamKey(1, 1), 4, -0.1)


class TestCoarsen:
    def test_pairwise_sums(self):
        inc = IncrementArray(0.25, np.array([0.1, -0.2, 0.3, 0.05]))
        out = coarsen(inc, 2)
        assert out.dt == 0.5
        assert out.values == pytest.approx([-0.1, 0.35], rel=0, abs=1e-16)
        # factor 2 blocks are single additions, hence exact
        assert out.values[0] == 0.1 + -0.2
        assert out.values[1] == 0.3 + 0.05

    def test_identity_factor(self):
        inc = sample_increments(StreamKey(7, 0), 32, 0.125)
        out = coarsen(inc, 1)
        assert out.dt == inc.dt
        assert (out.values == inc.values).all()

    def test_full_collapse_matches_sequential_total(self):
        values = np.array([0.1, -0.2, 0.3, 0.05])
        out = coarsen(IncrementArray(0.25, values), 4)
        assert out.length == 1
        assert out.dt == 1.0
        total = 0.0
        for v in values:
            total += v
        assert out.values[0] == pytest.approx(total, rel=1e-15)

    def test_rejects_non_divisible(self):
        inc = sample_increments(StreamKey(7, 0), 10, 0.1)
        with pytest.raises(NonDivisibleFactor):
            coarsen(inc, 3)
        with pytest.raises(NonDivisibleFactor):
            coarsen(inc, 0)

    @given(
        seed=st.integers(0, 2**32),
        log_p=st.integers(0, 5),
        q=st.integers(1, 6),
        m=st.integers(1, 4),
    )
    @settings(max_examples=80)
    def test_composition_bit_exact_for_dyadic_inner_factor(self, seed, log_p, q, m):
        """coarsen(coarsen(x, p), q) == coarsen(x, p*q) bitwise when p is a
        power of two, which covers every refinement ladder we run."""
        p = 2**log_p
        n = p * q * m
        inc = sample_increments(StreamKey(seed, 0), n, 1.0 / n)
        lhs = coarsen(coarsen(inc, p), q)
        rhs = coarsen(inc, p * q)
        assert (lhs.values == rhs.values).all()
        assert lhs.dt == rhs.dt

    @given(seed=st.integers(0, 2**32), log_f=st.integers(0, 12))
    @settings(max_examples=40)
    def test_terminal_value_invariant(self, seed, log_f):
        n = 4096
        inc = sample_increments(StreamKey(seed, 3), n, 1.0 / n)
        total_fine = float(inc.values.sum())
        coarse = coarsen(inc, 2**log_f)
        total_coarse = float(coarse.values.sum())
        assert abs(total_coarse - total_fine) <= 1e-12 * max(1.0, abs(total_fine))
