"""Keyed increment streams and dyadic coarsening."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cevlab import ValidationError
from cevlab.brownian import (
    _block_sums,
    _increment_block,
    _increment_chunks,
    _require_u64,
)


def _fresh_stream_row(seed, path, n, dt):
    """Reference row built with numpy alone: a freshly keyed Philox stream."""
    key = np.array([seed, path], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal(n) * math.sqrt(dt)


class TestU64Rule:
    """Seeds and path indices share one rule: an int in [0, 2^64)."""

    @pytest.mark.parametrize("v", [0, 1, 2**64 - 1])
    def test_accepts_u64(self, v):
        _require_u64("master_seed", v)

    @pytest.mark.parametrize("v", [-1, -3, 2**64, True, False, 1.0, "1", None])
    def test_rejects_out_of_range_and_non_int(self, v):
        with pytest.raises(ValidationError, match=r"^path must be an integer in \["):
            _require_u64("path", v)


class TestSampleIncrements:
    """Rows of ``_increment_block``: one path's stream each."""

    def test_bit_identical_rerun(self):
        a = _increment_block(123, 1, 2, 4096, 0.25)
        b = _increment_block(123, 1, 2, 4096, 0.25)
        assert a.tobytes() == b.tobytes()

    def test_gaussian_moments(self):
        n, dt = 1_000_000, 0.001
        [inc] = _increment_block(123, 0, 1, n, dt)
        assert abs(inc.mean()) < 4 * math.sqrt(dt / n)
        assert abs(inc.var(ddof=1) - dt) < 0.01 * dt

    def test_streams_uncorrelated(self):
        a, b = _increment_block(123, 1, 3, 100_000, 0.5)
        assert abs(float(np.corrcoef(a, b)[0, 1])) < 0.01


class TestIncrementBlock:
    @pytest.mark.parametrize("n", [1, 3, 16, 64, 4096])
    @pytest.mark.parametrize(
        "seed, start, stop",
        [(20240601, 4096, 4100), (0, 0, 3), (2**64 - 1, 2**64 - 3, 2**64)],
    )
    def test_rows_match_fresh_philox_streams(self, seed, start, stop, n):
        dt = 0.37
        block = _increment_block(seed, start, stop, n, dt)
        assert block.shape == (stop - start, n)
        for i, path in enumerate(range(start, stop)):
            assert block[i].tobytes() == _fresh_stream_row(seed, path, n, dt).tobytes()

    @pytest.mark.parametrize("seed, path", [(5, 0), (5, 4097), (2**64 - 1, 2**64 - 1)])
    def test_one_row_block_is_the_row_of_any_block(self, seed, path):
        """_increment_block(seed, p, p+1, ...) replays path p of any block."""
        start = max(0, path - 2)
        block = _increment_block(seed, start, min(path + 3, 2**64), 16, 0.5)
        [row] = _increment_block(seed, path, path + 1, 16, 0.5)
        assert row.tobytes() == block[path - start].tobytes()
        assert row.tobytes() == _fresh_stream_row(seed, path, 16, 0.5).tobytes()

    @pytest.mark.parametrize(
        "seed, start, stop",
        [(2**64, 0, 4), (-1, 0, 4), (0, 2**64 - 2, 2**64 + 1), (0, -1, 3)],
    )
    def test_rejects_keys_outside_u64(self, seed, start, stop):
        with pytest.raises(ValidationError):
            _increment_block(seed, start, stop, 4, 0.1)

    def test_concurrent_blocks_match_sequential(self):
        """Threads filling different blocks at once share no generator state."""
        blocks = [(11, 0, 256), (11, 256, 512), (12, 4096, 4352), (11, 512, 768)]
        expected = [_increment_block(*b, 64, 0.01) for b in blocks]
        got = [None] * len(blocks)
        barrier = threading.Barrier(len(blocks))

        def fill(i):
            barrier.wait(timeout=10)
            for _ in range(5):
                got[i] = _increment_block(*blocks[i], 64, 0.01)

        threads = [threading.Thread(target=fill, args=(i,)) for i in range(len(blocks))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for want, have in zip(expected, got):
            assert have is not None and have.tobytes() == want.tobytes()


class TestIncrementChunks:
    @pytest.mark.parametrize("n, chunk", [(3, 4), (4, 4), (8, 4), (10, 4), (17, 8)])
    def test_stacked_chunks_are_the_transposed_block(self, n, chunk):
        """Copied as they arrive, the time-major chunks stack to the block's
        transpose bit for bit, a short last chunk included."""
        seed, start, stop, dt = 20240601, 4095, 4101, 0.37
        chunks = []
        for c in _increment_chunks(seed, start, stop, n, dt, chunk):
            assert c.shape == (min(chunk, n - chunk * len(chunks)), stop - start)
            assert c.flags.c_contiguous or n <= chunk
            chunks.append(c.copy())
        assert sum(map(len, chunks)) == n
        stacked = np.concatenate(chunks)
        want = _increment_block(seed, start, stop, n, dt).T
        assert stacked.tobytes() == np.ascontiguousarray(want).tobytes()


class TestCoarsen:
    """Dyadic coarsening by 1-D ``_block_sums`` of one path's increments."""

    def test_pairwise_sums(self):
        out = _block_sums(np.array([0.1, -0.2, 0.3, 0.05]), 2)
        assert out == pytest.approx([-0.1, 0.35], rel=0, abs=1e-16)
        # factor 2 blocks are single additions, hence exact
        assert out[0] == 0.1 + -0.2
        assert out[1] == 0.3 + 0.05

    def test_identity_factor(self):
        [inc] = _increment_block(7, 0, 1, 32, 0.125)
        out = _block_sums(inc, 1)
        assert out.tobytes() == inc.tobytes()
        assert out is not inc

    def test_full_collapse_matches_sequential_total(self):
        values = np.array([0.1, -0.2, 0.3, 0.05])
        out = _block_sums(values, 4)
        assert out.shape == (1,)
        total = 0.0
        for v in values:
            total += v
        assert out[0] == pytest.approx(total, rel=1e-15)

    @given(
        seed=st.integers(0, 2**32),
        log_p=st.integers(0, 5),
        q=st.integers(1, 6),
        m=st.integers(1, 4),
    )
    @settings(max_examples=80)
    def test_composition_bit_exact_for_dyadic_inner_factor(self, seed, log_p, q, m):
        """block_sums(block_sums(x, p), q) == block_sums(x, p*q) bitwise when p
        is a power of two, which covers every refinement ladder we run."""
        p = 2**log_p
        n = p * q * m
        [inc] = _increment_block(seed, 0, 1, n, 1.0 / n)
        lhs = _block_sums(_block_sums(inc, p), q)
        rhs = _block_sums(inc, p * q)
        assert lhs.tobytes() == rhs.tobytes()

    @given(seed=st.integers(0, 2**32), log_f=st.integers(0, 12))
    @settings(max_examples=40)
    def test_terminal_value_invariant(self, seed, log_f):
        n = 4096
        [inc] = _increment_block(seed, 3, 4, n, 1.0 / n)
        total_fine = float(inc.sum())
        total_coarse = float(_block_sums(inc, 2**log_f).sum())
        assert abs(total_coarse - total_fine) <= 1e-12 * max(1.0, abs(total_fine))
