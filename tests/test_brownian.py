"""Keyed increment streams and dyadic coarsening."""

import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cevlab import ValidationError, brownian
from cevlab.brownian import (
    _block_sums,
    _dyadic_sums,
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

    @pytest.mark.parametrize(
        "v",
        [-1, -3, 2**64, True, False, 1.0, "1", None,
         pytest.param(-(10**5000), id="int-past-str-digit-limit")],
    )
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
        [(20240601, 4096, 4100), (0, 0, 3), (2**64 - 1, 2**64 - 3, 2**64),
         (2**63 + 12345, 2**63 - 2, 2**63 + 2)],
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
            assert c.flags.c_contiguous
            chunks.append(c.copy())
        assert sum(map(len, chunks)) == n
        stacked = np.concatenate(chunks)
        want = _increment_block(seed, start, stop, n, dt).T
        assert stacked.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("n", [40, 8])
    def test_every_tile_of_every_chunk_is_one_block_draw(self, monkeypatch, n):
        """300 paths are two tiles of at most 256; 40 steps in chunks of 8
        are five chunks of live streams, 8 steps one chunk of re-keyed rows.
        Each tile of each chunk is one ``_increment_block`` call, so every
        draw goes through it."""
        draws = []
        block = brownian._increment_block

        def counting(*args):
            draws.append(args[1:4])
            return block(*args)

        monkeypatch.setattr(brownian, "_increment_block", counting)
        chunks = [c.copy() for c in _increment_chunks(5, 100, 400, n, 0.37, 8)]
        assert len(chunks) == n // 8
        assert draws == [(start, stop, 8) for _ in chunks
                         for start, stop in ((100, 356), (356, 400))]


class TestKeyedStreams:
    """Live chunked streams and re-keyed block rows are the streams of
    ``Philox(key=[s, p])``, at both ends of the key range."""

    KEYS = [(0, 0, 3), (2**64 - 1, 2**64 - 3, 2**64), (0, 2**64 - 2, 2**64),
            (2**64 - 1, 0, 2)]

    @pytest.mark.parametrize("seed, start, stop", KEYS)
    def test_chunked_draws_equal_keyed_philox(self, seed, start, stop):
        n, chunk, dt = 40, 8, 0.37  # five chunks of live streams
        chunks = [c.copy() for c in _increment_chunks(seed, start, stop, n, dt, chunk)]
        assert len(chunks) == 5
        stacked = np.concatenate(chunks).T
        for row, path in zip(stacked, range(start, stop)):
            assert row.tobytes() == _fresh_stream_row(seed, path, n, dt).tobytes()

    @pytest.mark.parametrize("seed, start, stop", KEYS)
    def test_block_rows_equal_keyed_philox(self, seed, start, stop):
        block = _increment_block(seed, start, stop, 33, 0.37)
        for row, path in zip(block, range(start, stop)):
            assert row.tobytes() == _fresh_stream_row(seed, path, 33, 0.37).tobytes()


class TestDyadicSums:
    """``_dyadic_sums`` writes its within-chunk sums over the chunk and
    still gives every level the ``_block_sums`` of the whole path."""

    @pytest.mark.parametrize("chunk", [1, 2, 4, 16, 64])
    def test_levels_equal_block_sums_of_the_whole_matrix(self, chunk):
        n, heights = 64, (1, 2, 3, 5, 6)
        whole = _increment_block(3, 10, 15, n, 1.0 / n).T
        got = {i: [] for i in range(len(heights))}
        carry: dict = {}
        for step in range(0, n, chunk):
            for i, sums in _dyadic_sums(whole[step : step + chunk].copy(), heights, carry):
                got[i].append(sums.copy())
        assert not carry
        for i, h in enumerate(heights):
            want = _block_sums(whole.copy(), 2**h)
            assert np.concatenate(got[i]).tobytes() == want.tobytes()

    def test_sums_are_written_over_the_chunk(self):
        values = _increment_block(3, 0, 2, 8, 0.125).T
        chunk = values.copy()
        [(_, sums)] = _dyadic_sums(chunk, (2,), {})
        assert np.shares_memory(sums, chunk)
        assert sums.tobytes() == _block_sums(values, 4).tobytes()

    def test_chunked_walk_noise_memory_is_streams_and_buffers(self):
        """The noise side of one chunked 2500-path ladder block: 2^12 steps
        in 256-step chunks, coarsened to the ladder's six heights.  The first
        draw allocates the two buffers that every chunk reuses; past them it
        holds one small stream per path and no chunk-sized temporary: the
        height-3 sums alone are an eighth of the chunk, and the first
        pairwise sum half of it.  Once the draws end, the buffers are freed."""
        paths, n, chunk, heights = 2500, 2**12, 256, (3, 4, 5, 6, 7, 8)
        time_major, tile = chunk * paths * 8, 256 * chunk * 8  # bytes
        carry: dict = {}
        tracemalloc.start()
        try:
            draws = _increment_chunks(1, 0, paths, n, 1.0 / n, chunk)
            first = next(draws)
            streams = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for dw in itertools.chain([first], draws):
                for _ in _dyadic_sums(dw, heights, carry):
                    pass
            peak = tracemalloc.get_traced_memory()[1]
            del first, dw, _  # the last chunk and the last level's sums
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert not carry
        assert streams - time_major - tile < paths * 2048
        assert peak - streams < time_major // 8
        assert streams - after >= time_major + tile


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

    @pytest.mark.parametrize("factor", [3, 6])
    def test_rejects_factor_not_a_power_of_two(self, factor):
        """12 entries divide into blocks of 3 and 6, but only a power of two
        has the pairwise order that composes."""
        with pytest.raises(ValueError, match="power of two"):
            _block_sums(np.arange(12.0), factor)

    def test_rejects_factor_not_dividing_length(self):
        """Pairwise halving of 6 entries by 4 would broadcast 2 rows against 1."""
        with pytest.raises(ValueError, match="dividing 6"):
            _block_sums(np.arange(6.0), 4)

    def test_full_collapse_matches_sequential_total(self):
        values = np.array([0.1, -0.2, 0.3, 0.05])
        out = _block_sums(values.copy(), 4)
        assert out.shape == (1,)
        total = 0.0
        for v in values:
            total += v
        assert out[0] == pytest.approx(total, rel=1e-15)

    @given(
        seed=st.integers(0, 2**32),
        log_p=st.integers(0, 5),
        log_q=st.integers(0, 3),
        m=st.integers(1, 4),
    )
    @settings(max_examples=80)
    def test_composition_bit_exact_for_dyadic_inner_factor(self, seed, log_p, log_q, m):
        """block_sums(block_sums(x, p), q) == block_sums(x, p*q) bitwise for
        powers of two p and q, which covers every refinement ladder we run."""
        p, q = 2**log_p, 2**log_q
        n = p * q * m
        [inc] = _increment_block(seed, 0, 1, n, 1.0 / n)
        lhs = _block_sums(_block_sums(inc.copy(), p), q)
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
