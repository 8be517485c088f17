"""Reproducible Brownian increments with exact dyadic coarsening.

The stream contract: path ``p`` of master seed ``s`` draws standard normals
from ``Generator(Philox(key=[s, p]))`` and scales them by sqrt(dt).  Draws
are therefore bit-identical for the same key regardless of worker count,
generation order or how many draws are taken per call, and streams for
different paths never overlap.  ``_increment_block`` draws a block of paths
at once, ``_increment_chunks`` the same block time-major and a chunk at a
time.  ``_block_sums`` sums adjacent blocks of increments, which realizes
the coupling of a coarse discretization to the fine path that drives it.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import ValidationError

__all__: list[str] = []

_U64 = 2**64


def _require_u64(name: str, v) -> None:
    """The one rule for every seed and path index: an int (not a bool) in
    [0, 2^64), the range of a Philox key word."""
    if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < _U64:
        raise ValidationError(f"{name} must be an integer in [0, 2^64), got {v!r}")


def _require_keys(master_seed: int, start: int, stop: int) -> None:
    _require_u64("master_seed", master_seed)
    if stop > start:
        _require_u64("first path index", start)
        _require_u64("last path index", stop - 1)


def _increment_block(
    master_seed: int, start: int, stop: int, n: int, dt: float
) -> np.ndarray:
    """(stop-start, n) matrix of per-path N(0, dt) increments.

    Row i holds the first n draws of the stream keyed by
    (master_seed, start+i).  One Philox and one Generator serve the whole
    block: before each row the bit generator is reset to counter 0, key
    [master_seed, path] and an empty output buffer, which is the state a
    fresh ``Philox(key=[master_seed, path])`` starts from.  Generator caches
    no normals, so every row is bit-identical to a freshly keyed stream.
    The keys are validated once for the block, before any draw; each call
    owns its generator, so concurrent calls share no state.
    """
    _require_keys(master_seed, start, stop)
    key = np.array([master_seed, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    out = np.empty((stop - start, n))
    for path, row in zip(range(start, stop), out):
        key[1] = path
        bitgen.state = fresh
        gen.standard_normal(out=row)
    out *= math.sqrt(dt)
    return out


def _increment_chunks(
    master_seed: int, start: int, stop: int, n: int, dt: float, chunk: int
) -> Iterator[np.ndarray]:
    """The increments of ``_increment_block(master_seed, start, stop, n, dt)``,
    time-major and ``chunk`` steps at a time.

    Yields (c, stop-start) arrays with c = ``chunk`` except possibly for the
    last; stacked, they are the transpose of the block, bit for bit.  A run
    of at most ``chunk`` steps is one re-keyed block, yielded as its
    transposed view so that no second copy is held.  A longer run keeps one
    live ``Philox(key=[master_seed, path])`` per path and resumes it chunk
    after chunk: Philox offsets cannot be computed from the draw count,
    because ``standard_normal`` rejects samples, and a generator caches no
    normals between calls, so the chunked draws equal one long draw.  Those
    chunks are C-contiguous views of one time-major buffer that every chunk
    is transposed into: a chunk is overwritten when the next is drawn, so a
    caller that keeps one past that must copy it.  Reusing the buffer keeps
    the run's memory fixed instead of mapping and faulting in a fresh
    chunk-sized array per chunk.
    """
    if n <= chunk:
        yield _increment_block(master_seed, start, stop, n, dt).T
        return
    _require_keys(master_seed, start, stop)
    gens = [
        np.random.Generator(
            np.random.Philox(key=np.array([master_seed, path], dtype=np.uint64))
        )
        for path in range(start, stop)
    ]
    scale = math.sqrt(dt)
    buf = np.empty((stop - start, chunk))
    time_major = np.empty((chunk, stop - start))
    for lo in range(0, n, chunk):
        m = min(chunk, n - lo)
        rows = buf[:, :m]
        for gen, row in zip(gens, rows):
            gen.standard_normal(out=row)
        rows *= scale
        np.copyto(time_major[:m], rows.T)
        yield time_major[:m]


def _block_sums(values: np.ndarray, factor: int) -> np.ndarray:
    """Sum adjacent blocks of ``factor`` entries along the leading (time) axis.

    Summation order inside a block: adjacent pairs are merged repeatedly
    while the remaining width is even, then any odd-width remainder is
    accumulated left to right.  With that fixed order,
    block_sums(block_sums(x, p), q) is bit-identical to block_sums(x, p*q)
    whenever p is a power of two, which covers every dyadic refinement this
    package performs.  Further axes (paths of a time-major chunk) are summed
    independently.
    """
    n = values.shape[0]
    blocks = values.reshape((n // factor, factor) + values.shape[1:])
    width = factor
    while width % 2 == 0 and width > 1:
        blocks = blocks[:, 0::2] + blocks[:, 1::2]
        width //= 2
    out = blocks[:, 0].copy()
    for j in range(1, width):
        out += blocks[:, j]
    return out
