"""Reproducible Brownian increments with exact dyadic coarsening.

Each path owns a counter-based Philox stream keyed by (master_seed,
path_index), so draws are bit-identical for the same key regardless of
thread count, generation order or how many draws are taken per call, and
streams for different paths never overlap.  Coarsening sums adjacent blocks
of increments, which realizes the coupling of a coarse discretization to the
fine path that drives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NonDivisibleFactor, ValidationError

__all__ = ["StreamKey", "IncrementArray", "sample_increments", "coarsen"]

_U64 = 2**64


def _require_u64(name: str, v) -> None:
    if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < _U64:
        raise ValidationError(f"{name} must be an integer in [0, 2^64), got {v!r}")


@dataclass(frozen=True)
class StreamKey:
    """Stateless identifier of one path's noise stream."""

    master_seed: int
    path_index: int

    def __post_init__(self) -> None:
        _require_u64("master_seed", self.master_seed)
        _require_u64("path_index", self.path_index)


@dataclass(frozen=True)
class IncrementArray:
    """Brownian increments over consecutive steps of common length ``dt``.

    ``values[j]`` is W_{t_{j+1}} - W_{t_j}; their sum is the terminal
    Brownian value.  The array is frozen read-only so instances behave as
    immutable values.
    """

    dt: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValidationError("dt must be a positive finite number")
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise ValidationError("values must be a 1-D array of length >= 1")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def length(self) -> int:
        return self.values.size


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
    chunks are C-contiguous.
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
    for lo in range(0, n, chunk):
        rows = buf[:, : min(chunk, n - lo)]
        for gen, row in zip(gens, rows):
            gen.standard_normal(out=row)
        rows *= scale
        yield np.ascontiguousarray(rows.T)


def sample_increments(key: StreamKey, n: int, dt: float) -> IncrementArray:
    """Draw ``n`` i.i.d. N(0, dt) increments from the stream of ``key``.

    Bit-identical for identical (key, n, dt); streams with different
    path_index values are independent by the counter-based construction.
    """
    if not isinstance(n, int) or n < 1:
        raise ValidationError("n must be an integer >= 1")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValidationError("dt must be a positive finite number")
    path = key.path_index
    values = _increment_block(key.master_seed, path, path + 1, n, dt)[0]
    return IncrementArray(dt=dt, values=values)


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


def coarsen(inc: IncrementArray, factor: int) -> IncrementArray:
    """Merge every ``factor`` consecutive increments into one.

    The result has step size ``factor * inc.dt`` and drives the same
    Brownian path on the coarser grid; the total sum is preserved up to
    floating-point associativity.
    """
    if not isinstance(factor, int) or factor < 1:
        raise NonDivisibleFactor(f"factor must be an integer >= 1, got {factor!r}")
    if inc.length % factor != 0:
        raise NonDivisibleFactor(
            f"factor {factor} does not divide increment count {inc.length}"
        )
    if factor == 1:
        return IncrementArray(dt=inc.dt, values=inc.values)
    return IncrementArray(dt=inc.dt * factor, values=_block_sums(inc.values, factor))
