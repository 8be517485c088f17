"""Reproducible Brownian increments with exact dyadic coarsening.

The stream contract: path ``p`` of master seed ``s`` draws standard normals
from ``Generator(Philox(key=[s, p]))`` and scales them by sqrt(dt).  Draws
are therefore bit-identical for the same key regardless of worker count,
generation order or how many draws are taken per call, and streams for
different paths never overlap.  ``_increment_block`` is the one function
that keys, draws and scales a stream: it fills a block of paths at once,
each row from counter 0 or resumed from a live stream.
``_increment_chunks`` serves the same block time-major, a chunk at a time,
by calling it for each tile of each chunk.  A coarse grid is coupled to
the fine path that drives it by block sums of its increments, all from one
pairwise tree: ``_block_sums`` climbs it inside an array, ``_dyadic_sums``
inside each chunk and then across them.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import CouplingError
from .model import _require_u64

__all__: list[str] = []

_COUPLING_TOL = 1e-12


def _increment_block(
    master_seed: int,
    start: int,
    stop: int,
    n: int,
    dt: float,
    out: np.ndarray | None = None,
    streams: list | None = None,
) -> np.ndarray:
    """(stop-start, n) matrix of per-path N(0, dt) increments, written into
    ``out`` when one is given.

    Row i holds the first n draws of the stream keyed by
    (master_seed, start+i).  One Philox and one Generator serve the whole
    block: before each row the bit generator is reset to counter 0, key
    [master_seed, path] and an empty output buffer, which is the state a
    fresh ``Philox(key=[master_seed, path])`` starts from.  Generator caches
    no normals, so every row is bit-identical to a freshly keyed stream.
    The state holds Python lists, not arrays: the ``state`` setter reads it
    one element at a time, which costs less than half as much from lists.

    With ``streams``, a list the caller keeps for these paths, row i holds
    instead the next n draws of the live ``Philox(key=[master_seed,
    start+i])``: a call given an empty list builds one generator per path
    into it, and every call resumes them.  Philox offsets cannot be computed
    from the draw count, because ``standard_normal`` rejects samples, and a
    generator caches no normals between calls, so successive calls equal
    one long draw.

    The keys are validated before any draw; each call owns its generators,
    or the caller its ``streams``, so concurrent calls share no state.
    """
    _require_u64("master_seed", master_seed)
    if stop > start:
        _require_u64("first path index", start)
        _require_u64("last path index", stop - 1)
    if out is None:
        out = np.empty((stop - start, n))
    if streams is None:
        key = [master_seed, 0]
        bitgen = np.random.Philox(key=np.array(key, dtype=np.uint64))
        gen = np.random.Generator(bitgen)
        fresh = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        for path, row in zip(range(start, stop), out):
            key[1] = path
            bitgen.state = fresh
            gen.standard_normal(out=row)
    else:
        if not streams:
            streams.extend(
                np.random.Generator(
                    np.random.Philox(key=np.array([master_seed, path], dtype=np.uint64))
                )
                for path in range(start, stop)
            )
        for gen, row in zip(streams, out):
            gen.standard_normal(out=row)
    out *= math.sqrt(dt)
    return out


# Paths per tile of the path-major draw that is transposed into a time-major
# chunk: a tile of 256 paths x 512 steps (1 MiB) stays in cache between the
# draw and the transpose, where one strided copy of the whole chunk does not.
_TILE_PATHS = 256


def _increment_chunks(
    master_seed: int,
    start: int,
    stop: int,
    n: int,
    dt: float,
    chunk: int,
) -> Iterator[np.ndarray]:
    """The increments of ``_increment_block(master_seed, start, stop, n, dt)``,
    time-major and ``chunk`` steps at a time.

    Yields (c, stop-start) arrays with c = ``chunk`` except possibly for the
    last; stacked, they are the transpose of the block, bit for bit.  Each
    chunk is drawn by one ``_increment_block`` call per tile of at most
    ``_TILE_PATHS`` paths.  A run of at most ``chunk`` steps is one chunk of
    re-keyed rows; a longer run keeps one list of live streams per tile and
    resumes it chunk after chunk.

    Each call allocates two buffers at its first draw and reuses them for
    every chunk: each tile is drawn path-major into the tile buffer and
    transposed into the time-major (min(chunk, n), stop-start) buffer of
    which the chunk is a view.  A chunk is overwritten when the next is
    drawn, so a caller that keeps one past that must copy it.  The buffers
    live until the draws end and the caller drops the last chunk.
    """
    width, steps = stop - start, min(chunk, n)
    time_major = np.empty((steps, width))
    tile = np.empty((min(_TILE_PATHS, width), steps))
    # (lo, hi, live streams of the tile, or None to re-key a one-chunk run)
    tiles = [(lo, min(lo + _TILE_PATHS, width), None if n <= chunk else [])
             for lo in range(0, width, _TILE_PATHS)]
    for step in range(0, n, chunk):
        m = min(chunk, n - step)
        for lo, hi, streams in tiles:
            rows = _increment_block(master_seed, start + lo, start + hi, m, dt,
                                    tile[: hi - lo, :m], streams)
            np.copyto(time_major[:m, lo:hi], rows.T)
        yield time_major[:m]


def _block_sums(values: np.ndarray, factor: int) -> np.ndarray:
    """Sum adjacent blocks of ``factor`` entries along the leading (time) axis.

    ``factor`` must be a power of two dividing the length, or ValueError.
    Adjacent pairs are summed repeatedly (factor 1 returns ``values``), so
    block_sums(block_sums(x, p), q) is bit-identical to block_sums(x, p*q).
    Further axes (paths of a time-major chunk) are summed independently.
    Each pair's sum is written over its left entry, so no array is allocated:
    the result is the view ``values[::factor]`` and ``values`` is consumed.
    A caller that still needs the summands passes a copy.
    """
    if factor < 1 or factor & (factor - 1) or len(values) % factor:
        raise ValueError(
            f"coarsening factor must be a power of two dividing {len(values)}, "
            f"got {factor}"
        )
    while factor > 1:
        left = values[0::2]
        values = np.add(left, values[1::2], out=left)
        factor //= 2
    return values


def _dyadic_sums(
    chunk: np.ndarray, heights: tuple[int, ...], carry: dict
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (i, increments) for every level i that steps in ``chunk``, a
    time-major (2^k, paths) run of fine increments.  The level at height
    ``heights[i]`` (ascending) steps every 2^height fine steps, on their sum.

    Up to height k the sums are ``_block_sums`` of the last level's, written
    over the chunk: level i's increments are the rows 0, 2^height, ... of
    ``chunk``, which the next level overwrites.  So the caller must be done
    with the fine increments before the first yield, and with each level's
    before the next.  Each sum must match the chunk's fine increment path by
    path, or CouplingError.  Above height k the sums pair whole chunks:
    ``carry`` (one per walk, initially empty) maps j to the pending left
    half of a sum of 2^(j+1) chunks, kept as a copy.  Both follow
    ``_block_sums``' pairwise order, so every level gets bit for bit the
    ``_block_sums`` of the whole path, holding one row per height.
    """
    k = len(chunk).bit_length() - 1
    total = chunk.sum(axis=0)
    bound = _COUPLING_TOL * np.maximum(1.0, np.abs(total))
    sums, height = chunk, 0
    for i, h in enumerate(heights):
        inner = min(h, k)
        if height < inner:
            sums, height = _block_sums(sums, 2 ** (inner - height)), inner
            dev = np.abs(sums.sum(axis=0) - total)
            if np.any(dev > bound):
                raise CouplingError(
                    f"coarse/fine Brownian increments diverged by "
                    f"{float(dev.max()):.3e} at coarsening factor {2**height}"
                )
        if h > height:
            # sums is a view of the chunk, which the next chunk overwrites
            row = sums[0].copy()
            for j in range(height - k, h - k):
                left = carry.pop(j, None)
                if left is None:
                    carry[j] = row
                    return
                row = left + row
            sums, height = row[np.newaxis], h
        yield i, sums
