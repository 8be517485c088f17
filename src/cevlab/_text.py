"""Exact ``%.17g`` and ``%d`` text of numpy arrays, a whole block at a time.

``cells`` turns every cell of a numeric array into its text, NUL-padded to
a common width; ``join`` lays cells and literal pieces out as the rows of
one byte matrix and drops the padding with one ``bytes.translate``.  A
float's text equals ``model.format_float(x)``, and an integer's equals
``str(x)``.

Floats with 1e-4 <= |x| < 1e17, and zeros, are the cells that ``%.17g``
writes without an exponent.  They are formatted with integer arithmetic:

* The decimal exponent E of the value rounded to 17 digits comes from
  ``log10``.  Near a power of ten, where that can be one off, the digits
  fall out of range and the cell is left to the fallback below.
* The digits D = round-half-even(|x| * 10**(16 - E)) are exact: the power of
  ten is an exact double for 16 - E <= 22, and a Dekker two-product gives
  the rounding error of the product.
* D splits into integer part and fraction, each written as 8-digit words
  of ASCII by SWAR (word-wide integer operations on 8 digits at once).
  Leading zeros, trailing zeros of the fraction and an empty point are
  masked to NUL a word at a time.

Every other float (NaN, infinities, tiny and huge magnitudes) gets
``format_float``'s text in its slot, from one C-level ``%`` call per block.
Words are stored little-endian, so the first digit is the lowest byte on
every host.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["cells", "concat", "join", "literals"]


_ZEROS = 0x3030303030303030  # "00000000"
_ALL = 0xFFFFFFFFFFFFFFFF
_LAST_BYTE = 0xFF << 56  # the last character of a word

_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_INT_POW10 = np.array([10**k for k in range(18)], dtype=np.int64)
# _TAIL[n]: the words of a 24-character field that keep its last n characters
_TAIL = np.array(
    [[(_ALL << 8 * (8 - c)) & _ALL if c else 0
      for c in (min(8, max(0, n - 16 + 8 * k)) for k in range(3))]
     for n in range(21)],  # a fraction has at most 20 digits
    dtype=np.uint64,
)


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp: v == hi + lo exactly, each with at most 26 significant bits."""
    c = v * 134217729.0  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _digits(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(round-half-even(a * 10**k), a * 10**k < 1e16)``, both exact.

    For 0 <= k <= 22 and a product below 2**63.  ``p + err`` is the exact
    product (Dekker); where it counts, p >= 2**53 is an even integer, so
    adding ``err`` rounded half-even rounds the sum half-even.
    """
    s, s_hi, s_lo = _POW10[k], _POW10_HI[k], _POW10_LO[k]
    p = a * s
    a_hi, a_lo = _split(a)
    err = a_lo * s_lo - (((p - a_hi * s_hi) - a_lo * s_hi) - a_hi * s_lo)
    low = (p < 1e16) | ((p == 1e16) & (err < 0))
    return p.astype(np.int64) + np.rint(err).astype(np.int64), low


def _words(v: np.ndarray, n: int) -> np.ndarray:
    """The digits of ``v`` (uint64, below 10**(8n)) zero-padded to 8n
    characters, as n ASCII words per value, most significant first."""
    w = np.empty(v.shape + (n,), np.uint64)
    for i in range(n - 1, 0, -1):
        q = v // 10**8  # not divmod: a scalar floor_divide is far faster
        w[..., i] = v - q * 10**8
        v = q
    w[..., 0] = v
    q = w // 10_000
    w = q | (w - q * 10_000) << 32  # two 4-digit lanes
    q = (w * 5243 >> 19) & 0x0000007F0000007F  # each lane // 100
    w = q | (w - q * 100) << 16  # four 2-digit lanes
    q = (w * 103 >> 10) & 0x000F000F000F000F  # each lane // 10
    w = q | (w - q * 10) << 8  # eight digits
    return w | _ZEROS


def _nonzero_bytes(t: np.ndarray) -> np.ndarray:
    """0xFF in each byte of ``t`` that is not 0; every byte must be < 0x80."""
    return (((t + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080) >> 7) * 0xFF


def _strip_leading(w: np.ndarray) -> np.ndarray:
    """``_words`` with leading zeros as NUL; the last digit always stays."""
    z = w ^ _ZEROS  # digit values: non-zero where the digit is
    t = z | z << 8
    t |= t << 16
    t |= t << 32  # each byte: some digit up to it in the word is non-zero
    keep = _nonzero_bytes(t)
    # a word after a non-zero word is kept whole
    for i in range(1, w.shape[-1]):
        keep[..., i] |= -(z[..., i - 1] != 0).astype(np.uint64)
        z[..., i] |= z[..., i - 1]
    keep[..., -1] |= _LAST_BYTE
    return w & keep


def _strip_trailing(w: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The last ``n`` characters of three ``_words`` without their trailing
    zeros, everything else NUL."""
    z = w ^ _ZEROS
    t = z | z >> 8
    t |= t >> 16
    t |= t >> 32  # each byte: some digit from it on in the word is non-zero
    keep = _nonzero_bytes(t)
    # a word before a non-zero word is kept whole
    for i in range(w.shape[-1] - 2, -1, -1):
        keep[..., i] |= -(z[..., i + 1] != 0).astype(np.uint64)
        z[..., i] |= z[..., i + 1]
    return w & keep & np.take(_TAIL, n, axis=0)  # faster than _TAIL[n]


def _bytes(w: np.ndarray) -> np.ndarray:
    """ASCII words as characters: shape (..., n) -> (..., 8n)."""
    w = w.astype("<u8", copy=False)
    return w.view(np.uint8).reshape(w.shape[:-1] + (8 * w.shape[-1],))


def _unsigned_text(v: np.ndarray) -> np.ndarray:
    """The digits of 1-D uint64 ``v``, right-aligned in the width of the
    largest, leading zeros NUL."""
    width = len(str(v.max()))
    return _bytes(_strip_leading(_words(v, -(-width // 8))))[:, -width:]


def _rows(text: str) -> np.ndarray:
    """The NUL-separated pieces of ASCII ``text`` as rows of one NUL-padded
    uint8 matrix."""
    rows = np.array(text.encode("ascii").split(b"\0"), dtype=bytes)
    return rows.view(np.uint8).reshape(len(rows), -1)


def literals(texts: Sequence[str]) -> np.ndarray:
    """``texts`` as rows of one NUL-padded uint8 matrix."""
    return _rows("\0".join(texts))


def _float_cells(x: np.ndarray) -> np.ndarray:
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-4) & (a < 1e17)  # False for NaN
    a = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    d, low = _digits(a, 16 - e)
    # e is one off where log10 rounds across a power of ten: the fallback
    # below writes those cells
    fast &= ~low & (d < 10**17)
    fast |= zero
    # zeros and the cells written by the fallback: "0", no fraction
    plain = zero | ~fast
    d[plain] = 0
    e[plain] = 16
    div = _INT_POW10[np.minimum(16 - e, 17)]
    ip = d // div
    fp = d - ip * div
    ib = _unsigned_text(ip.astype(np.uint64))
    wi, wf = ib.shape[1], 16 - int(e.min())
    fb = _bytes(_strip_trailing(_words(fp.astype(np.uint64), 3), 16 - e))[:, 24 - wf:]
    out = np.empty((len(x), wi + wf + 2), np.uint8)
    out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    out[:, 1:wi + 1] = ib
    out[:, wi + 1] = np.where(fp != 0, ord("."), 0)
    out[:, wi + 2:] = fb
    slow = np.flatnonzero(~fast)
    if slow.size:
        # format_float's text from one C-level ``%``: "nan", "inf" and
        # "-inf" occur in no other %.17g text
        text = ("%.17g\0" * slow.size)[:-1] % tuple(x[slow].tolist())
        texts = _rows(text.replace("nan", "NaN").replace("inf", "Infinity"))
        if texts.shape[1] > out.shape[1]:
            out = concat([out, np.zeros(texts.shape[1] - out.shape[1], np.uint8)])
        out[slow] = 0
        out[slow, :texts.shape[1]] = texts
    return out


def _int_cells(x: np.ndarray) -> np.ndarray:
    m = x.astype(np.uint64)  # a negative value wraps, and is negated back
    neg = x < 0
    signed = bool(neg.any())
    if signed:
        np.negative(m, out=m, where=neg)
    digits = _unsigned_text(m)
    if not signed:
        return digits
    return concat([np.where(neg, ord("-"), 0).astype(np.uint8)[:, None], digits])


def cells(a: np.ndarray) -> np.ndarray:
    """The text of every cell of a numeric array, NUL-padded: a uint8 array
    of shape ``a.shape + (width,)``."""
    flat = a.reshape(-1)
    if flat.size == 0:
        return np.zeros(a.shape + (0,), np.uint8)
    if a.dtype.kind == "f":
        text = _float_cells(flat.astype(np.float64, copy=False))
    else:
        text = _int_cells(flat)
    return text.reshape(a.shape + (text.shape[-1],))


def concat(parts: Sequence[np.ndarray]) -> np.ndarray:
    """uint8 ``parts`` side by side along the last axis, their leading axes
    broadcast against each other."""
    shape = np.broadcast_shapes(*(p.shape[:-1] for p in parts))
    out = np.empty(shape + (sum(p.shape[-1] for p in parts),), np.uint8)
    at = 0
    for p in parts:
        out[..., at:at + p.shape[-1]] = p
        at += p.shape[-1]
    return out


def join(row_parts: Sequence[np.ndarray], cell_parts: Sequence[np.ndarray]) -> str:
    """The text of a block of rows, NULs dropped.

    Each row is its ``row_parts`` (leading axes broadcast to (rows,)), then
    each of its cells as the ``cell_parts`` (broadcast to (rows, cols)).
    """
    block = concat(cell_parts)
    rows, cols, width = block.shape
    text = concat([*row_parts, block.reshape(rows, cols * width)])
    return text.tobytes().translate(None, b"\0").decode("ascii")
