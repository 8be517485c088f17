"""The block formatter against its oracle, ``format(x, ".17g")`` and ``str``."""

import math
from decimal import Decimal

import numpy as np
import pytest

from cevlab._text import cells, join, literals
from cevlab.model import format_float


def _texts(a: np.ndarray) -> list[str]:
    """The text of every cell, in C order, padding dropped."""
    c = cells(a)
    return [bytes(r).replace(b"\0", b"").decode("ascii")
            for r in c.reshape(-1, c.shape[-1])]


def _assert_floats(x: np.ndarray) -> None:
    expected = [format_float(v) for v in x.tolist()]
    got = _texts(x)
    bad = [(v, e, g) for v, e, g in zip(x.tolist(), expected, got) if e != g]
    assert not bad, f"{len(bad)} of {len(x)} differ, e.g. {bad[:3]}"


def _powers_of_ten() -> list[float]:
    """Every power of ten from 1e-5 to 1e17 and 12 doubles on each side."""
    out = []
    for k in range(-5, 18):
        below = above = float(f"1e{k}")
        out.append(below)
        for _ in range(12):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            out += [below, above]
    return out


class TestFloatCells:
    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20240601)
        x = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
        _assert_floats(x.view(np.float64))

    def test_random_bit_patterns_in_fixed_range(self):
        # exponents of 1e-5 .. 1e17, where the integer path formats every cell
        rng = np.random.default_rng(7)
        mant = rng.integers(0, 2**52, 100_000, dtype=np.uint64)
        exp = rng.integers(1023 - 17, 1023 + 57, 100_000).astype(np.uint64)
        sign = rng.integers(0, 2, 100_000).astype(np.uint64)
        _assert_floats((sign << 63 | exp << 52 | mant).view(np.float64))

    def test_both_sides_of_every_power_of_ten(self):
        x = np.array(_powers_of_ten())
        _assert_floats(x)
        _assert_floats(-x)

    def test_exact_ties_round_half_even(self):
        # m * 2**(E - 17) with m odd has 18 significant digits ending in 5
        rng = np.random.default_rng(3)
        ties = []
        for e in range(-4, 17):
            scale = 2.0 ** (e - 17)
            lo, hi = 10.0**e / scale, min(10.0 ** (e + 1) / scale, 2.0**53)
            if lo >= hi:
                continue
            m = rng.integers(int(lo), int(hi), 2000) | 1
            ties += [float(v) * scale for v in m if lo <= v < hi]
        digits = [Decimal(t).normalize().as_tuple().digits for t in ties]
        assert sum(len(d) == 18 and d[-1] == 5 for d in digits) > 5000
        _assert_floats(np.array(ties))

    def test_carries_into_the_next_power(self):
        # 9.99...9 at the 17th digit and beyond: rounding carries into E + 1
        x = [float(f"{m}e{k}") for k in range(-6, 18)
             for m in ("9.9999999999999999", "9.99999999999999995", "9.9999999999999998",
                       "0.99999999999999999", "9.99999999999999949")]
        _assert_floats(np.array(x))
        _assert_floats(-np.array(x))

    def test_special_values_mixed_into_one_block(self):
        x = np.array([1.5, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                      math.nan, math.inf, -math.inf, 1e-5, 9.9999999999999991e-05,
                      0.0001, 1e16, 1e17, 1.7976931348623157e308, -123.25, 0.1])
        _assert_floats(x)
        assert _texts(x.reshape(1, -1))[:3] == ["1.5", "0", "-0"]

    def test_narrow_floats_are_widened(self):
        x = np.array([0.1, 1 / 3, 65504.0, -2.5e-3], dtype=np.float32)
        assert _texts(x) == [format_float(v) for v in x.tolist()]
        assert _texts(x.astype(np.float16)) == [
            format_float(v) for v in x.astype(np.float16).tolist()]


class TestIntCells:
    def test_path_ids_up_to_the_uint64_maximum(self):
        rng = np.random.default_rng(11)
        edges = [0, 1, 9, 10, 99_999_999, 10**8, 10**16 - 1, 10**16, 10**19,
                 2**63, 2**64 - 1]
        x = np.concatenate([np.array(edges, dtype=np.uint64),
                            rng.integers(0, 2**64, 10_000, dtype=np.uint64)])
        assert _texts(x) == [str(v) for v in x.tolist()]

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.int64])
    def test_signed_and_narrow_ints(self, dtype):
        info = np.iinfo(dtype)
        rng = np.random.default_rng(5)
        x = np.concatenate([
            np.array([info.min, info.min + 1, 0, 1, info.max], dtype=dtype),
            rng.integers(info.min, info.max, 1000, dtype=dtype, endpoint=True)])
        assert _texts(x) == [str(v) for v in x.tolist()]


class TestJoin:
    def test_rows_then_cells_without_padding(self):
        rows = literals(["[", "]["])
        sep = literals(["", ","])
        values = np.array([[1.0, 0.5], [math.nan, 20.0]])
        assert join([rows], [sep, cells(values)]) == "[1,0.5][NaN,20"

    def test_zero_width_blocks(self):
        assert join([literals(["a", "b"])], [cells(np.zeros((2, 0)))]) == "ab"
        assert join([], [cells(np.zeros((0, 3)))]) == ""
