import io
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdscale import decimals


def encoded(x):
    """The encoder's text of each value of x, one per line."""
    buf = io.BytesIO()
    decimals.write_lines(buf, np.asarray(x, dtype=float), decimals.text(["\n"]))
    return buf.getvalue()


def per_value(x):
    return "".join(f"{v!r}\n" for v in np.asarray(x, dtype=float).tolist()).encode()


def assert_matches_repr(x):
    got, want = encoded(x), per_value(x)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(bad)} values differ from repr, first {bad[:5]}")


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=20))
def test_encoder_matches_repr_on_any_float(values):
    assert_matches_repr(values)


def random_doubles(rng, size):
    """Uniform bit patterns, and bit patterns whose exponent lies in repr's positional range."""
    bits = rng.integers(0, 2 ** 64, size, dtype=np.uint64, endpoint=False)
    positional = (bits & np.uint64(2 ** 52 - 1)) | (
        rng.integers(1023 - 14, 1023 + 54, size).astype(np.uint64) << np.uint64(52))
    positional |= bits & np.uint64(2 ** 63)
    return bits.view(float), positional.view(float)


def test_encoder_matches_repr_on_random_bit_patterns():
    rng = np.random.default_rng(20180)
    for _ in range(5):
        uniform, positional = random_doubles(rng, 100_000)
        assert_matches_repr(uniform)
        assert_matches_repr(positional)


EDGES = [
    781273394768459.25, 781273394768459.75, 1125899906842624.25, 1125899906842624.75,
    0.30000000000000004, 9007199254740993.0,
    1234567890123456.8, 0.1, 1 / 3, 2 / 3, 123456.789, 5e-324, 2.2250738585072014e-308,
    2.0 ** 40, 2.0 ** -20, 2.0 ** 53, 0.5, 1.0, 1e-4, math.nextafter(1e-4, 0.0),
    math.nextafter(1e-4, 1.0), 9999999999999998.0, 1e16, 100.0, 1e15, 1e15 + 0.125,
    999999999999999.9, 0.001, 0.009999999999999998, 1.7976931348623157e308,
    0.0, -0.0, math.inf, -math.inf, math.nan,
]


@pytest.mark.parametrize("value", EDGES + [-v for v in EDGES], ids=repr)
def test_encoder_matches_repr_on_edge_cases(value):
    assert_matches_repr([value])


def test_16_and_17_digit_ties_take_repr():
    # each value lies halfway between two 16- or 17-digit decimals that both
    # read back to it; repr takes the one whose last digit is even
    assert encoded([781273394768459.25, 781273394768459.75,
                    1125899906842624.25, 1125899906842624.75]) == \
        b"781273394768459.2\n781273394768459.8\n1125899906842624.2\n1125899906842624.8\n"


def test_encoder_raises_no_warning():
    rng = np.random.default_rng(7)
    values = np.concatenate([*random_doubles(rng, 10_000), np.array(EDGES)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        encoded(values)
        encoded(values.reshape(-1, 1))


def test_decade_bounds_are_the_least_doubles_at_or_above_powers_of_ten():
    for j, bound in zip(range(-4, 17), decimals._DECADES.tolist()):
        assert Fraction(bound) >= Fraction(10) ** j > Fraction(math.nextafter(bound, 0.0))


@pytest.mark.parametrize("rows, cols", [(3 * decimals.LINES_PER_CHUNK // 50 + 1, 50),
                                        (2, decimals.LINES_PER_CHUNK + 7)])
def test_lines_broadcast_cells_and_span_chunks(rows, cols):
    a = np.arange(rows) * 0.1
    b = np.linspace(-1.0, 1.0, cols)
    values = a[:, None] * b
    buf = io.BytesIO()
    decimals.write_lines(buf, decimals.text([[f"{v!r};"] for v in a.tolist()]), b,
                         decimals.text([","]), values, decimals.text(["\n"]))
    want = "".join(f"{x!r};{y!r},{v!r}\n" for x, row in zip(a.tolist(), values.tolist())
                   for y, v in zip(b.tolist(), row))
    assert buf.getvalue() == want.encode()
