import io
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdscale import canonical, decimals
from cdscale.cdkernel import KernelGrid
from cdscale.cli import main
from references import kernel_csv_per_cell


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


class Chunks(io.BytesIO):
    """A buffer that counts the lines of each write: write_lines writes once per chunk."""

    def __init__(self):
        super().__init__()
        self.lines = []

    def write(self, data):
        self.lines.append(bytes(data).count(b"\n"))
        return super().write(data)


# values that repr writes itself, the last inside the positional range
FALLBACKS = [-0.0, 5e-324, 1e16, 781273394768459.25]


def at_chunk_edges(grids, lines):
    """A copy of each grid with FALLBACKS on the first and last lines of chunks of `lines`."""
    ends = np.cumsum(lines)
    edges = [0, ends[0] - 1, ends[0], ends[-1] - 1]  # first chunk, second chunk, last line
    grids = [g.copy() for g in grids]
    for g in grids:
        g.flat[edges] = FALLBACKS
    return grids


def write_lines_at_chunk_edges(grids, write):
    """write(*grids) with FALLBACKS first anywhere, then on chunk edges; the chunks must agree."""
    placed = [g.copy() for g in grids]
    for g in placed:
        g.flat[1:1 + len(FALLBACKS)] = FALLBACKS  # the field widths depend on them
    first = write(*placed)
    assert len(first.lines) >= 3 and first.lines[-1] < max(first.lines)  # a short last chunk
    placed = at_chunk_edges(grids, first.lines)
    again = write(*placed)
    assert again.lines == first.lines
    return placed, again.getvalue()


@pytest.mark.parametrize("rows, cols", [(3 * decimals.CHUNK_BYTES // (24 * 50) + 1, 50),
                                        (2, decimals.CHUNK_BYTES // 24 + 7)],
                         ids=["rows-per-chunk", "chunks-per-row"])
def test_lines_broadcast_cells_and_span_chunks(rows, cols):
    a = np.arange(rows) * 0.1
    b = np.linspace(-1.0, 1.0, cols)

    def write(values):
        fh = Chunks()
        decimals.write_lines(fh, decimals.text([[f"{v!r};"] for v in a.tolist()]), b,
                             decimals.text([","]), values, decimals.text(["\n"]))
        return fh

    (values,), got = write_lines_at_chunk_edges([a[:, None] * b], write)
    want = "".join(f"{x!r};{y!r},{v!r}\n" for x, row in zip(a.tolist(), values.tolist())
                   for y, v in zip(b.tolist(), row))
    assert got == want.encode()


@pytest.mark.parametrize("chunk_bytes", [1500, 9000])
def test_complex_kernel_grid_spans_chunks(tmp_path, monkeypatch, chunk_bytes):
    # a chunk holds part of one a row, then several a rows
    monkeypatch.setattr(decimals, "CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(23)
    a, b = np.linspace(-2, 2, 29), rng.uniform(-3, 3, 23)
    write_lines = decimals.write_lines

    def write(re, im):
        chunks = Chunks()

        def counted(fh, *cells):
            write_lines(chunks, *cells)
            fh.write(chunks.getvalue())

        monkeypatch.setattr(decimals, "write_lines", counted)
        KernelGrid(x0=0.0, n=10, a_values=a, b_values=b, values=re + 1j * im).to_csv(
            tmp_path / "kernel.csv")
        return chunks

    (re, im), _ = write_lines_at_chunk_edges(list(rng.standard_normal((2, 29, 23))), write)
    grid = KernelGrid(x0=0.0, n=10, a_values=a, b_values=b, values=re + 1j * im)
    kernel_csv_per_cell(grid, tmp_path / "ref.csv")
    assert (tmp_path / "kernel.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_canonical_solve_lines_span_chunks(tmp_path):
    t = np.linspace(0.0, 1.0, 3001)
    assert main(["canonical-solve", "--system", "coshsinh", "--v", "1", "--z", "2.0,0.5",
                 "--t-grid", "0:1:3001", "--out", str(tmp_path)]) == 0
    q = canonical.solve_ode_batch(canonical.CoshSinhHamiltonian(1.0), [2.0 + 0.5j], t)[:, 0]
    rows = np.column_stack([t, q.reshape(-1, 4).view(float)]).tolist()
    want = "t,q11_re,q11_im,q12_re,q12_im,q21_re,q21_im,q22_re,q22_im\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in rows)
    # 9 fields of at least 24 bytes a line: the 3001 lines need several chunks
    assert 3001 * 9 * 24 > 2 * decimals.CHUNK_BYTES
    assert (tmp_path / "solution.csv").read_bytes() == want.encode()


@pytest.mark.parametrize("shape", [(3, 0), (0,), (0, 4)])
def test_zero_length_line_axis_writes_no_line(shape):
    buf = io.BytesIO()
    decimals.write_lines(buf, decimals.text([["a,"]] * 3 if shape == (3, 0) else ["a,"]),
                         np.empty(shape), decimals.text(["\n"]))
    assert buf.getvalue() == b""
