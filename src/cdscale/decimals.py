"""repr's text for arrays of floats, and the CSV lines that carry it.

repr writes a float as the shortest decimal that reads back to it, the
nearest such decimal when there are several, positionally for
1e-4 <= |x| < 1e16. `_encode` writes the same bytes for a whole array with
fixed-width arithmetic (Steele & White 1990; Adams 2018, "Ryu"):

  * X = |x| 10^(16 - e10), with 10^e10 <= |x| < 10^(e10 + 1), is formed
    exactly as hi + lo by Dekker's two-product (10^k is an exact double for
    k <= 22), and so is half, half the spacing of x scaled alike. X has 17
    integer digits and half lies in (0.55, 11.1).
  * No two multiples of 100 lie within half of X, and a decimal shorter
    than 15 digits is one of them padded with zeros, so the nearest
    multiple of 100, if it lies within half, is repr's digits. Otherwise
    repr takes the nearest multiple of 10 within half, and otherwise the
    nearest integer, which always lies within half.
  * A decision within TIE_GUARD of a tie (repr takes the even digit) or of
    the interval's edge, a power of two (its interval is lopsided) and every
    value outside the positional range (zeros, subnormals, nan, inf) are
    written by repr itself.

Each value becomes a fixed-width field of WIDTH bytes (sign, 16 integer
digits, '.', 20 fraction digits) with a mask of the bytes that are kept, and
`write_lines` lays fields side by side into lines and writes the kept bytes.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH = 38
# lines laid out per chunk: bounds the temporaries, whatever the line count
LINES_PER_CHUNK = 2048
# in units of X's last digit; the arithmetic below errs by about 1e-14
TIE_GUARD = 1e-6

# the least double >= 10^j for j = -4..16 (each literal rounds up)
_DECADES = np.array([float(f"1e{j}") for j in range(-4, 17)])
_POW10 = np.array([float(10 ** k) for k in range(21)])
# the four ASCII digits of 0..9999, one uint32 each
_DIGITS4 = np.ascontiguousarray(np.moveaxis(48 + np.indices((10,) * 4, dtype=np.uint8), 0, -1)
                                ).view(np.uint32).reshape(-1)
_MANTISSA = np.uint64(2 ** 52 - 1)
# keep masks of fast-path fields by (negative, integer digits - 1, fraction digits)
_KEEP = np.empty((2, 16, 21, WIDTH), dtype=bool)
_KEEP[..., 0] = np.arange(2)[:, None, None] == 1
_KEEP[..., 1:17] = np.arange(16) >= 15 - np.arange(16)[:, None, None]
_KEEP[..., 17] = True
_KEEP[..., 18:] = np.arange(20) < np.arange(21)[:, None]
_KEEP = _KEEP.reshape(-1, WIDTH)


def _split(a):
    """a = hi + lo with hi holding the upper 26 bits of a's significand (Dekker)."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _digits(x):
    """repr's digits of each value of the 1-d float array x, where they can be chosen.

    Returns the 17-digit integers D with x = ±D 10^(e10 - 16), e10, and the
    mask of the values whose D and e10 are repr's.
    """
    e10 = np.searchsorted(_DECADES, np.abs(x), side="right") - 5  # nan and inf sort last
    fast = (e10 >= -4) & (e10 <= 15) & ((x.view(np.uint64) & _MANTISSA) != 0)
    ax = np.where(fast, np.abs(x), 1.0)
    e10 = np.where(fast, e10, 0)
    k = 16 - e10
    # X = hi + lo exactly (Dekker's two-product); hi is an even integer below 2^57
    hi = ax * _POW10[k]
    ah, al = _split(ax)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    big = hi.astype(np.int64)
    half = 0.5 * np.spacing(ax) * _POW10[k]
    # 17, 16 and 15 digits: the nearest multiple of c to X, kept when within half
    delta = np.rint(lo)
    unsure = np.abs(np.abs(lo - delta) - 0.5) <= TIE_GUARD
    for c in (10, 100):
        m = big % c
        r = m + lo  # X less the multiple of c at or below hi, to about 1e-14
        up = np.rint(r * (1.0 / c))
        d = np.abs(r - c * up)
        unsure |= (np.abs(d - half) <= TIE_GUARD) | (np.abs(d - 0.5 * c) <= TIE_GUARD)
        delta = np.where(d < half, c * up - m, delta)
    digits = big + delta.astype(np.int64)
    # 10^17 would carry into an 18th digit; no double in the positional range rounds to it
    return digits, e10, fast & ~unsure & (digits < 10 ** 17)


def _encode(x, chars, keep) -> None:
    """Write repr of each value of the 1-d float array x into chars and keep, (x.size, WIDTH)."""
    n = x.size
    digits, e10, fast = _digits(x)
    # 60 ASCII bytes per value: 20 zeros, D zero-padded to 20 digits (its 17
    # digits at bytes 23..39), 20 zeros; places 10^15..10^-20 start at byte 8 + e10
    src = np.full((n, 15), _DIGITS4[0], dtype=np.uint32)
    high, low = digits // 10 ** 8, digits % 10 ** 8
    src[:, 5] = _DIGITS4[high // 10 ** 8]
    src[:, 6] = _DIGITS4[high // 10 ** 4 % 10 ** 4]
    src[:, 7] = _DIGITS4[high % 10 ** 4]
    src[:, 8] = _DIGITS4[low // 10 ** 4]
    src[:, 9] = _DIGITS4[low % 10 ** 4]
    src = src.view(np.uint8)
    # 36-byte items at every byte offset of src: one fancy index gathers them
    items = np.ndarray(buffer=src, dtype="V36", shape=(src.size - 35,), strides=(1,))
    window = items[np.arange(0, 60 * n, 60) + 8 + e10].view(np.uint8).reshape(n, 36)
    chars[:, 0], chars[:, 17] = 45, 46  # '-' and '.'
    chars[:, 1:17], chars[:, 18:] = window[:, :16], window[:, 16:]
    zeros = np.argmax(src[:, 39:22:-1] != 48, axis=1)  # trailing ones of the 17 digits
    places = np.maximum(16 - e10 - zeros, 1)
    keep[...] = np.take(_KEEP, ((x < 0) * 16 + np.maximum(e10, 0)) * 21 + places, axis=0)

    slow = np.flatnonzero(~fast)
    if slow.size:
        reprs = np.array([repr(v) for v in x[slow].tolist()], dtype=f"S{WIDTH}")
        chars[slow] = reprs.view(np.uint8).reshape(-1, WIDTH)
        keep[slow] = chars[slow] != 0


def text(strings):
    """ASCII strings as one field: NUL-padded chars and their keep mask."""
    chars = np.asarray(strings, dtype=np.bytes_)
    chars = chars.view(np.uint8).reshape(chars.shape + (chars.itemsize,))
    return chars, chars != 0


def write_lines(fh, *cells) -> None:
    """Write one line per index of the cells' broadcast shape, in C order.

    A cell is a float array, written as repr writes each value, or a
    `text` field; a line is its cells' kept bytes end to end, so separators
    are `text` cells too. At most LINES_PER_CHUNK lines are laid out at a
    time: leading axes go one index at a time until the rest fits.
    """
    floats = [isinstance(c, np.ndarray) for c in cells]
    shape = np.broadcast_shapes(*(c.shape if f else c[0].shape[:-1]
                                  for c, f in zip(cells, floats)))
    # each cell's shape over all the line axes, then its width
    shapes = [(1,) * (len(shape) - c.ndim) + c.shape if f else
              (1,) * (len(shape) + 1 - c[0].ndim) + c[0].shape for c, f in zip(cells, floats)]
    widths = [WIDTH if f else s[-1] for s, f in zip(shapes, floats)]
    ends = np.cumsum(widths).tolist()
    split = next(i for i in range(len(shape)) if math.prod(shape[i + 1:]) <= LINES_PER_CHUNK)
    step = LINES_PER_CHUNK // math.prod(shape[split + 1:])
    for lead in np.ndindex(*shape[:split]):
        for lo in range(0, shape[split], step):
            at = [slice(i, i + 1) for i in lead] + [slice(lo, lo + step)]
            lines = (1,) * split + (min(step, shape[split] - lo),) + shape[split + 1:]
            chars = np.empty((math.prod(lines), ends[-1]), dtype=np.uint8)
            keep = np.empty(chars.shape, dtype=bool)
            for cell, s, f, w, end in zip(cells, shapes, floats, widths, ends):
                index = tuple(a if n > 1 else slice(None) for a, n in zip(at, s))
                if f:
                    x = np.broadcast_to(np.asarray(cell, dtype=float).reshape(s)[index], lines)
                    _encode(x.ravel(), chars[:, end - w:end], keep[:, end - w:end])
                else:
                    chars.reshape(lines + (-1,))[..., end - w:end] = cell[0].reshape(s)[index]
                    keep.reshape(lines + (-1,))[..., end - w:end] = cell[1].reshape(s)[index]
            fh.write(chars[keep])
