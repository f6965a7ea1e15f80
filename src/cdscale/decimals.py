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

Each value is a field: a sign, the integer digits of the write's largest
positional value (at least 2), '.', FRACTION digits, and a mask of kept bytes.
`write_lines` lays lines in chunks of CHUNK_BYTES, shared cells once a write.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

FRACTION = 20
# bytes of lines laid out at a time: bounds the temporaries, whatever the line count
CHUNK_BYTES = 1 << 18
# in units of X's last digit; the arithmetic below errs by about 1e-14
TIE_GUARD = 1e-6

# the least double >= 10^j for j = -4..16 (each literal rounds up)
_DECADES = np.array([float(f"1e{j}") for j in range(-4, 17)])
_POW10 = np.array([float(10 ** k) for k in range(21)])
# the four ASCII digits of 0..9999, one uint32 each, and their trailing zeros
_DIGITS4 = np.ascontiguousarray(np.moveaxis(48 + np.indices((10,) * 4, dtype=np.uint8), 0, -1)
                                ).view(np.uint32).reshape(-1)
_ZEROS4 = sum(np.arange(10 ** 4) % 10 ** j == 0 for j in range(1, 5))


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
    fast = (e10 >= -4) & (e10 <= 15) & ((x.view(np.uint64) << 12) != 0)  # not a power of 2
    ax = np.where(fast, np.abs(x), 1.0)
    e10 = np.where(fast, e10, 0)
    k = 16 - e10
    # X = hi + lo exactly (Dekker's two-product); hi is an even integer below 2^57
    scale = _POW10[k]
    hi = ax * scale
    ah, al = _split(ax)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    big = hi.astype(np.int64)
    half = 0.5 * np.spacing(ax) * scale
    # 17, 16 and 15 digits: the nearest multiple of c to X, kept when within half
    delta = np.rint(lo)
    margin = np.abs(np.abs(lo - delta) - 0.5)
    m100 = (big % 100).astype(np.float64)
    for c, m in ((10, m100 - 10.0 * np.floor(m100 * 0.1)), (100, m100)):
        step = c * np.rint((m + lo) * (1.0 / c)) - m  # from hi to the nearest multiple of c
        d = np.abs(lo - step)
        margin = np.minimum(margin, np.minimum(np.abs(d - half), np.abs(d - 0.5 * c)))
        delta = np.where(d < half, step, delta)
    digits = big + delta.astype(np.int64)
    # 10^17 would carry into an 18th digit; no double in the positional range rounds to it
    return digits, e10, fast & (margin > TIE_GUARD) & (digits < 10 ** 17)


def _items(a):
    """The last axis of a, which must be contiguous, as one void item."""
    return a.view(f"V{a.shape[-1]}")[..., 0]


@functools.cache
def _keep_items(di):
    """Keep masks of fields of di integer digits by (negative, max(e10, 0), fraction digits)."""
    neg, e10, places, i = np.ix_(range(2), range(di), range(FRACTION + 1), range(di + FRACTION + 2))
    return _items((i >= di - e10) & (i < di + 2 + places) | (i == 0) & (neg == 1)).reshape(-1)


def _encode(x, chars, keep) -> None:
    """Write repr of each value of the 1-d float array x into chars and keep, (x.size, width)."""
    di = chars.shape[1] - FRACTION - 2  # integer digits, enough for every positional value
    digits, e10, fast = _digits(x)
    high, low = np.divmod(digits, 10 ** 8)
    top, high = np.divmod(high, 10 ** 8)
    groups = (top, *np.divmod(high, 10 ** 4), *np.divmod(low, 10 ** 4))
    # rows of ASCII zeros with D's 4-digit groups at columns col..col + 4 (its
    # 17 digits from byte 4 col + 3 on): every value's window lies in its row
    col = -(-di // 4)
    src = np.full((x.size, col + (di + 26) // 4), _DIGITS4[0])
    for j, group in enumerate(groups):
        src[:, col + j] = _DIGITS4.take(group, mode="wrap")
    # the integer and fraction digits at every byte offset of src: one fancy index gathers them
    items = np.ndarray(buffer=src, dtype=f"V{di + FRACTION}", shape=(src.nbytes - di - 19,),
                       strides=(1,))
    window = items[np.arange(4 * col + 4 - di, src.nbytes, src.strides[0]) + e10]
    window = window.view(np.uint8).reshape(x.size, -1)
    chars[:, 0], chars[:, di + 1] = 45, 46  # '-' and '.'
    _items(chars[:, 1:di + 1])[...] = _items(window[:, :di])
    _items(chars[:, di + 2:])[...] = _items(window[:, di:])
    zeros = _ZEROS4[groups[4]]  # trailing zeros of the 17 digits, by groups from the last
    for k, group in enumerate(groups[3::-1], 1):
        deep = np.flatnonzero(zeros == 4 * k)
        zeros[deep] += _ZEROS4[group[deep]]
    rows = ((x < 0) * di + np.maximum(e10, 0)) * 21 + np.maximum(16 - e10 - zeros, 1)
    _items(keep)[...] = _keep_items(di)[rows]
    if (slow := np.flatnonzero(~fast)).size:
        reprs = np.array([repr(v) for v in x[slow].tolist()], dtype=f"S{chars.shape[1]}")
        chars[slow] = reprs.view(np.uint8).reshape(slow.size, -1)
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
    are `text` cells too. A chunk of lines fills a buffer of CHUNK_BYTES:
    leading axes go one index at a time until the rest fits.
    """
    floats = [isinstance(c, np.ndarray) for c in cells]
    shape = np.broadcast_shapes(*(c.shape if f else c[0].shape[:-1] for c, f in zip(cells, floats)))
    if not math.prod(shape):
        return
    # each cell's arrays over all the line axes: a float's values, or a text field's bytes and mask
    cells = [[np.broadcast_to(np.asarray(c, dtype=float), shape)] if f else
             [np.broadcast_to(a, shape + a.shape[-1:]) for a in c] for c, f in zip(cells, floats)]
    # every float field has the integer digits of the largest positional value, at least 2
    top = max((max(np.max(c, initial=0.0, where=c < 1e16), -np.min(c, initial=0.0, where=c > -1e16))
               for (c, *_), f in zip(cells, floats) if f), default=0.0)
    width = FRACTION + 2 + max(int(np.searchsorted(_DECADES, top, side="right")) - 4, 2)
    ends = np.cumsum([width if f else c[0].shape[-1] for c, f in zip(cells, floats)]).tolist()
    slots = list(zip(cells, floats, [0] + ends[:-1], ends))
    per_chunk = max(CHUNK_BYTES // ends[-1], 1)
    split = next(i for i in range(len(shape)) if math.prod(shape[i + 1:]) <= per_chunk)
    step = per_chunk // math.prod(shape[split + 1:])
    chars = np.empty((min(step, shape[split]),) + shape[split + 1:] + (ends[-1],), dtype=np.uint8)
    keep = np.empty(chars.shape, dtype=bool)
    # the first chunk lays every cell, the others only those that vary along an axis up to split
    varying = [s for s in slots if any(s[0][0].strides[:split + 1])]
    chunks = itertools.product(np.ndindex(*shape[:split]), range(0, shape[split], step))
    for i, (lead, lo) in enumerate(chunks):
        at, rows = lead + (slice(lo, lo + step),), min(step, shape[split] - lo)
        for cell, f, start, end in varying if i else slots:
            out = [a[:rows, ..., start:end] for a in (chars, keep)]  # (rows, ..., field width)
            if f:  # the line axes of out merge: its reshape is a view
                _encode(cell[0][at].reshape(-1), *(a.reshape(-1, width) for a in out))
            else:
                _items(out[0])[...], _items(out[1])[...] = (_items(a[at]) for a in cell)
        fh.write(chars[:rows][keep[:rows]])
