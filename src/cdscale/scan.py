"""Ordered products of 2x2 factors by a two-level blocked scan.

A recurrence X_ell = F_ell X_{ell-1}, ell = 1..L, of 2x2 states (one per point)
is cut into blocks of B = isqrt(L) steps, the blocked form of the prefix sums
of Blelloch 1990, "Prefix sums and their applications": (1) every block's
propagator is formed from the identity, all blocks side by side; (2) the
propagators are combined in order into each block's true start; (3) the blocks
are rerun from their true starts. That is about 3 sqrt(L) vectorized steps in
place of L, with O(sqrt(L) points) memory beyond the output. States are entry
lists [x11, x12, x21, x22] of arrays with a row per block, a column per point.
"""

import math

import numpy as np


def blocked_scan(length: int, start: np.ndarray, step, snapshots=(), visit=None,
                 increment: bool = False) -> np.ndarray:
    """States X_s at each step number s in ``snapshots``, shape (len, points, 2, 2).

    ``start`` holds the entries of X_0, shape (4, points), in the dtype of all
    states. ``step(x, i)`` returns the entries of F x, row r of x taking the
    factor of 0-based step i[r], and may overwrite the arrays of x. With
    ``increment`` it returns (F - I) x, and block propagators are kept as
    M - I so that small increments keep their digits. The last block repeats
    the last factor past ``length``. ``visit(x, i)``, if given, sees the rerun
    of every step; without it only the blocks holding a snapshot (any of
    0..length) rerun, each to its last one.
    """
    snaps = np.asarray(snapshots, dtype=np.int64).reshape(-1)
    out = np.empty((snaps.size, start.shape[1], 2, 2), dtype=start.dtype)
    out[snaps == 0] = start.T.reshape(-1, 2, 2)
    live = np.flatnonzero(snaps > 0)
    if length == 0 or (visit is None and not live.size):
        return out
    size = max(1, math.isqrt(length))
    count = -(-length // size)

    # pass 1: the propagator of every block from the identity (the last one goes unused)
    eye = (0.0, 0.0, 0.0, 0.0) if increment else (1.0, 0.0, 0.0, 1.0)
    x = [np.full((count, start.shape[1]), e, dtype=start.dtype) for e in eye]
    for j in range(size):
        i = np.minimum(np.arange(count) * size + j, length - 1)
        x = ([v + d for v, d in zip(x, step([1 + x[0], x[1], x[2], 1 + x[3]], i))]
             if increment else step(x, i))

    # pass 2: in order, the true start of each block takes the place of its propagator
    s = start
    for k in range(count):
        e = [v[k] for v in x]
        prod = (e[0] * s[0] + e[1] * s[2], e[0] * s[1] + e[1] * s[3],
                e[2] * s[0] + e[3] * s[2], e[2] * s[1] + e[3] * s[3])
        for v, w in zip(x, s):
            v[k] = w
        s = [u + w for u, w in zip(s, prod)] if increment else prod

    # pass 3: rerun from the true starts, the rows ordered by the last step each
    # block is needed for, so that the rows still running are a leading slice
    block, offset = np.divmod(snaps[live] - 1, size)
    last = np.full(count, size - 1 if visit is not None else -1)
    np.maximum.at(last, block, offset)
    rows = np.argsort(-last, kind="stable")
    row_of, last = np.argsort(rows), last[rows]
    if visit is None:
        x = [v[rows] for v in x]
    for j in range(last[0] + 1):
        running = np.count_nonzero(last >= j)
        x, rows = [v[:running] for v in x], rows[:running]
        i = rows * size + j
        d = step(x, np.minimum(i, length - 1))
        x = [v + w for v, w in zip(x, d)] if increment else d
        if visit is not None:  # rows are in block order, and only the last one pads
            real = np.count_nonzero(i < length)
            visit([v[:real] for v in x], i[:real])
        hit = np.flatnonzero(offset == j)
        for e in range(4 if hit.size else 0):
            out[live[hit], :, e // 2, e % 2] = x[e][row_of[block[hit]]]
    return out
