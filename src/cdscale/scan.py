"""Ordered products of 2x2 factors by a two-level blocked scan.

A recurrence X_ell = F_ell X_{ell-1}, ell = 1..L, of 2x2 states (one per point)
is cut into blocks of B = isqrt(L) steps, the blocked form of the prefix sums
of Blelloch 1990, "Prefix sums and their applications": (1) every block's
propagator is formed from the identity, all blocks side by side; (2) the
propagators are combined in order into each block's true start; (3) the blocks
are rerun from their true starts. That is about 3 sqrt(L) vectorized steps in
place of L, with O(sqrt(L) points) memory beyond the output. A state is one
array of shape (2, c, rows, points), c the number of columns kept (2 for a
matrix, 1 for a vector): a step is a few numpy calls on whole rows, reading
views [:, j, None] of per-step coefficients reshaped to (blocks, B). Pass 1
forms full propagators; passes 2 and 3 carry the c columns alone.
"""

import math

import numpy as np


def blocked_scan(length: int, start: np.ndarray, step, coeffs, snapshots=(), visit=None,
                 increment: bool = False) -> np.ndarray:
    """States X_s at each step number s in ``snapshots``, shape (len, points, 2, c).

    ``start`` holds X_0, shape (2, c, points), in the dtype of all states.
    ``step(x, *t)`` returns F x for states x of shape (2, 2 or c, rows, points)
    and may overwrite x; ``t`` are (rows, 1) views of ``coeffs``, 1-D arrays
    indexed by 0-based step, at the step of each row. With ``increment`` it
    returns (F - I) x, leaving x intact, and block propagators are kept as
    M - I so that small increments keep their digits. The last block repeats
    the last factor past ``length``. ``visit(x, steps)``, if given, sees the
    rerun of every step in block order, x holding X_s for s in
    ``range(length + 1)[steps]``; without it only the blocks holding a
    snapshot (any of 0..length) rerun, each to its last one.
    """
    snaps = np.asarray(snapshots, dtype=np.int64).reshape(-1)
    cols, points = start.shape[1:]
    out = np.empty((snaps.size, points, 2, cols), dtype=start.dtype)
    out[snaps == 0] = start.transpose(2, 0, 1)
    live = np.flatnonzero(snaps > 0)
    if length == 0 or (visit is None and not live.size):
        return out
    size = max(1, math.isqrt(length))
    count = -(-length // size)
    padded = []
    for t in coeffs:  # the last coefficient repeats past length
        c = np.empty(count * size, t.dtype)
        c[:length], c[length:] = t[:length], t[length - 1]
        padded.append(c.reshape(count, size))
    coeffs = padded

    # pass 1: the propagator of every block from the identity (the last one goes unused);
    # an increment x never holds -0.0, so I + x adds 0.0 off the diagonal exactly
    eye = np.eye(2)[:, :, None, None]
    x = np.zeros((2, 2, count, points), dtype=start.dtype) + (0.0 if increment else eye)
    y = np.empty_like(x) if increment else None
    for j in range(size):
        d = step(np.add(x, eye, out=y) if increment else x, *(c[:, j, None] for c in coeffs))
        x = np.add(x, d, out=x) if increment else d

    # pass 2: in order, the true start of each block takes the place of its propagator
    s = start
    for k in range(count):
        prod = x[:, 0, k, None] * s[0] + x[:, 1, k, None] * s[1]
        x[:, :cols, k] = s
        s = s + prod if increment else prod

    # pass 3: rerun from the true starts (for a visit every block; else the blocks
    # holding a snapshot, each to its last one), the rows ordered by the last step
    # each block is needed for, so that the rows still running are a leading slice
    block, offset = np.divmod(snaps[live] - 1, size)
    last = np.full(count, size - 1 if visit is not None else -1)
    np.maximum.at(last, block, offset)
    rows = np.argsort(-last, kind="stable")
    row_of, last = np.argsort(rows), last[rows]
    x = x[:, :cols]
    if visit is None:
        x, coeffs = x.take(rows, axis=2), [c[rows] for c in coeffs]
    running = np.searchsorted(-last, -np.arange(last[0] + 1), side="right").tolist()
    hits = {j: (live[offset == j], row_of[block[offset == j]]) for j in set(offset.tolist())}
    tail = length - (count - 1) * size  # steps of the last block that are not padding
    for j, r in enumerate(running):
        if r < x.shape[2]:
            x, coeffs = x[:, :, :r], [c[:r] for c in coeffs]
        d = step(x, *(c[:, j, None] for c in coeffs))
        x = np.add(x, d, out=x) if increment else d
        if visit is not None:  # rows are in block order, and only the last one pads
            visit(x if j < tail else x[:, :, :-1], slice(j + 1, length + 1, size))
        if j in hits:
            at, b = hits[j]
            out[at] = x[:, :, b].transpose(2, 3, 0, 1)
    return out
