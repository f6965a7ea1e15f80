"""Ordered products of 2x2 factors by a two-level blocked scan.

A recurrence X_ell = F_ell X_{ell-1}, ell = 1..L, of 2x2 states (one per point)
is cut into blocks of B = isqrt(L) steps, the blocked form of the prefix sums
of Blelloch 1990, "Prefix sums and their applications": (1) the propagator of
every block but the last is formed from the identity, all blocks side by side;
(2) the propagators are combined in order into each block's true start; (3) the
blocks are rerun from their true starts. That is about 3 sqrt(L) vectorized
steps in place of L, with O(sqrt(L) points) memory beyond the output. A state is
one array of shape (2, c, rows, points), c the number of columns kept (2 for a
matrix, 1 for a vector): a step is a few numpy calls on whole rows. Step j of
every block reads the strided view t[j::B] of each caller's coefficient array
t, indexed by step along its first axis; no coefficient is copied or padded,
and the last block, which may be short, stops at its own last step. Pass 1
forms full propagators; passes 2 and 3 carry the c columns alone. The finite-n
products (jacobi.poly_table, transfer.transfer_matrices, transfer.q_snapshots)
read 1-D coefficients; canonical's RK4 reads (steps, 4, 4), its exact flow (pieces, 2, 2).
"""

import math

import numpy as np


def blocked_scan(length: int, start: np.ndarray, step, coeffs, snapshots=(), visit=None,
                 increment: bool = False) -> np.ndarray:
    """States X_s at each step number s in ``snapshots``, shape (len, points, 2, c).

    ``start`` holds X_0, shape (2, c, points), in the dtype of all states.
    ``step(x, *t)`` returns F x for states x of shape (2, 2 or c, rows, points)
    and may overwrite x; ``t`` are the (rows, 1, ...) entries of ``coeffs`` at
    each row's step (0-based along their first axis, at least ``length`` long).
    With ``increment`` it returns (F - I) x, leaving x intact, and block
    propagators are kept as M - I so that small increments keep their digits.
    ``visit(x, steps)``, if given, sees the rerun of every step in block order,
    x holding X_s for s in ``range(length + 1)[steps]``; without it only the
    blocks holding a snapshot (any of 0..length) rerun, each to its last one.
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
    edge = (count - 1) * size  # the steps before the last block

    # pass 1: the propagator of every block but the last from the identity;
    # an increment x never holds -0.0, so I + x adds 0.0 off the diagonal exactly
    eye = np.eye(2)[:, :, None, None]
    x = np.zeros((2, 2, count - 1, points), dtype=start.dtype) + (0.0 if increment else eye)
    y = np.empty_like(x) if increment else None
    for j in range(size):
        d = step(np.add(x, eye, out=y) if increment else x, *(t[j:edge:size, None] for t in coeffs))
        x = np.add(x, d, out=x) if increment else d

    # pass 3 runs its rows ordered by the last step each block is needed for (for a
    # visit every step; else its last snapshot, -1 for none), so that the rows still
    # running are a leading slice; a visit keeps the block order
    block, offset = np.divmod(snaps[live] - 1, size)
    last = np.full(count, size - 1 if visit is not None else -1)
    last[-1] = min(last[-1], length - edge - 1)
    np.maximum.at(last, block, offset)
    rows = np.argsort(-last, kind="stable")
    row_of, last = np.argsort(rows), last[rows]

    # pass 2: in order, the true start of each block, written to its row
    starts = np.empty((2, cols, count, points), dtype=start.dtype)
    s = start
    for k, row in enumerate(row_of[:-1].tolist()):
        starts[:, :, row] = s
        prod = x[:, 0, k, None] * s[0] + x[:, 1, k, None] * s[1]
        s = s + prod if increment else prod
    starts[:, :, row_of[-1]] = s

    # pass 3: rerun from the true starts (for a visit every block; else the blocks
    # holding a snapshot, each to its last one)
    x = starts
    running = np.searchsorted(-last, -np.arange(last[0] + 1), side="right").tolist()
    hits = {j: (live[offset == j], row_of[block[offset == j]]) for j in set(offset.tolist())}
    for j, r in enumerate(running):
        if r < x.shape[2]:
            x, rows = x[:, :, :r], rows[:r]
        # a visit reads views; other runs pick each step's entries of their rows
        d = step(x, *(t[j:r * size:size, None] if visit is not None else t[j::size][rows, None]
                      for t in coeffs))
        x = np.add(x, d, out=x) if increment else d
        if visit is not None:
            visit(x, slice(j + 1, length + 1, size))
        if j in hits:
            at, b = hits[j]
            out[at] = x[:, :, b].transpose(2, 3, 0, 1)
    return out
