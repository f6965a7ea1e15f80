"""Transfer matrices and the discrete canonical system they generate.

The n-step transfer matrix at x is the ordered product of one-step matrices

    S_ell(x) = (((x - b_ell)/a_ell, -1/a_ell), (a_ell, 0)),

each of determinant one. Its columns are polynomial values:

    T_ell(x) = ((p_ell, -q_ell), (a_ell p_{ell-1}, -a_ell q_{ell-1})),

which this module verifies against the recurrence as its core self-test,
since index conventions are the most error-prone part of the subject.

Conjugating the x-dynamics by the frozen dynamics at a base point x0 gives
Q_ell(x) = T_ell(x0)^{-1} T_ell(x), which satisfies the difference equation

    J (Q_{ell+1} - Q_ell) = (x - x0) H_ell Q_ell,
    H_ell = ((p_ell^2, -p_ell q_ell), (-p_ell q_ell, q_ell^2)) at x0,

a discrete canonical system with rank-one nonnegative coefficients. Both the
direct product and the recursion are first-class here and must agree; both
return arrays of shape (len(t), len(a), 2, 2).
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConditioningWarning
from .jacobi import CoefficientModel, poly_table
from .mat2 import (IDENTITY, Mat2, inverse_unimodular, operator_norm,
                   operator_norm_array)

# Above this squared size of the accumulated product the direct path has lost
# too many digits. transfer_product measures size by the spectral norm,
# transfer_matrices by the largest entry modulus, which is within a factor 2.
DIRECT_COND_LIMIT = 1e12
_STEP_BLOCK = 512


class DiscreteHSequence:
    """Rank-one coefficient matrices H_ell of the discrete canonical system.

    Stores the generating polynomial values (p_ell(x0), q_ell(x0)) as arrays;
    each H_ell is the outer product of (p_ell, -q_ell) with itself, so its
    operator norm is simply p_ell^2 + q_ell^2.
    """

    def __init__(self, x0: float, ps: np.ndarray, qs: np.ndarray):
        self.x0 = float(x0)
        self.ps = np.asarray(ps, dtype=float)
        self.qs = np.asarray(qs, dtype=float)
        if self.ps.shape != self.qs.shape:
            raise ValueError("p and q arrays must have equal length")

    def __len__(self) -> int:
        return len(self.ps)

    def norms(self) -> np.ndarray:
        """Operator norms ||H_ell|| = p_ell^2 + q_ell^2."""
        return self.ps ** 2 + self.qs ** 2

    def entry_arrays(self) -> np.ndarray:
        """All entries as an (len, 2, 2) array."""
        p, q = self.ps, self.qs
        h = np.empty((len(self), 2, 2))
        h[:, 0, 0] = p * p
        h[:, 0, 1] = -p * q
        h[:, 1, 0] = -p * q
        h[:, 1, 1] = q * q
        return h


def one_step(model: CoefficientModel, ell: int, x, n: int | None = None) -> Mat2:
    """One-step transfer matrix S_ell(x); unimodular by construction."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    a, b = model.coeff(ell, n)
    return Mat2((x - b) / a, -1.0 / a, a, 0.0)


def transfer_product(model: CoefficientModel, ell: int, x,
                     n: int | None = None) -> Mat2:
    """Ordered product S_ell(x) ... S_1(x); T_0 is the identity.

    The scalar reference that tests hold transfer_matrices against.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    T = IDENTITY
    warned = False
    for k in range(1, ell + 1):
        T = one_step(model, k, x, n) @ T
        if operator_norm(T) ** 2 > DIRECT_COND_LIMIT and not warned:
            _warn_conditioning(k)
            warned = True
    return T


def _warn_conditioning(step: int) -> None:
    warnings.warn(
        f"accumulated transfer matrices exceed {DIRECT_COND_LIMIT:g} in squared size at "
        f"step {step}; the recursive trajectory is the supported path here",
        ConditioningWarning, stacklevel=3)


def transfer_matrices(model: CoefficientModel, xs, ells,
                      n: int | None = None) -> np.ndarray:
    """T_ell(x) at every snapshot step ell in ``ells`` for all points xs at once.

    Multiplies the one-step factors S_ell(x) of one_step, for all points at
    every step, so it stays a product independent of the polynomial
    recurrence. ``ells`` must be nondecreasing; only the snapshots are kept.
    Returns shape (len(ells), len(xs), 2, 2), real for real points. Warns
    once (ConditioningWarning) at the first step whose largest entry modulus,
    squared, passes DIRECT_COND_LIMIT.
    """
    ells = [int(ell) for ell in ells]
    if any(ell < 0 for ell in ells) or sorted(ells) != ells:
        raise ValueError("snapshot steps must be nonnegative and nondecreasing")
    xs = np.atleast_1d(np.asarray(xs))
    xs = xs.astype(complex if np.iscomplexobj(xs) else float)
    max_ell = ells[-1] if ells else 0
    a, b = model.coeff_arrays(max_ell, n)
    out = np.empty((len(ells), xs.shape[0], 2, 2), dtype=xs.dtype)
    # rows of T_ell: row 1 is (p_ell, -q_ell), row 2 is a_ell (p_{ell-1}, -q_{ell-1})
    row1 = np.zeros((2, xs.shape[0]), dtype=xs.dtype)
    row1[0] = 1.0
    row2 = row1[::-1].copy()
    k = ells.count(0)  # the sorted ells start with the identity snapshots
    out[:k] = np.eye(2)
    # the factors of a block of steps are formed at once; row 1 after each
    # step of the block is kept to bound the entries step by step
    history = np.empty((_STEP_BLOCK,) + row1.shape, dtype=xs.dtype)
    limit = np.sqrt(DIRECT_COND_LIMIT)
    for start in range(0, max_ell, _STEP_BLOCK):
        a_blk, b_blk = a[start:start + _STEP_BLOCK], b[start:start + _STEP_BLOCK]
        shifts = (xs - b_blk[:, None]) / a_blk[:, None]
        for i, (s, c, a_ell) in enumerate(zip(shifts, (-1.0 / a_blk).tolist(), a_blk.tolist())):
            row1, row2 = s * row1 + c * row2, a_ell * row1
            history[i] = row1
            while k < len(ells) and ells[k] == start + i + 1:
                out[k] = np.stack([row1, row2]).transpose(2, 0, 1)
                k += 1
        over = np.abs(history[:len(a_blk)]).max(axis=(1, 2)) > limit
        if over.any():
            _warn_conditioning(start + 1 + int(np.argmax(over)))
            limit = np.inf  # warn once
    return out


def transfer_from_polys(model: CoefficientModel, ell: int, x,
                        n: int | None = None) -> Mat2:
    """Column form of the transfer matrix, from the polynomial recurrence."""
    P, Q = poly_table(model, np.array([x]), ell, n)
    if ell == 0:
        return IDENTITY
    a_ell, _ = model.coeff(ell, n)
    return Mat2(P[ell, 0], -Q[ell, 0], a_ell * P[ell - 1, 0], -a_ell * Q[ell - 1, 0])


def h_sequence(model: CoefficientModel, x0: float, up_to: int,
               n: int | None = None) -> DiscreteHSequence:
    """Coefficients H_0..H_up_to of the discrete canonical system at x0."""
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    P, Q = poly_table(model, np.array([float(x0)]), up_to, n)
    return DiscreteHSequence(x0, P[:, 0], Q[:, 0])


def _snapshot_indices(n: int, t_grid) -> list[int]:
    ts = list(t_grid)
    if any(t < 0.0 or t > 1.0 for t in ts):
        raise ValueError("t grid must lie in [0, 1]")
    if sorted(ts) != ts:
        raise ValueError("t grid must be sorted")
    return [int(np.floor(t * n)) for t in ts]


def q_trajectory_direct(model: CoefficientModel, n: int, x0: float, a_values,
                        t_grid) -> np.ndarray:
    """Q at each (t, a) from the definition T_[tn](x0)^{-1} T_[tn](x0 + a/n).

    Stable whenever the polynomials at x0 stay bounded (bulk points); off the
    bulk transfer_matrices warns. Each snapshot checks det T_[tn](x0) = 1 to
    within 1e-9 relative to ||T(x0)|| min_a ||T(x0 + a/n)||. Returns shape
    (len(t_grid), len(a_values), 2, 2), like q_snapshots.
    """
    ells = _snapshot_indices(n, t_grid)
    a_arr = np.atleast_1d(np.asarray(a_values))
    T = transfer_matrices(model, np.concatenate([[x0], x0 + a_arr / n]), ells, n)
    norms = operator_norm_array(T)
    out = np.empty((len(ells), a_arr.shape[0], 2, 2), dtype=complex)
    for k in range(len(ells)):
        tol = max(1e-9 * norms[k, 0] * np.min(norms[k, 1:]), 1e-9)
        T0_inv = inverse_unimodular(Mat2.from_array(T[k, 0]), tol=tol).to_array()
        out[k] = T0_inv @ T[k, 1:]
    return out


def q_snapshots(h_seq: DiscreteHSequence, n: int, a_values,
                t_values) -> np.ndarray:
    """Q at each requested (t, a) from the one-step recursion of the difference equation.

    Iterates Q_{ell+1} = (Id + (a/n) J^{-1} H_ell) Q_ell from the identity, for
    all spectral offsets at once; J^{-1} H_ell = ((-pq, q^2), (-p^2, pq)).
    Needs H_0..H_{max[tn]-1}. Returns shape (len(t_values), len(a_values), 2, 2).
    """
    ells = _snapshot_indices(n, sorted(t_values))
    order = np.argsort(np.asarray(t_values))
    a_arr = np.asarray(a_values, dtype=complex)
    na = a_arr.shape[0]
    z = a_arr / n
    max_ell = max(ells) if ells else 0
    if max_ell > len(h_seq):
        raise ValueError(f"h sequence of length {len(h_seq)} does not cover index {max_ell - 1}")
    Q = np.broadcast_to(np.eye(2, dtype=complex), (na, 2, 2)).copy()
    out = np.empty((len(t_values), na, 2, 2), dtype=complex)
    want = {}
    for pos, ell in zip(order, [int(np.floor(t * n)) for t in np.asarray(t_values)[order]]):
        want.setdefault(ell, []).append(pos)
    for pos in want.get(0, []):
        out[pos] = Q
    B = np.empty((2, 2))
    for ell in range(max_ell):
        p, q = h_seq.ps[ell], h_seq.qs[ell]
        B[0, 0] = -p * q
        B[0, 1] = q * q
        B[1, 0] = -p * p
        B[1, 1] = p * q
        Q = Q + z[:, None, None] * (B @ Q)
        for pos in want.get(ell + 1, []):
            out[pos] = Q
    return out
