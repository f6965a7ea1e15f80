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
direct product and the recursion are first-class here and must agree.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningWarning
from .jacobi import CoefficientModel, poly_table
from .mat2 import IDENTITY, Mat2, inverse_unimodular, operator_norm

# Above this accumulated norm product the direct path has lost too many digits.
DIRECT_COND_LIMIT = 1e12


@dataclass(frozen=True)
class TransferState:
    """The ell-step transfer matrix at a point."""

    ell: int
    x: complex
    T: Mat2


@dataclass(frozen=True)
class QTrajectory:
    """Samples of Q_{[tn]}(x0 + a/n) along a grid of scaled times t."""

    n: int
    a: complex
    x0: float
    samples: tuple  # of (t, Mat2)

    def at(self, t: float) -> Mat2:
        for s, q in self.samples:
            if s == t:
                return q
        raise KeyError(f"t = {t} not among sampled times")

    @property
    def final(self) -> Mat2:
        return self.samples[-1][1]


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

    def entry(self, ell: int) -> Mat2:
        p, q = self.ps[ell], self.qs[ell]
        return Mat2(p * p, -p * q, -p * q, q * q)

    @property
    def entries(self) -> list[Mat2]:
        return [self.entry(ell) for ell in range(len(self))]

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
                     n: int | None = None, warn_limit: float = DIRECT_COND_LIMIT) -> TransferState:
    """Ordered product S_ell(x) ... S_1(x); T_0 is the identity."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    T = IDENTITY
    for k in range(1, ell + 1):
        T = one_step(model, k, x, n) @ T
        if operator_norm(T) ** 2 > warn_limit:
            warnings.warn(
                f"accumulated transfer norm squared exceeds {warn_limit:g} at step {k}; "
                "use the recursive trajectory instead", ConditioningWarning,
                stacklevel=2)
            warn_limit = np.inf  # warn once per product
    return TransferState(ell=ell, x=x, T=T)


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


def q_trajectory_direct(model: CoefficientModel, n: int, x0: float, a,
                        t_grid, warn_limit: float = DIRECT_COND_LIMIT) -> QTrajectory:
    """Q at each requested t from the definition T_[tn](x0)^{-1} T_[tn](x0 + a/n).

    Stable whenever the polynomials at x0 stay bounded (bulk points). Off the
    bulk the factors grow exponentially and a ConditioningWarning is issued
    once the accumulated norms pass ``warn_limit``.
    """
    ells = _snapshot_indices(n, t_grid)
    x = x0 + a / n
    T0 = IDENTITY
    Tx = IDENTITY
    cond = 1.0
    warned = False
    samples = []
    by_ell = {}
    for ell in range(0, (max(ells) if ells else 0) + 1):
        if ell > 0:
            T0 = one_step(model, ell, x0, n) @ T0
            Tx = one_step(model, ell, x, n) @ Tx
            cond = operator_norm(T0) * operator_norm(Tx)
            if cond > warn_limit and not warned:
                warnings.warn(
                    f"accumulated transfer norms exceed {warn_limit:g}; "
                    "the recursive trajectory is the supported path here",
                    ConditioningWarning, stacklevel=2)
                warned = True
        if ell in ells and ell not in by_ell:
            by_ell[ell] = inverse_unimodular(T0, tol=max(1e-9 * cond, 1e-9)) @ Tx
    for t, ell in zip(t_grid, ells):
        samples.append((float(t), by_ell[ell]))
    return QTrajectory(n=n, a=a, x0=x0, samples=tuple(samples))


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
