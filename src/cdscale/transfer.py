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
return arrays of shape (len(t), len(a), 2, 2). Both step loops, like the
polynomial recurrence, run as a blocked scan (``scan``): about 3 sqrt(n)
vectorized steps in place of n.

The pair (p_ell(x0), q_ell(x0)) alone gives back the Jacobi matrix
(discrete_to_jacobi) and its polynomials (polys_from_h, by the recursion of Q).
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConditioningWarning, WronskianViolation
from .jacobi import CoefficientModel, TableModel, poly_table
from .mat2 import IDENTITY, Mat2, inverse_unimodular, operator_norm
from .scan import blocked_scan

# Above this squared size of the accumulated product the direct path has lost
# too many digits. transfer_product measures size by the spectral norm,
# transfer_matrices by the largest entry modulus, which is within a factor 2.
DIRECT_COND_LIMIT = 1e12
WRONSKIAN_TOL = 1e-10


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
        x, h = (self.ps, -self.qs), np.empty((len(self), 2, 2))  # H_ell = x_ell x_ell^T
        for i, j in np.ndindex(2, 2):
            h[:, i, j] = x[i] * x[j]
        return h

    def wronskian_residual(self, a) -> float:
        """max |q_ell p_{ell-1} - p_ell q_{ell-1} - 1/a_ell| over ell >= 1; ``a`` is a_1..a_m."""
        p, q = self.ps, self.qs
        lhs = q[1:] * p[:-1] - p[1:] * q[:-1]
        return float(np.max(np.abs(lhs - 1.0 / np.asarray(a, dtype=float)), initial=0.0))


def one_step(model: CoefficientModel, ell: int, x, n: int | None = None) -> Mat2:
    """One-step transfer matrix S_ell(x); unimodular by construction."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    a, b = model.coeff(ell, n)
    return Mat2((x - b) / a, -1.0 / a, a, 0.0)


def transfer_product(model: CoefficientModel, ell: int, x,
                     n: int | None = None) -> Mat2:
    """Ordered product S_ell(x) ... S_1(x); T_0 is the identity.

    The scalar reference that tests hold transfer_matrices against: one
    Mat2 product and one operator_norm call per step, in plain Python.
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

    Multiplies the one-step factors S_ell(x) of one_step by a blocked scan,
    for all points at once, so it stays a product independent of the
    polynomial recurrence, its steps reading views of (a, b). ``ells`` must
    be nondecreasing; only the snapshots are kept.
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

    # the rows of T_ell are (p_ell, -q_ell) and a_ell (p_{ell-1}, -q_{ell-1})
    def step(x, al, bl):
        c_row = (-1.0 / al) * x[1]
        np.multiply(al, x[0], out=x[1])
        np.add(np.multiply((xs - bl) / al, x[0], out=x[0]), c_row, out=x[0])
        return x

    over = []

    def visit(x, steps):  # one reduction clears most visits (fmax skips the NaN max would spread)
        m = abs(x[0])
        if np.fmax.reduce(m, axis=None, initial=0.0) > DIRECT_COND_LIMIT ** 0.5:
            big = m.max(axis=(0, 2)) > DIRECT_COND_LIMIT ** 0.5
            if big.any():
                over.append(steps.start + steps.step * int(np.argmax(big)))

    start = np.eye(2, dtype=xs.dtype)[:, :, None].repeat(xs.shape[0], axis=2)
    out = blocked_scan(max_ell, start, step, (a, b), ells, visit=visit)
    if over:
        _warn_conditioning(min(over))
    return out


def h_sequence(model: CoefficientModel, x0: float, up_to: int,
               n: int | None = None) -> DiscreteHSequence:
    """Coefficients H_0..H_up_to of the discrete canonical system at x0."""
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    P, Q = poly_table(model, np.array([float(x0)]), up_to, n)
    return DiscreteHSequence(x0, P[:, 0], Q[:, 0])


def _check_t_grid(t_grid) -> list:
    """The times as a list, after checking that they are sorted and lie in [0, 1]."""
    ts = list(t_grid)
    if any(not 0.0 <= t <= 1.0 for t in ts):  # NaN too
        raise ValueError("t grid must lie in [0, 1]")
    if sorted(ts) != ts:
        raise ValueError("t grid must be sorted")
    return ts


def q_trajectory_direct(model: CoefficientModel, n: int, x0: float, a_values,
                        t_grid) -> np.ndarray:
    """Q at each (t, a) from the definition T_[tn](x0)^{-1} T_[tn](x0 + a/n).

    Stable whenever the polynomials at x0 stay bounded (bulk points); off the
    bulk transfer_matrices warns, and products too large for the check below
    raise ArithmeticError. Each snapshot checks det T_[tn](x0) = 1 to within
    1e-9 relative to ||T(x0)|| min_a ||T(x0 + a/n)||. Returns shape
    (len(t_grid), len(a_values), 2, 2), like q_snapshots.
    """
    ells = [int(np.floor(t * n)) for t in _check_t_grid(t_grid)]
    a_arr = np.atleast_1d(np.asarray(a_values))
    with np.errstate(over="ignore", invalid="ignore"):  # off the bulk; named below
        T = transfer_matrices(model, np.concatenate([[x0], x0 + a_arr / n]), ells, n)
        norms = operator_norm(T)
        # ||T(x0)|| ||T(x)|| bounds det T(x0) and the entries of Q
        finite = np.isfinite(norms[:, :1] * norms).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))  # the first snapshot that overflows
        raise ArithmeticError(f"transfer products at step {ells[k]} overflow "
                              f"(x0 = {x0}, n = {n}, ||T(x0)|| = {norms[k, 0]:.6g})")
    # without offsets there is no Q to protect, and the tolerance is inf
    tol = np.maximum(1e-9 * norms[:, 0] * np.min(norms[:, 1:], axis=1, initial=np.inf), 1e-9)
    Q = inverse_unimodular(T[:, 0], tol=tol)[:, None] @ T[:, 1:]
    return Q.astype(complex, copy=False)


def q_snapshots(h_seq: DiscreteHSequence, n: int, a_values,
                t_values) -> np.ndarray:
    """Q at each requested (t, a) from the one-step recursion of the difference equation.

    Iterates Q_{ell+1} = Q_ell + (a/n) J^{-1} H_ell Q_ell from the identity for
    all offsets at once, by a blocked scan that keeps block propagators as
    increments over the identity and reruns only the blocks that hold a
    snapshot; each step reads views of (p_ell, q_ell), and
    J^{-1} H_ell = ((-pq, q^2), (-p^2, pq)).
    Needs H_0..H_{max[tn]-1}. Real offsets run in real arithmetic. Returns
    complex values of shape (len(t_values), len(a_values), 2, 2).
    """
    _check_t_grid(sorted(t_values))  # every t in [0, 1]; any order
    ells = np.floor(np.asarray(t_values, dtype=float) * n).astype(np.int64)
    a = np.asarray(a_values)
    return _q_at_steps(h_seq, a.astype(complex if np.iscomplexobj(a) else float) / n, ells)


def _q_at_steps(h_seq: DiscreteHSequence, z: np.ndarray, ells: np.ndarray) -> np.ndarray:
    """Q_ell(x0 + z) at each step in ``ells`` (any order) for the real or complex z; see q_snapshots."""
    max_ell = int(ells.max(initial=0))
    if max_ell > len(h_seq):
        raise ValueError(f"h sequence of length {len(h_seq)} does not cover index {max_ell - 1}")

    # J^{-1} H_ell = (q, p)^T (-p, q) has rank one
    def increment(x, p, q):
        r = q * x[1]
        r -= p * x[0]
        return np.array((q, p))[:, None] * np.multiply(z, r, out=r)

    start = np.eye(2, dtype=z.dtype)[:, :, None].repeat(z.shape[0], axis=2)
    # off the bulk H_ell overflows; the non-finite snapshots reach the caller, which names them
    with np.errstate(over="ignore", invalid="ignore"):
        Q = blocked_scan(max_ell, start, increment, (h_seq.ps, h_seq.qs), ells, increment=True)
    return Q.astype(complex, copy=False)


def polys_from_h(h_seq: DiscreteHSequence, x) -> np.ndarray:
    """p_0(x)..p_m(x) rebuilt from the discrete canonical system alone, shape (m + 1, len(x)).

    p_ell(x) = p_ell(x0) Q_ell[0, 0] - q_ell(x0) Q_ell[1, 0], with Q at z = x - x0
    and every step a snapshot.
    """
    x = np.atleast_1d(np.asarray(x))
    z = x.astype(complex if np.iscomplexobj(x) else float) - h_seq.x0
    Q = _q_at_steps(h_seq, z, np.arange(len(h_seq)))
    return h_seq.ps[:, None] * Q[:, :, 0, 0] - h_seq.qs[:, None] * Q[:, :, 1, 0]


def discrete_to_jacobi(h_seq: DiscreteHSequence, a) -> TableModel:
    """The Jacobi matrix with off-diagonals ``a`` = a_1..a_m whose polynomials at x0 are h_seq's.

    Needs m = len(h_seq) - 1 and raises WronskianViolation when the discrete
    Wronskian misses 1/a_ell by more than WRONSKIAN_TOL. The diagonal is
    b_ell = x0 + a_ell a_{ell-1} (p_ell q_{ell-2} - q_ell p_{ell-2}), with a_0 = 1
    and the initial data (p_{-1}, q_{-1}) = (0, -1) implied by p_0 = 1.
    """
    a = np.asarray(a, dtype=float)
    if len(h_seq) < 2 or a.shape != (len(h_seq) - 1,):
        raise ValueError(f"need a_1..a_m, m >= 1, for a sequence of m + 1 = {len(h_seq)} terms")
    res = h_seq.wronskian_residual(a)
    if res > WRONSKIAN_TOL:
        raise WronskianViolation(
            f"max |s_l r_(l-1) - r_l s_(l-1) - 1/a_l| = {res:.3e} > {WRONSKIAN_TOL:g}")
    p = np.concatenate([[0.0], h_seq.ps])  # p_{-1}..p_m
    q = np.concatenate([[-1.0], h_seq.qs])
    b = h_seq.x0 + a * np.concatenate([[1.0], a[:-1]]) * (p[2:] * q[:-2] - q[2:] * p[:-2])
    return TableModel(a, b)
