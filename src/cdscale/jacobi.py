"""Jacobi coefficient models, polynomial recurrences, and truncated spectra.

A coefficient model supplies the entries (a_j, b_j), j >= 1, of a semi-infinite
symmetric tridiagonal matrix with a_j > 0 on the off-diagonal. The orthonormal
polynomials p_j and the second-kind polynomials q_j both satisfy

    a_j y_j = (x - b_j) y_{j-1} - a_{j-1} y_{j-2},    a_0 = 1,

with initial data (p_{-1}, p_0) = (0, 1) and (q_{-1}, q_0) = (-1/a_0, 0); the
q initialization is the unique one producing q_1 = 1/a_1 and makes the 0-step
transfer matrix exactly the identity. poly_table runs this recurrence as a
blocked scan (``scan``): blocks of isqrt(n) steps side by side, about
3 sqrt(n) vectorized steps in place of n.

Zeros of p_n are the eigenvalues of the n x n truncation. Sturm sequences
count the eigenvalues below a shift exactly, which selects the ones in a
window around a point; LAPACK ?stebz bisects those, also by Sturm counts,
without computing the rest of the spectrum.

scipy is imported only inside tridiagonal_eigs_in, which needs LAPACK ?stebz
(numpy has no selective tridiagonal eigensolver). Loading scipy.linalg takes
longer than most CLI commands compute, and only ``zeros`` reaches that
function; every other command, ``verify kernel-identities`` and its Gauss
rule included, runs on numpy alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidCoefficient
from .scan import blocked_scan

# Bisection runs to this absolute accuracy in unscaled spectral units.
EIG_ABS_TOL = 1e-12


@dataclass(frozen=True)
class SpectrumSlice:
    """Scaled eigenvalues n·(lambda - x0) of the n x n truncation inside a window."""

    x0: float
    n: int
    scaled_zeros: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.scaled_zeros, dtype=float)
        if z.size > 1 and not np.all(np.diff(z) > 0):
            raise ValueError("scaled zeros must be strictly increasing")
        object.__setattr__(self, "scaled_zeros", z)

    def nearest_neighbor_gaps(self) -> np.ndarray:
        return np.diff(self.scaled_zeros)


class CoefficientModel:
    """Base class: a source of Jacobi coefficients (a_j, b_j) for j >= 1.

    ``n_dependent`` models draw their entries from a family indexed by the
    truncation order; their accessors require the order context ``n``.
    Subclasses implement ``coeff_at``; the other accessors are its forms.
    """

    n_dependent = False

    def coeff_at(self, j: np.ndarray, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(a_j, b_j) at every index of the integer array j (all j >= 1)."""
        raise NotImplementedError

    def coeff(self, j: int, n: int | None = None) -> tuple[float, float]:
        a, b = self.coeff_at(np.array([j]), n)
        return float(a[0]), float(b[0])

    def coeff_arrays(self, up_to: int, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (a_1..a_up_to, b_1..b_up_to)."""
        return self.coeff_at(np.arange(1, up_to + 1), n)

    def describe(self) -> dict:
        raise NotImplementedError


def check_coefficients(a, b) -> tuple[np.ndarray, np.ndarray]:
    """a_1.. and b_1.. as float arrays, after checking a_j > 0 and finite, b_j finite.

    Float arrays are not copied. InvalidCoefficient names the first bad j, a_j before b_j.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    bad_a = ~((0.0 < a) & (a < np.inf))  # NaN too
    bad = bad_a | ~np.isfinite(b)
    if bad.any():
        k = int(np.argmax(bad))
        if bad_a[k]:
            raise InvalidCoefficient(f"a_{k + 1} = {float(a[k])!r} must be positive and finite")
        raise InvalidCoefficient(f"b_{k + 1} = {float(b[k])!r} must be finite")
    return a, b


class ConstantModel(CoefficientModel):
    """a_j = a, b_j = b for all j. ``ConstantModel(1.0, 0.0)`` is the free model."""

    def __init__(self, a: float, b: float):
        (self.a,), (self.b,) = (x.tolist() for x in check_coefficients([a], [b]))

    def coeff_at(self, j, n=None):
        return np.full(len(j), self.a), np.full(len(j), self.b)

    def describe(self):
        return {"kind": "constant", "a": self.a, "b": self.b}


class PeriodicModel(CoefficientModel):
    """Coefficients repeat with the period of the supplied lists."""

    def __init__(self, a_list, b_list):
        if len(a_list) != len(b_list) or len(a_list) == 0:
            raise InvalidCoefficient("period lists must be nonempty and equal length")
        self.a_list, self.b_list = check_coefficients(a_list, b_list)

    def coeff_at(self, j, n=None):
        k = (j - 1) % len(self.a_list)
        return self.a_list[k], self.b_list[k]

    def describe(self):
        return {"kind": "periodic", "a": self.a_list.tolist(), "b": self.b_list.tolist()}


class TableModel(CoefficientModel):
    """Finitely many explicit coefficient pairs; no implicit extension.

    Row k of the table (0-based) holds the pair used at recurrence step
    j = k + 1. Accessing past the table raises IndexOutOfRange.
    """

    def __init__(self, a_list, b_list, source: str | None = None):
        if len(a_list) != len(b_list):
            raise InvalidCoefficient("a and b tables must have equal length")
        self.a_list, self.b_list = check_coefficients(a_list, b_list)
        self.source = source

    def __len__(self):
        return len(self.a_list)

    def coeff_at(self, j, n=None):
        if np.any(j > len(self.a_list)):
            raise IndexOutOfRange(f"index {int(np.max(j))} beyond table of {len(self.a_list)} rows")
        return self.a_list[j - 1], self.b_list[j - 1]

    def describe(self):
        d = {"kind": "table", "rows": len(self.a_list)}
        if self.source:
            d["source"] = self.source
        return d

    @classmethod
    def from_csv(cls, path) -> "TableModel":
        """Load from a CSV file with header ``j,a,b`` and consecutive 0-based j."""
        a_list, b_list = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise InvalidCoefficient(f"{path}: empty file") from None
            if [h.strip() for h in header] != ["j", "a", "b"]:
                raise InvalidCoefficient(f"{path}: line 1: header must be 'j,a,b'")
            expect = 0
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != 3:
                    raise InvalidCoefficient(f"{path}: line {lineno}: expected 3 columns")
                try:
                    j = int(row[0])
                    a = float(row[1])
                    b = float(row[2])
                except ValueError as exc:
                    raise InvalidCoefficient(f"{path}: line {lineno}: {exc}") from None
                if j != expect:
                    raise InvalidCoefficient(
                        f"{path}: line {lineno}: index {j}, expected {expect} "
                        "(0-based, strictly increasing)")
                if not 0.0 < a < math.inf:  # NaN too
                    raise InvalidCoefficient(
                        f"{path}: line {lineno}: a = {a} must be positive and finite")
                if not math.isfinite(b):
                    raise InvalidCoefficient(f"{path}: line {lineno}: b = {b} must be finite")
                a_list.append(a)
                b_list.append(b)
                expect += 1
        return cls(a_list, b_list, source=str(path))


class AlternatingSignModel(CoefficientModel):
    """Order-dependent family a_{n,j} = 1, b_{n,j} = (-1)^(j+1) V / n."""

    n_dependent = True

    def __init__(self, v: float):
        if v < 0 or not math.isfinite(v):
            raise InvalidCoefficient("coupling V must be finite and nonnegative")
        self.v = float(v)

    def coeff_at(self, j, n=None):
        if n is None:
            raise InvalidCoefficient("order context n is required for an n-dependent model")
        return np.ones(len(j)), np.where(j % 2 == 1, self.v / n, -self.v / n)

    def describe(self):
        return {"kind": "alternating-v", "v": self.v}


def poly_table(model: CoefficientModel, xs, up_to: int, n: int | None = None,
               consume=None) -> tuple[np.ndarray, np.ndarray] | None:
    """The recurrence at many points: P[ell, i] = p_ell(xs[i]), Q likewise.

    Shapes are (up_to + 1, len(xs)). The dtype follows xs: real points give
    exactly real values. Complex points are supported; the polynomials are
    entire, so no restriction on the argument applies. Its blocked scan
    (``scan``) steps read views of the coefficients (b, a_prev, a); a_prev
    and a are two views of one array (1, a_1, .., a_up_to).

    With ``consume``, no table is allocated, the scan carries the p column
    alone and None is returned: ``consume(rows)`` receives every row p_ell,
    ell = 0..up_to, exactly once, as blocks of shape (k, len(xs)) in scan
    order (p_0 first, then the rows of each rerun step, one per block); the
    order of ell within and across blocks is not increasing. ``rows`` is scan
    state, valid only during the call; keep a copy, not the array.
    """
    if up_to < 0:
        raise ValueError("up_to must be nonnegative")
    xs = np.atleast_1d(np.asarray(xs))
    xs = xs.astype(complex if np.iscomplexobj(xs) else float)
    # the state is ((p_ell, q_ell), (p_{ell-1}, q_{ell-1})), or its p column alone
    start = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=xs.dtype)[:, :, None].repeat(len(xs), axis=2)
    if consume is None:
        P = np.empty((up_to + 1, xs.shape[0]), dtype=xs.dtype)
        Q = np.empty_like(P)
        result = P, Q

        def visit(x, steps):  # every rerun step fills its rows of the tables
            P[steps], Q[steps] = x[0]
    else:
        result, start = None, start[:, :1]

        def visit(x, steps):
            consume(x[0, 0])

    visit(start[:, :, None], slice(0, 1))  # p_0 and q_0: the scan visits steps 1..up_to only
    if up_to == 0:
        return result
    a, b = check_coefficients(*model.coeff_arrays(up_to, n))
    a = np.concatenate([[1.0], a])  # a_0 = 1, then a_1..a_up_to

    # the new row is formed in place of the oldest, as (-a_prev y_{ell-1} + shift y_ell) / a_ell
    def step(x, bl, ap, al):
        cur, prev = x
        prev *= -ap
        prev += (xs - bl) * cur
        prev /= al
        return x[::-1]

    blocked_scan(up_to, start, step, (b, a[:-1], a[1:]), visit=visit)
    return result


def truncated_tridiagonal(model: CoefficientModel, n: int,
                          n_ctx: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal (b_1..b_n) and off-diagonal (a_1..a_{n-1}) of the truncation.

    The order context defaults to the truncation size itself, which is the
    convention for n-dependent families.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n_ctx is None:
        n_ctx = n
    a, b = model.coeff_arrays(n, n_ctx)
    return b, a[: n - 1]


def sturm_count(diag: np.ndarray, off: np.ndarray, shifts) -> np.ndarray:
    """Number of eigenvalues strictly below each shift.

    Counts negative pivots of the LDL^t factorization of (J - shift), the
    Sturm sequence of leading principal minors. The pivots of one shift
    form a dependent chain, so each shift runs a scalar loop over Python
    floats (IEEE doubles, like numpy's): a window needs only two shifts,
    and per-row numpy calls on so few would cost far more than the
    arithmetic. A vanishing pivot is nudged to a tiny negative value, which
    only perturbs the count at the eigenvalue itself and keeps every
    divisor nonzero.
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    off2 = np.asarray(off, dtype=float) ** 2
    pivmin = max(float(np.max(off2)) if off2.size else 1.0, 1.0) * 1e-290
    d = np.asarray(diag, dtype=float).tolist()
    # row 0 has no off-diagonal term: d_0 - s - 0.0/1.0 is exactly d_0 - s
    e2 = [0.0] + off2.tolist()
    if len(e2) < len(d):
        raise ValueError("off needs len(diag) - 1 entries")
    counts = []
    for s in shifts.ravel().tolist():
        q, below = 1.0, 0
        for d_i, e2_i in zip(d, e2):
            q = d_i - s - e2_i / q
            # a vanishing pivot counts as negative, uniformly at every index,
            # which keeps the count monotone in the shift
            if abs(q) < pivmin:
                q = -pivmin
            below += q < 0
        counts.append(below)
    return np.array(counts, dtype=np.int64).reshape(shifts.shape)


def tridiagonal_eigs_in(diag: np.ndarray, off: np.ndarray, lo: float, hi: float,
                        tol: float = EIG_ABS_TOL) -> np.ndarray:
    """All eigenvalues in [lo, hi], each bisected to absolute accuracy tol.

    Sturm counts fix which eigenvalues lie in the window; LAPACK ?stebz
    bisects exactly those, by index.
    """
    k_lo, k_hi = sturm_count(diag, off, [lo, np.nextafter(hi, np.inf)]).tolist()
    if k_hi <= k_lo:
        return np.empty(0)
    import scipy.linalg  # see the module docstring
    return scipy.linalg.eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(k_lo, k_hi - 1),
        lapack_driver="stebz", tol=tol)


def scaled_zeros(model: CoefficientModel, n: int, x0: float, window: float) -> SpectrumSlice:
    """Zeros of p_n within |n (x - x0)| <= window, rescaled by n around x0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if window <= 0:
        raise ValueError("window must be positive")
    diag, off = truncated_tridiagonal(model, n)
    lo = x0 - window / n
    hi = x0 + window / n
    scaled = n * (tridiagonal_eigs_in(diag, off, lo, hi) - x0)
    # distinct eigenvalues can round to one double, before or after the scaling
    same = np.flatnonzero(np.diff(scaled) <= 0)
    if same.size:
        value = float(scaled[same[0]])
        raise ArithmeticError(f"scaled zeros coincide at {value!r} in floating point "
                              f"(n = {n}, x0 = {x0})")
    return SpectrumSlice(x0=x0, n=n, scaled_zeros=scaled)


def gauss_quadrature(model: CoefficientModel, m: int,
                     n_ctx: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights from the m x m truncation (Golub & Welsch 1969).

    Nodes are the truncation's eigenvalues; weights are squared first
    components of the normalized eigenvectors. The rule integrates
    polynomials of degree < 2m exactly against the orthogonality measure
    (normalized to total mass 1). numpy's eigh solves the dense truncation,
    an O(m^3) solve; its one CLI caller, ``verify kernel-identities``, uses
    m <= 160.
    """
    diag, off = truncated_tridiagonal(model, m, n_ctx)
    w, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return w, v[0, :] ** 2
