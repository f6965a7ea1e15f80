"""Jacobi coefficient models, polynomial recurrences, and truncated spectra.

A coefficient model supplies the entries (a_j, b_j), j >= 1, of a semi-infinite
symmetric tridiagonal matrix with a_j > 0 on the off-diagonal. The orthonormal
polynomials p_j and the second-kind polynomials q_j both satisfy

    a_j y_j = (x - b_j) y_{j-1} - a_{j-1} y_{j-2},    a_0 = 1,

with initial data (p_{-1}, p_0) = (0, 1) and (q_{-1}, q_0) = (-1/a_0, 0); the
q initialization is the unique one producing q_1 = 1/a_1 and makes the 0-step
transfer matrix exactly the identity.

Zeros of p_n are the eigenvalues of the n x n truncation. Sturm sequences
count the eigenvalues below a shift exactly, which selects the ones in a
window around a point; LAPACK ?stebz bisects those, also by Sturm counts,
without computing the rest of the spectrum.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import IndexOutOfRange, InvalidCoefficient

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
    """

    n_dependent = False

    def coeff(self, j: int, n: int | None = None) -> tuple[float, float]:
        raise NotImplementedError

    def coeff_arrays(self, up_to: int, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (a_1..a_up_to, b_1..b_up_to)."""
        a = np.empty(up_to)
        b = np.empty(up_to)
        for j in range(1, up_to + 1):
            a[j - 1], b[j - 1] = self.coeff(j, n)
        return a, b

    def describe(self) -> dict:
        raise NotImplementedError

    def _validate(self, a: float, b: float, j: int) -> tuple[float, float]:
        if not (a > 0.0) or not math.isfinite(a):
            raise InvalidCoefficient(f"a_{j} = {a!r} must be positive and finite")
        if not math.isfinite(b):
            raise InvalidCoefficient(f"b_{j} = {b!r} must be finite")
        return float(a), float(b)


class ConstantModel(CoefficientModel):
    """a_j = a, b_j = b for all j. ``ConstantModel(1.0, 0.0)`` is the free model."""

    def __init__(self, a: float, b: float):
        self.a, self.b = self._validate(a, b, 1)

    def coeff(self, j, n=None):
        return self.a, self.b

    def coeff_arrays(self, up_to, n=None):
        return np.full(up_to, self.a), np.full(up_to, self.b)

    def describe(self):
        return {"kind": "constant", "a": self.a, "b": self.b}


class PeriodicModel(CoefficientModel):
    """Coefficients repeat with the period of the supplied lists."""

    def __init__(self, a_list, b_list):
        if len(a_list) != len(b_list) or not a_list:
            raise InvalidCoefficient("period lists must be nonempty and equal length")
        pairs = [self._validate(a, b, j + 1) for j, (a, b) in enumerate(zip(a_list, b_list))]
        self.a_list = np.array([p[0] for p in pairs])
        self.b_list = np.array([p[1] for p in pairs])

    def coeff(self, j, n=None):
        k = (j - 1) % len(self.a_list)
        return float(self.a_list[k]), float(self.b_list[k])

    def coeff_arrays(self, up_to, n=None):
        idx = np.arange(up_to) % len(self.a_list)
        return self.a_list[idx], self.b_list[idx]

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
        pairs = [self._validate(a, b, j + 1) for j, (a, b) in enumerate(zip(a_list, b_list))]
        self.a_list = np.array([p[0] for p in pairs])
        self.b_list = np.array([p[1] for p in pairs])
        self.source = source

    def __len__(self):
        return len(self.a_list)

    def coeff(self, j, n=None):
        if j > len(self.a_list):
            raise IndexOutOfRange(f"index {j} beyond table of {len(self.a_list)} rows")
        return float(self.a_list[j - 1]), float(self.b_list[j - 1])

    def coeff_arrays(self, up_to, n=None):
        if up_to > len(self.a_list):
            raise IndexOutOfRange(f"index {up_to} beyond table of {len(self.a_list)} rows")
        return self.a_list[:up_to].copy(), self.b_list[:up_to].copy()

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
                if not a > 0.0:
                    raise InvalidCoefficient(f"{path}: line {lineno}: a = {a} must be positive")
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

    def coeff(self, j, n=None):
        if n is None:
            raise InvalidCoefficient("order context n is required for an n-dependent model")
        return 1.0, ((-1) ** (j + 1)) * self.v / n

    def coeff_arrays(self, up_to, n=None):
        if n is None:
            raise InvalidCoefficient("order context n is required for an n-dependent model")
        j = np.arange(1, up_to + 1)
        b = np.where(j % 2 == 1, self.v / n, -self.v / n)
        return np.ones(up_to), b

    def describe(self):
        return {"kind": "alternating-v", "v": self.v}


class CustomModel(CoefficientModel):
    """Wrap a callable j -> (a_j, b_j), or (n, j) -> (a_j, b_j) if n-dependent."""

    def __init__(self, fn, description: str, n_dependent: bool = False):
        self.fn = fn
        self.description = description
        self.n_dependent = n_dependent

    def coeff(self, j, n=None):
        if self.n_dependent:
            if n is None:
                raise InvalidCoefficient("order context n is required for an n-dependent model")
            a, b = self.fn(n, j)
        else:
            a, b = self.fn(j)
        return self._validate(a, b, j)

    def describe(self):
        return {"kind": "custom", "description": self.description}


def poly_table(model: CoefficientModel, xs, up_to: int,
               n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The recurrence at many points: P[ell, i] = p_ell(xs[i]), Q likewise.

    Shapes are (up_to + 1, len(xs)). The dtype follows xs: real points give
    exactly real values. Complex points are supported; the polynomials are
    entire, so no restriction on the argument applies.
    """
    if up_to < 0:
        raise ValueError("up_to must be nonnegative")
    xs = np.atleast_1d(np.asarray(xs))
    dtype = complex if np.iscomplexobj(xs) else float
    xs = xs.astype(dtype)
    m = xs.shape[0]
    P = np.empty((up_to + 1, m), dtype=dtype)
    Q = np.empty((up_to + 1, m), dtype=dtype)
    P[0] = 1.0
    Q[0] = 0.0
    if up_to == 0:
        return P, Q
    a, b = model.coeff_arrays(up_to, n)
    if np.any(a <= 0) or not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
        bad = int(np.argmax((a <= 0) | ~np.isfinite(a) | ~np.isfinite(b))) + 1
        raise InvalidCoefficient(f"invalid coefficient pair at index {bad}")
    p_prev2 = np.zeros(m, dtype=dtype)
    p_prev1 = P[0].copy()
    q_prev2 = np.full(m, -1.0, dtype=dtype)
    q_prev1 = Q[0].copy()
    a_prev = 1.0
    for ell in range(1, up_to + 1):
        shift = xs - b[ell - 1]
        a_ell = a[ell - 1]
        p = (shift * p_prev1 - a_prev * p_prev2) / a_ell
        q = (shift * q_prev1 - a_prev * q_prev2) / a_ell
        P[ell] = p
        Q[ell] = q
        p_prev2, p_prev1 = p_prev1, p
        q_prev2, q_prev1 = q_prev1, q
        a_prev = a_ell
    return P, Q


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
    Sturm sequence of leading principal minors. Vectorized over shifts; a
    vanishing pivot is nudged to a tiny negative value, which only perturbs
    the count at the eigenvalue itself.
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    off2 = np.asarray(off, dtype=float) ** 2
    pivmin = max(float(np.max(off2)) if off2.size else 1.0, 1.0) * 1e-290
    count = np.zeros(shifts.shape, dtype=np.int64)
    q = np.empty_like(shifts)
    for i in range(len(diag)):
        if i == 0:
            q = diag[0] - shifts
        else:
            q = diag[i] - shifts - off2[i - 1] / q
        # a vanishing pivot counts as negative, uniformly at every index,
        # which keeps the count monotone in the shift
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        count += q < 0
    return count


def tridiagonal_eigs_in(diag: np.ndarray, off: np.ndarray, lo: float, hi: float,
                        tol: float = EIG_ABS_TOL) -> np.ndarray:
    """All eigenvalues in [lo, hi], each bisected to absolute accuracy tol.

    Sturm counts fix which eigenvalues lie in the window; LAPACK ?stebz
    bisects exactly those, by index.
    """
    k_lo = int(sturm_count(diag, off, lo)[0])
    k_hi = int(sturm_count(diag, off, np.nextafter(hi, np.inf))[0])
    if k_hi <= k_lo:
        return np.empty(0)
    return scipy.linalg.eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(k_lo, k_hi - 1),
        lapack_driver="stebz", tol=tol)


def scaled_zeros(model: CoefficientModel, n: int, x0: float, window: float,
                 n_ctx: int | None = None) -> SpectrumSlice:
    """Zeros of p_n within |n (x - x0)| <= window, rescaled by n around x0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if window <= 0:
        raise ValueError("window must be positive")
    diag, off = truncated_tridiagonal(model, n, n_ctx)
    lo = x0 - window / n
    hi = x0 + window / n
    eigs = tridiagonal_eigs_in(diag, off, lo, hi)
    return SpectrumSlice(x0=x0, n=n, scaled_zeros=n * (eigs - x0))


def all_scaled_zeros(model: CoefficientModel, n: int, x0: float = 0.0,
                     n_ctx: int | None = None) -> SpectrumSlice:
    """Every zero of p_n, via a Gershgorin bracket around the full spectrum."""
    diag, off = truncated_tridiagonal(model, n, n_ctx)
    pad = 2.0 * (np.max(np.abs(off)) if off.size else 0.0) + 1.0
    window = n * max(abs(float(np.min(diag) - pad) - x0), abs(float(np.max(diag) + pad) - x0))
    return scaled_zeros(model, n, x0, window, n_ctx)


def gauss_quadrature(model: CoefficientModel, m: int,
                     n_ctx: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights from the m x m truncation.

    Nodes are the truncation's eigenvalues; weights are squared first
    components of the normalized eigenvectors. The rule integrates
    polynomials of degree < 2m exactly against the orthogonality measure
    (normalized to total mass 1).
    """
    diag, off = truncated_tridiagonal(model, m, n_ctx)
    if m == 1:
        return diag.copy(), np.ones(1)
    w, v = scipy.linalg.eigh_tridiagonal(diag, off)
    return w, v[0, :] ** 2
