"""Built-in models with closed forms: free Jacobi and the alternating-sign family.

The alternating-sign family has a_j = 1 and b_j = (-1)^(j+1) V/n, a diagonal
perturbation of strength O(1/n). At the spectral point 0 its transfer-matrix
products telescope into powers of a single two-step factor, which this module
diagonalizes explicitly. The resulting scaling limit is the cosh/sinh
canonical system, and the limiting scaled kernel has a closed form in
omega^2 = V^2 - x^2 built from even entire functions, so no square-root
branch is ever selected.

Two variants of that closed form are provided, differing by a factor
1/(a - b); which one is the actual kernel limit is decided by the numerical
cross-pipeline check, not assumed (``divided`` wins, and reduces to
sin((a-b)/2)/(a-b) at V = 0).
"""

from __future__ import annotations

import math

import numpy as np

from .canonical import _generator
from .jacobi import (AlternatingSignModel, CoefficientModel, ConstantModel,
                     PeriodicModel, TableModel)
from .limits import BulkPointData
from .mat2 import operator_norm
from .transfer import h_sequence

ENTIRE_SERIES_RADIUS = 1.0
_SERIES_TERMS = 24


def free_model() -> ConstantModel:
    """The free Jacobi matrix: a_j = 1, b_j = 0."""
    return ConstantModel(1.0, 0.0)


def free_bulk_data(x0: float = 0.0) -> BulkPointData:
    """Exact bulk data of the free model at a point inside (-2, 2).

    The spectral measure has density sqrt(4 - x^2)/(2 pi), the zeros
    equidistribute with density 1/(pi sqrt(4 - x^2)), and the boundary
    Stieltjes transform is (-x + i sqrt(4 - x^2))/2.
    """
    if not -2.0 < x0 < 2.0:
        raise ValueError("bulk points of the free model lie in (-2, 2)")
    s = math.sqrt(4.0 - x0 * x0)
    return BulkPointData(
        x0=x0, w=s / (2.0 * math.pi), rho=1.0 / (math.pi * s), reF=-x0 / 2.0)


def alternating_model(v: float) -> AlternatingSignModel:
    return AlternatingSignModel(v)


def lambda_pm(v: float, n: int) -> tuple[float, float]:
    """Eigenvalues of the two-step factor; their product is exactly 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vn = v / n
    root = math.sqrt(1.0 + 0.25 * vn * vn)
    lam_plus = 1.0 + 0.5 * vn * vn + vn * root
    lam_minus = 1.0 + 0.5 * vn * vn - vn * root
    return lam_plus, lam_minus


def u_matrix(v: float, n: int) -> np.ndarray:
    """Eigenvector matrix of the two-step factor, columns for (lambda-, lambda+)."""
    vn = v / n
    root = math.sqrt(1.0 + 0.25 * vn * vn)
    return np.array([[1.0, 1.0], [-root - 0.5 * vn, root - 0.5 * vn]])


def qhat_closed(v: float, n: int, ell) -> np.ndarray:
    """Conjugated transfer product at spectral point 0, in closed form.

    Even step counts are pure powers of the two-step factor, diagonalized
    through the eigenvector matrix; odd step counts carry one extra lower
    shear on the left. ``ell`` may be an array of step counts; the result
    has shape ell.shape + (2, 2).
    """
    ell = np.asarray(ell)
    if not np.all((0 <= ell) & (ell <= n)):
        raise ValueError("need 0 <= ell <= n")
    vn = v / n
    lam_plus, lam_minus = lambda_pm(v, n)
    u = u_matrix(v, n)
    k = ell // 2
    # u diag(lambda-^k, lambda+^k) u^{-1}, the diagonal scaling the columns of u
    core = (u * np.stack([lam_minus ** k, lam_plus ** k], axis=-1)[..., None, :]) @ np.linalg.inv(u)
    odd = (ell % 2 == 1)[..., None, None]
    return np.where(odd, np.array([[1.0, 0.0], [vn, 1.0]]) @ core, core)


def alternating_coefficient_matrices(v: float, n: int) -> np.ndarray:
    """Exact diagonalized-frame coefficients A_0..A_{n-1}, shape (n, 2, 2).

    Computed as -U_n^{-1} J^{-1} H_ell U_n from the model's own polynomial
    values at 0, so the odd-step remainder beyond the leading closed form is
    carried exactly rather than modeled.
    """
    g = _generator(h_sequence(alternating_model(v), 0.0, n - 1, n).entry_arrays())
    u = u_matrix(v, n)
    uinv = np.linalg.inv(u)
    return -np.einsum("ij,ljk,km->lim", uinv, g, u)


def alternating_coefficient_deviation(v: float, n: int) -> float:
    """sup_t || int_0^t (A^(n)(s) - A(s)) ds || for the diagonalized frame."""
    mats = alternating_coefficient_matrices(v, n)
    partials = np.zeros((n + 1, 2, 2))
    np.cumsum(mats, axis=0, out=partials[1:])
    # int_0^t of the limit coefficient ((0, -e^{sV}/2), (e^{-sV}/2, 0)) at t = m/n over
    # Python floats, as tests/references.py's limit_coefficient_integral; math.exp,
    # because np.exp can differ from it in the last bit
    ts = [m / n for m in range(n + 1)]
    targets = np.zeros((n + 1, 2, 2))
    if v == 0.0:
        targets[:, 0, 1] = [-0.5 * t for t in ts]
        targets[:, 1, 0] = [0.5 * t for t in ts]
    else:
        targets[:, 0, 1] = [-(math.exp(t * v) - 1.0) / (2.0 * v) for t in ts]
        targets[:, 1, 0] = [(1.0 - math.exp(-t * v)) / (2.0 * v) for t in ts]
    return float(np.max(operator_norm(partials / n - targets)))


# Even entire helpers in w2 = omega^2; any square root below is taken of an
# argument whose sign/branch cannot affect the value.

def _cosh_half(w2: np.ndarray) -> np.ndarray:
    s = np.sqrt(w2.astype(complex))
    return np.cosh(0.5 * s)


def _sinh_half_over(w2: np.ndarray) -> np.ndarray:
    """sinh(omega/2)/omega as an entire function of omega^2."""
    w2 = w2.astype(complex)
    small = np.abs(w2) < ENTIRE_SERIES_RADIUS
    out = np.empty_like(w2)
    if np.any(~small):
        s = np.sqrt(w2[~small])
        out[~small] = np.sinh(0.5 * s) / s
    if np.any(small):
        acc = np.zeros_like(w2[small])
        for k in reversed(range(_SERIES_TERMS)):
            c = 1.0 / (2.0 * 4.0 ** k * math.factorial(2 * k + 1))
            acc = acc * w2[small] + c
        out[small] = acc
    return out


def _entire_d(w2: np.ndarray) -> np.ndarray:
    """(sinh(omega/2)/omega - cosh(omega/2)/2) / omega^2, entire in omega^2."""
    w2 = w2.astype(complex)
    small = np.abs(w2) < ENTIRE_SERIES_RADIUS
    out = np.empty_like(w2)
    if np.any(~small):
        w = w2[~small]
        out[~small] = (_sinh_half_over(w) - 0.5 * _cosh_half(w)) / w
    if np.any(small):
        acc = np.zeros_like(w2[small])
        for k in reversed(range(1, _SERIES_TERMS + 1)):
            c = -(2.0 * k / (2.0 * k + 1.0)) / (2.0 * 4.0 ** k * math.factorial(2 * k))
            acc = acc * w2[small] + c
        out[small] = acc
    return out


def modified_sine_kernel(v: float, a, b):
    """Scaling limit of the alternating-sign kernel (the divided variant).

    Off the diagonal:
        [(a - V) S(a) C(b) + (V - b) S(b) C(a)] / (a - b)
    with S(x) = sinh(omega_x/2)/omega_x and C(x) = cosh(omega_x/2) expressed
    in omega_x^2 = V^2 - x^2. Coincident points use the analytic confluent
    value S C + (a - V)(a D C + a S^2 / 2), D = (S - C/2)/omega^2.
    At V = 0 the whole expression collapses to sin((a-b)/2)/(a-b).
    """
    a_arr = np.atleast_1d(np.asarray(a, dtype=complex))
    b_arr = np.atleast_1d(np.asarray(b, dtype=complex))
    a_b, b_b = np.broadcast_arrays(a_arr, b_arr)
    raw = raw_limit_formula(v, a_arr, b_arr)
    diff = a_b - b_b
    coincident = np.abs(diff) < 1e-12 * np.maximum(1.0, np.maximum(np.abs(a_b), np.abs(b_b)))
    out = np.divide(raw, diff, out=np.zeros_like(raw), where=~coincident)
    if np.any(coincident):
        am = a_b[coincident]
        wm = v * v - am * am
        s, c, d = _sinh_half_over(wm), _cosh_half(wm), _entire_d(wm)
        out[coincident] = s * c + (am - v) * (am * d * c + 0.5 * am * s * s)
    if np.isscalar(a) and np.isscalar(b):
        return complex(out.reshape(-1)[0])
    return out


def raw_limit_formula(v: float, a, b):
    """The undivided closed form; kept to let the numerics arbitrate variants."""
    a_c = np.asarray(a, dtype=complex)
    b_c = np.asarray(b, dtype=complex)
    wa = v * v - a_c * a_c
    wb = v * v - b_c * b_c
    sa, ca = _sinh_half_over(np.atleast_1d(wa)), _cosh_half(np.atleast_1d(wa))
    sb, cb = _sinh_half_over(np.atleast_1d(wb)), _cosh_half(np.atleast_1d(wb))
    raw = (np.atleast_1d(a_c) - v) * sa * cb + (v - np.atleast_1d(b_c)) * sb * ca
    if np.isscalar(a) and np.isscalar(b):
        return complex(raw.reshape(-1)[0])
    return raw


MODEL_NAMES = ("free", "alternating-v", "periodic", "table")


def make_model(name: str, v: float | None = None, period_a=None, period_b=None,
               table_path=None) -> CoefficientModel:
    """Instantiate a catalog model by name (the CLI entry point into models)."""
    if name == "free":
        return free_model()
    if name == "alternating-v":
        if v is None:
            raise ValueError("alternating-v requires the coupling --v")
        return alternating_model(v)
    if name == "periodic":
        if not period_a or not period_b:
            raise ValueError("periodic requires --period-a and --period-b lists")
        return PeriodicModel(period_a, period_b)
    if name == "table":
        if table_path is None:
            raise ValueError("table requires --table PATH")
        return TableModel.from_csv(table_path)
    raise ValueError(f"unknown model {name!r}; known: {', '.join(MODEL_NAMES)}")
