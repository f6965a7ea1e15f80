"""Christoffel-Darboux kernels in three equivalent forms, plus sine comparison.

The kernel K_n(x, y) = sum_{j<n} p_j(x) p_j(y) (no conjugation; both arguments
may be complex, the kernel is entire in each). Two alternative expressions are
implemented against it:

  * the Christoffel-Darboux quotient a_n (p_n(x) p_{n-1}(y) - p_n(y) p_{n-1}(x)) / (x - y),
  * the determinant form det(Q_n(x) e1, Q_n(y) e1) / (x - y) built from the
    conjugated transfer matrices.

Scaled grids hold K_n(x0 + a/n, x0 + b/n) / n, the object whose n -> infinity
behavior is compared against the sine kernel sin(pi rho (b-a)) / (pi w (b-a)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentArguments
from .jacobi import CoefficientModel, poly_table
from .transfer import q_trajectory_direct

COINCIDENT_REL_TOL = 1e-13


def _check_distinct(x, y):
    close = np.abs(x - y) < COINCIDENT_REL_TOL * np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
    if np.any(close):
        i = int(np.argmax(close))
        xb, yb = np.broadcast_arrays(x, y)
        raise CoincidentArguments(
            f"arguments {xb.flat[i]} and {yb.flat[i]} coincide to working precision")


def _poly_values(model: CoefficientModel, up_to: int, x, y, n_ctx):
    """p_0..p_up_to at x and at y from one recurrence, on a last axis of length up_to + 1."""
    x, y = np.asarray(x), np.asarray(y)
    P, _ = poly_table(model, np.concatenate([x.ravel(), y.ravel()]), up_to, n_ctx)
    return (P[:, :x.size].T.reshape(x.shape + (up_to + 1,)),
            P[:, x.size:].T.reshape(y.shape + (up_to + 1,)))


def kernel_sum(model: CoefficientModel, n: int, x, y,
               n_ctx: int | None = None):
    """K_n(x, y) as the orthonormal-polynomial sum; safe on the diagonal.

    x and y broadcast against each other; scalar arguments give a scalar.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n_ctx is None:
        n_ctx = n
    px, py = _poly_values(model, n - 1, x, y, n_ctx)
    return np.sum(px * py, axis=-1)[()]


def kernel_cd(model: CoefficientModel, n: int, x, y,
              n_ctx: int | None = None):
    """K_n(x, y) by the Christoffel-Darboux quotient; x and y must be distinct.

    x and y broadcast against each other; scalar arguments give a scalar.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n_ctx is None:
        n_ctx = n
    x, y = np.asarray(x), np.asarray(y)
    _check_distinct(x, y)
    px, py = _poly_values(model, n, x, y, n_ctx)
    a_n, _ = model.coeff(n, n_ctx)
    return (a_n * (px[..., n] * py[..., n - 1] - py[..., n] * px[..., n - 1]) / (x - y))[()]


def kernel_det_q(qa, qb, a, b):
    """Scaled kernel K_n(x0 + a/n, x0 + b/n) / n from conjugated transfer matrices.

    qa and qb hold Q_n(x0 + a/n) and Q_n(x0 + b/n) over the same model, order
    and base point, shape (..., 2, 2); the value is det(Q_n(a) e1, Q_n(b) e1)
    / (a - b). Everything broadcasts over pairs; scalar offsets give a scalar.
    """
    a, b = np.asarray(a), np.asarray(b)
    _check_distinct(a, b)
    qa, qb = np.asarray(qa), np.asarray(qb)
    det = qa[..., 0, 0] * qb[..., 1, 0] - qb[..., 0, 0] * qa[..., 1, 0]
    return (det / (a - b))[()]


def sine_kernel(a, b, rho: float, w: float):
    """sin(pi rho (b - a)) / (pi w (b - a)) with the entire value rho/w at a = b."""
    xi = rho * (np.asarray(b) - np.asarray(a))
    return (rho / w) * np.sinc(xi)


@dataclass(frozen=True)
class KernelGrid:
    """Scaled kernel values K_n(x0 + a/n, x0 + b/n) / n on a product grid."""

    x0: float
    n: int
    a_values: np.ndarray
    b_values: np.ndarray
    values: np.ndarray  # shape (len(a_values), len(b_values))

    def is_real(self) -> bool:
        return (not np.iscomplexobj(self.a_values)
                and not np.iscomplexobj(self.b_values))

    def to_csv(self, path) -> None:
        """Rows (a, b, re, im), a-major, shortest round-trip decimals."""
        with open(path, "w", newline="") as fh:
            fh.write("a,b,re,im\n")
            for i, a in enumerate(np.atleast_1d(self.a_values)):
                for j, b in enumerate(np.atleast_1d(self.b_values)):
                    v = complex(self.values[i, j])
                    fh.write(f"{_num(a)},{_num(b)},{v.real!r},{v.imag!r}\n")

    def manifest_dict(self, model_spec: dict, reference: str | None = None,
                      sup_error: float | None = None) -> dict:
        d = {
            "model": model_spec,
            "n": self.n,
            "x0": self.x0,
            "grid": {
                "a": [_num_json(v) for v in np.atleast_1d(self.a_values)],
                "b": [_num_json(v) for v in np.atleast_1d(self.b_values)],
            },
        }
        if reference is not None:
            d["reference"] = reference
            d["sup_error"] = sup_error
        return d

    def save_manifest(self, path, model_spec: dict, reference=None, sup_error=None):
        with open(path, "w") as fh:
            json.dump(self.manifest_dict(model_spec, reference, sup_error),
                      fh, indent=2, sort_keys=True)
            fh.write("\n")


def _num(v) -> str:
    v = complex(v)
    return repr(v.real) if v.imag == 0 else f"{v.real!r}{v.imag:+.17g}j"


def _num_json(v):
    v = complex(v)
    return v.real if v.imag == 0 else [v.real, v.imag]


def scaled_grid(model: CoefficientModel, n: int, x0: float, a_values, b_values,
                n_ctx: int | None = None, verify: bool = True) -> KernelGrid:
    """Fill a KernelGrid through the diagonal-safe sum form.

    With ``verify`` the first well-separated off-diagonal cell is re-derived
    through the determinant form and must agree to 1e-6 relative; this wires
    the polynomial and transfer-matrix pipelines together on every grid.
    """
    a_arr = np.atleast_1d(np.asarray(a_values))
    b_arr = np.atleast_1d(np.asarray(b_values))
    if a_arr.size == 0 or b_arr.size == 0:
        raise ValueError("grids must be nonempty")
    if n_ctx is None:
        n_ctx = n
    Pa, _ = poly_table(model, x0 + a_arr / n, n - 1, n_ctx)
    Pb, _ = poly_table(model, x0 + b_arr / n, n - 1, n_ctx)
    values = (Pa.T @ Pb) / n
    if not np.all(np.isfinite(values)):
        raise ArithmeticError(f"kernel grid at x0 = {x0}, n = {n} overflows off the bulk")
    grid = KernelGrid(x0=float(x0), n=n, a_values=a_arr, b_values=b_arr, values=values)
    pair = _first_separated_pair(a_arr, b_arr) if verify else None
    if pair is not None:
        i, j = pair
        a, b = complex(a_arr[i]), complex(b_arr[j])
        qa, qb = q_trajectory_direct(model, n, x0, [a, b], [1.0])[0]
        ref = complex(kernel_det_q(qa, qb, a, b))
        got = complex(values[i, j])
        if abs(got - ref) > 1e-6 * max(1.0, abs(ref)):
            raise ArithmeticError(
                f"kernel grid cell ({a}, {b}) = {got} disagrees with the "
                f"determinant form {ref}")
    return grid


def _first_separated_pair(a_arr, b_arr):
    for i, a in enumerate(a_arr):
        for j, b in enumerate(b_arr):
            if abs(a - b) > 1e-3 * max(1.0, abs(a), abs(b)):
                return i, j
    return None


def sine_compare(grid: KernelGrid, rho: float, w: float) -> float:
    """Sup distance of a real grid to the sine kernel with parameters (rho, w)."""
    if rho <= 0 or w <= 0:
        raise ValueError("rho and w must be positive")
    if not grid.is_real():
        raise ValueError("sine comparison requires real grids")
    ref = sine_kernel(grid.a_values[:, None], grid.b_values[None, :], rho, w)
    return float(np.max(np.abs(grid.values - ref)))
