"""Closed-form linear algebra on stacks of 2x2 complex matrices.

Every quantity propagated by this package (transfer matrices, canonical-system
solutions, Hamiltonian values) is a 2x2 matrix over complex doubles, held as a
numpy array of shape (..., 2, 2). The functions here act on a whole stack at
once by explicit formulas: no pivoting, no iteration. Mat2 is one matrix as
four scalars, for the one-step factors of transfer.one_step and the scalar
reference product transfer.transfer_product; it converts to an array
wherever one is expected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DetNotOne

DET_ONE_TOL = 1e-9


@dataclass(frozen=True)
class Mat2:
    """Dense 2x2 matrix ((m11, m12), (m21, m22)) over complex scalars."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1.0, 0.0, 0.0, 1.0)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return multiply(self, other)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]], dtype=dtype)


IDENTITY = Mat2.identity()


def multiply(a: Mat2, b: Mat2) -> Mat2:
    """Standard matrix product a @ b."""
    return Mat2(
        a.m11 * b.m11 + a.m12 * b.m21,
        a.m11 * b.m12 + a.m12 * b.m22,
        a.m21 * b.m11 + a.m22 * b.m21,
        a.m21 * b.m12 + a.m22 * b.m22,
    )


def inverse_unimodular(m, tol=DET_ONE_TOL) -> np.ndarray:
    """Invert a stack of determinant-one matrices (shape (..., 2, 2)) by their adjugates.

    Raises DetNotOne, naming the index of the first matrix in the stack with
    |det - 1| > tol; ``tol`` broadcasts against the stack shape, so each
    matrix may have its own. A failed check is the canonical symptom of a
    broken transfer-matrix pipeline, so it is not silently renormalized.
    """
    m = np.asarray(m)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite det is named below
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        # a NaN determinant or tolerance fails too, and an infinite determinant
        # fails even the infinite tolerance that a norm-relative one can reach
        ok = (np.abs(det - 1.0) <= tol) & np.isfinite(det)
    if not ok.all():
        k = np.unravel_index(np.argmin(ok), ok.shape)
        at = f" at index {tuple(map(int, k))}" if k else ""
        raise DetNotOne(f"determinant {det[k]}{at} is not 1 within "
                        f"{np.broadcast_to(tol, ok.shape)[k]:g}")
    inv = np.empty_like(m)
    inv[..., 0, 0], inv[..., 0, 1] = m[..., 1, 1], -m[..., 0, 1]
    inv[..., 1, 0], inv[..., 1, 1] = -m[..., 1, 0], m[..., 0, 0]
    return inv


def operator_norm(m) -> np.ndarray:
    """Spectral norms (largest singular values) of a stack of 2x2 matrices (shape (..., 2, 2)).

    The squared singular values are the roots of x^2 - t x + |det|^2 with
    t the squared Frobenius norm, so each norm is available in closed form.
    Each matrix is scaled first by the power of two at its largest entry
    modulus, so the formula does not overflow even for exponentially large
    transfer products; that scaling is exact. A matrix with a non-finite
    entry gets its largest entry modulus (inf, or NaN if an entry is NaN).
    """
    m = np.asarray(m)
    big = np.max(np.abs(m), axis=(-2, -1))
    finite = np.isfinite(big)
    _, exponent = np.frexp(np.where(finite, big, 0.0))
    scale = np.ldexp(1.0, exponent)
    m = np.where(finite[..., None, None], m, 0.0) * np.ldexp(1.0, -exponent)[..., None, None]
    t = (np.abs(m[..., 0, 0]) ** 2 + np.abs(m[..., 0, 1]) ** 2
         + np.abs(m[..., 1, 0]) ** 2 + np.abs(m[..., 1, 1]) ** 2)
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    disc = np.maximum(t * t - 4.0 * np.abs(det) ** 2, 0.0)
    return np.where(finite, scale * np.sqrt(0.5 * (t + np.sqrt(disc))), big)[()]


def symmetric_eig_bounds(m) -> tuple:
    """(min, max) eigenvalues of real symmetric 2x2 matrices (shape (..., 2, 2))."""
    m = np.real(m)
    mid = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    rad = np.hypot(0.5 * (m[..., 0, 0] - m[..., 1, 1]), m[..., 0, 1])
    return mid - rad, mid + rad
