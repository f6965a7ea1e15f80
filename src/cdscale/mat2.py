"""Closed-form 2x2 complex linear algebra.

Every quantity propagated by this package (transfer matrices, canonical-system
solutions, Hamiltonian values) is a 2x2 matrix over complex doubles, so all
operations here are explicit formulas: no pivoting, no iteration. Values are
immutable and safe to share across threads.
"""

from __future__ import annotations

import math
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

    @staticmethod
    def from_array(arr) -> "Mat2":
        a = np.asarray(arr)
        return Mat2(a[0, 0], a[0, 1], a[1, 0], a[1, 1])

    def to_array(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]], dtype=complex)

    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return multiply(self, other)

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.m11 + other.m11, self.m12 + other.m12,
                    self.m21 + other.m21, self.m22 + other.m22)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.m11 - other.m11, self.m12 - other.m12,
                    self.m21 - other.m21, self.m22 - other.m22)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.m11, -self.m12, -self.m21, -self.m22)


IDENTITY = Mat2.identity()

# Rotation by pi/2; the symplectic form of every canonical system here.
JMAT = Mat2(0.0, -1.0, 1.0, 0.0)


def multiply(a: Mat2, b: Mat2) -> Mat2:
    """Standard matrix product a @ b."""
    return Mat2(
        a.m11 * b.m11 + a.m12 * b.m21,
        a.m11 * b.m12 + a.m12 * b.m22,
        a.m21 * b.m11 + a.m22 * b.m21,
        a.m21 * b.m12 + a.m22 * b.m22,
    )


def inverse_unimodular(a: Mat2, tol: float = DET_ONE_TOL) -> Mat2:
    """Invert a determinant-one matrix by its adjugate.

    Raises DetNotOne if |det a - 1| > tol; a failed check is the canonical
    symptom of a broken transfer-matrix pipeline, so it is not silently
    renormalized.
    """
    d = a.det()
    if not abs(d - 1.0) <= tol:  # a NaN determinant or tolerance fails too
        raise DetNotOne(f"determinant {d} is not 1 within {tol:g}")
    return Mat2(a.m22, -a.m12, -a.m21, a.m11)


def operator_norm(a: Mat2) -> float:
    """Spectral norm (largest singular value), from the 2x2 Gram matrix.

    The squared singular values are the roots of x^2 - t x + |det|^2 with
    t the squared Frobenius norm, so the norm is available in closed form.
    Entries are rescaled by their largest magnitude first, so the formula
    does not overflow even for exponentially large transfer products.
    """
    m = max(abs(a.m11), abs(a.m12), abs(a.m21), abs(a.m22))
    if m == 0.0 or not math.isfinite(m):
        return m
    s = 1.0 / m
    b11, b12, b21, b22 = s * a.m11, s * a.m12, s * a.m21, s * a.m22
    t = abs(b11) ** 2 + abs(b12) ** 2 + abs(b21) ** 2 + abs(b22) ** 2
    d2 = abs(b11 * b22 - b12 * b21) ** 2
    disc = t * t - 4.0 * d2
    if disc < 0.0:  # roundoff only; singular values coincide
        disc = 0.0
    return m * math.sqrt(0.5 * (t + math.sqrt(disc)))


def operator_norm_array(m: np.ndarray) -> np.ndarray:
    """Spectral norms of a batch of 2x2 matrices (shape (..., 2, 2)).

    The closed form of operator_norm on each matrix scaled by the power of
    two at its largest entry modulus; that scaling is exact, so no result
    changes where the unscaled formula neither overflows nor underflows.
    """
    m = np.asarray(m)
    _, exponent = np.frexp(np.max(np.abs(m), axis=(-2, -1)))
    scale = np.ldexp(1.0, exponent)
    m = m * np.ldexp(1.0, -exponent)[..., None, None]
    t = (np.abs(m[..., 0, 0]) ** 2 + np.abs(m[..., 0, 1]) ** 2
         + np.abs(m[..., 1, 0]) ** 2 + np.abs(m[..., 1, 1]) ** 2)
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    disc = np.maximum(t * t - 4.0 * np.abs(det) ** 2, 0.0)
    return scale * np.sqrt(0.5 * (t + np.sqrt(disc)))


def symmetric_eig_bounds(m: Mat2) -> tuple[float, float]:
    """(min, max) eigenvalue of a real symmetric 2x2 matrix."""
    alpha = float(np.real(m.m11))
    gamma = float(np.real(m.m22))
    beta = float(np.real(m.m12))
    mid = 0.5 * (alpha + gamma)
    rad = math.hypot(0.5 * (alpha - gamma), beta)
    return mid - rad, mid + rad
