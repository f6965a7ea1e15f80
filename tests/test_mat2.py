import math

import numpy as np
import pytest

from cdscale.errors import DetNotOne
from cdscale.mat2 import (IDENTITY, JMAT, Mat2, inverse_unimodular,
                          multiply, operator_norm, operator_norm_array,
                          symmetric_eig_bounds)

DET_MULT_RTOL = 1e-12
INV_ATOL = 1e-10


def rand_unimodular(rng):
    # LDU-style parametrization of SL2: free entries a != 0, b, c
    a = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    b = rng.uniform(-2.0, 2.0)
    c = rng.uniform(-2.0, 2.0)
    return Mat2(a, b, c, (1.0 + b * c) / a)


def max_abs_entry(m):
    return max(abs(m.m11), abs(m.m12), abs(m.m21), abs(m.m22))


def test_multiply_identity():
    assert multiply(IDENTITY, IDENTITY) == IDENTITY


def test_multiply_rotation_squares_to_minus_identity():
    jj = multiply(JMAT, JMAT)
    assert max_abs_entry(jj - -IDENTITY) == 0.0


def test_multiply_shear_pair():
    v = 0.25  # stands in for V/n
    upper = Mat2(1.0, v, 0.0, 1.0)
    lower = Mat2(1.0, 0.0, v, 1.0)
    got = multiply(upper, lower)
    expect = Mat2(1.0 + v * v, v, v, 1.0)
    assert max_abs_entry(got - expect) == 0.0


def test_det_multiplicative_on_random_unimodular():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rand_unimodular(rng)
        b = rand_unimodular(rng)
        prod = multiply(a, b)
        assert abs(prod.det() - a.det() * b.det()) <= DET_MULT_RTOL * abs(prod.det())


def test_inverse_unimodular_examples():
    assert inverse_unimodular(IDENTITY) == IDENTITY
    inv_j = inverse_unimodular(JMAT)
    assert max_abs_entry(inv_j - -JMAT) == 0.0
    # adjugate of the rotation ((0,-1),(1,0)) is ((0,1),(-1,0))
    assert inv_j == Mat2(0.0, 1.0, -1.0, 0.0)


def test_inverse_unimodular_left_inverse():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = rand_unimodular(rng)
        prod = multiply(inverse_unimodular(a), a)
        assert max_abs_entry(prod - IDENTITY) <= INV_ATOL


def test_inverse_unimodular_rejects_wrong_det():
    with pytest.raises(DetNotOne):
        inverse_unimodular(Mat2(2.0, 0.0, 0.0, 1.0))
    with pytest.raises(DetNotOne):  # an overflowed product has a NaN determinant
        inverse_unimodular(Mat2(math.inf, math.inf, 1.0, 1.0))


def test_operator_norm_examples():
    assert operator_norm(IDENTITY) == 1.0
    assert operator_norm(Mat2(3.0, 0.0, 0.0, 0.0)) == 3.0
    summed = Mat2(1.0, 0.0, 0.0, 0.0) + Mat2(0.0, 0.0, 0.0, 1.0)
    assert operator_norm(summed) == 1.0


def test_operator_norm_matches_numpy():
    rng = np.random.default_rng(2)
    for _ in range(100):
        arr = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        got = operator_norm(Mat2.from_array(arr))
        ref = np.linalg.svd(arr, compute_uv=False)[0]
        assert abs(got - ref) <= 1e-12 * ref


def test_operator_norm_submultiplicative_and_column_bound():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = Mat2.from_array(rng.normal(size=(2, 2)))
        b = Mat2.from_array(rng.normal(size=(2, 2)))
        assert operator_norm(multiply(a, b)) <= operator_norm(a) * operator_norm(b) * (1 + 1e-12)
        col = max(math.hypot(abs(a.m11), abs(a.m21)), math.hypot(abs(a.m12), abs(a.m22)))
        assert operator_norm(a) >= col / math.sqrt(2.0) - 1e-12


def test_operator_norm_huge_entries_no_overflow():
    big = Mat2(1e200, 0.0, 0.0, 1e-200)
    assert operator_norm(big) == 1e200


def test_operator_norm_array_matches_scalar():
    rng = np.random.default_rng(4)
    arrs = rng.normal(size=(20, 2, 2)) + 1j * rng.normal(size=(20, 2, 2))
    # entries whose squares overflow, with and without a tiny companion
    arrs = np.concatenate([arrs, [[[1e200, 0.0], [0.0, 1.0]], np.full((2, 2), 1e160)]])
    batch = operator_norm_array(arrs)
    for k in range(len(arrs)):
        assert abs(batch[k] - operator_norm(Mat2.from_array(arrs[k]))) < 1e-13


def test_symmetric_eig_bounds():
    lo, hi = symmetric_eig_bounds(Mat2(2.0, 1.0, 1.0, 2.0))
    assert (lo, hi) == (1.0, 3.0)

