import ast
import collections
import math
import pathlib

import numpy as np
import pytest

from cdscale.errors import DetNotOne
from cdscale.mat2 import (IDENTITY, Mat2, inverse_unimodular, multiply,
                          operator_norm, symmetric_eig_bounds)

DET_MULT_RTOL = 1e-12
INV_ATOL = 1e-10
ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cdscale"
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def rand_unimodular(rng, size=()):
    # LDU-style parametrization of SL2: free entries a != 0, b, c
    a = rng.uniform(0.5, 2.0, size) * rng.choice([-1.0, 1.0], size)
    b = rng.uniform(-2.0, 2.0, size)
    c = rng.uniform(-2.0, 2.0, size)
    return np.stack([np.stack([a, b], -1), np.stack([c, (1.0 + b * c) / a], -1)], -2)


def det(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def test_multiply_identity():
    assert multiply(IDENTITY, IDENTITY) == IDENTITY


def test_multiply_rotation_squares_to_minus_identity():
    j = Mat2(0.0, -1.0, 1.0, 0.0)
    assert np.array_equal(multiply(j, j), -np.eye(2))


def test_multiply_shear_pair():
    v = 0.25  # stands in for V/n
    upper = Mat2(1.0, v, 0.0, 1.0)
    lower = Mat2(1.0, 0.0, v, 1.0)
    assert upper @ lower == Mat2(1.0 + v * v, v, v, 1.0)


def test_det_multiplicative_on_random_unimodular():
    rng = np.random.default_rng(0)
    a, b = rand_unimodular(rng, 200), rand_unimodular(rng, 200)
    prod = np.array([multiply(Mat2(*x.ravel()), Mat2(*y.ravel())) for x, y in zip(a, b)])
    assert np.all(np.abs(det(prod) - det(a) * det(b)) <= DET_MULT_RTOL * np.abs(det(prod)))


def test_inverse_unimodular_examples():
    assert np.array_equal(inverse_unimodular(IDENTITY), np.eye(2))
    # adjugate of the rotation ((0,-1),(1,0)) is ((0,1),(-1,0))
    assert np.array_equal(inverse_unimodular(ROTATION), -ROTATION)
    stack = np.array([np.eye(2), ROTATION, -np.eye(2)])
    assert np.array_equal(inverse_unimodular(stack), np.array([np.eye(2), -ROTATION, -np.eye(2)]))
    assert inverse_unimodular(np.empty((0, 3, 2, 2))).shape == (0, 3, 2, 2)


def test_inverse_unimodular_left_inverse():
    rng = np.random.default_rng(1)
    a = rand_unimodular(rng, (20, 10))
    prod = inverse_unimodular(a) @ a
    assert np.max(np.abs(prod - np.eye(2))) <= INV_ATOL


def test_inverse_unimodular_rejects_wrong_det():
    with pytest.raises(DetNotOne):
        inverse_unimodular(np.diag([2.0, 1.0]))
    with pytest.raises(DetNotOne):  # an overflowed product has a NaN determinant
        inverse_unimodular(np.array([[math.inf, math.inf], [1.0, 1.0]]))
    with pytest.raises(DetNotOne):
        inverse_unimodular(np.diag([math.inf, 1.0]), tol=math.inf)
    with pytest.raises(DetNotOne):  # a NaN tolerance fails
        inverse_unimodular(np.eye(2), tol=math.nan)


@pytest.mark.parametrize("bad, tol", [
    (np.diag([2.0, 1.0]), 1e-9),
    (np.array([[math.inf, math.inf], [1.0, 1.0]]), 1e-9),
    (np.diag([math.inf, 1.0]), math.inf),
])
def test_inverse_unimodular_names_first_failing_matrix_in_stack(bad, tol):
    stack = np.broadcast_to(np.eye(2), (3, 4, 2, 2)).copy()
    stack[1, 2] = stack[2, 0] = bad
    with pytest.raises(DetNotOne, match=r"at index \(1, 2\)"):
        inverse_unimodular(stack, tol=tol)


def test_inverse_unimodular_tolerance_per_matrix():
    stack = np.array([np.diag([1.0 + 1e-6, 1.0]), np.diag([1.0 + 1e-3, 1.0])])
    inv = inverse_unimodular(stack, tol=np.array([1e-5, 1e-2]))
    assert np.array_equal(inv[:, 1, 1], [1.0 + 1e-6, 1.0 + 1e-3])
    with pytest.raises(DetNotOne, match=r"at index \(1,\) is not 1 within 0\.0001"):
        inverse_unimodular(stack, tol=np.array([1e-5, 1e-4]))
    with pytest.raises(DetNotOne, match=r"at index \(0,\) is not 1 within 1e-07"):
        inverse_unimodular(stack, tol=np.array([1e-7, 1e-4]))


def test_operator_norm_examples():
    assert operator_norm(IDENTITY) == 1.0
    assert operator_norm(np.diag([3.0, 0.0])) == 3.0
    assert operator_norm(np.diag([1.0, 0.0]) + np.diag([0.0, 1.0])) == 1.0
    assert operator_norm(np.zeros((2, 2))) == 0.0
    # an infinite entry gives inf, a NaN entry NaN
    assert operator_norm(np.diag([math.inf, 1.0])) == math.inf
    assert math.isnan(operator_norm(np.diag([math.nan, 1.0])))


def test_operator_norm_matches_numpy():
    rng = np.random.default_rng(2)
    arr = rng.normal(size=(100, 2, 2)) + 1j * rng.normal(size=(100, 2, 2))
    got = operator_norm(arr)
    ref = np.linalg.svd(arr, compute_uv=False)[:, 0]
    assert got.shape == (100,)
    assert np.all(np.abs(got - ref) <= 1e-12 * ref)
    assert operator_norm(arr.reshape(10, 10, 2, 2)).shape == (10, 10)


def test_operator_norm_submultiplicative_and_column_bound():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(100, 2, 2))
    b = rng.normal(size=(100, 2, 2))
    assert np.all(operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) * (1 + 1e-12))
    col = np.max(np.hypot(a[:, 0, :], a[:, 1, :]), axis=-1)
    assert np.all(operator_norm(a) >= col / math.sqrt(2.0) - 1e-12)


def test_operator_norm_huge_entries_no_overflow():
    assert operator_norm(Mat2(1e200, 0.0, 0.0, 1e-200)) == 1e200
    # entries whose squares overflow, with and without a tiny companion, and
    # entries whose squares underflow
    huge = np.array([[[1e200, 0.0], [0.0, 1.0]], np.full((2, 2), 1e160),
                     np.full((2, 2), 1e-170), [[3e-200, 0.0], [0.0, 4e-200]]])
    np.testing.assert_allclose(operator_norm(huge), [1e200, 2e160, 2e-170, 4e-200],
                               rtol=1e-15, atol=0.0)


def test_symmetric_eig_bounds():
    lo, hi = symmetric_eig_bounds(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert (lo, hi) == (1.0, 3.0)
    lo, hi = symmetric_eig_bounds(np.array([np.diag([-1.0, 4.0]), np.eye(2)]))
    assert lo.tolist() == [-1.0, 1.0] and hi.tolist() == [4.0, 1.0]


def identifiers(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        for field in ("id", "attr", "name", "asname", "arg"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                yield value


def test_mat2_named_only_by_the_scalar_reference():
    # (..., 2, 2) arrays are the one matrix form; Mat2 serves one_step and transfer_product
    named = {path.stem: set(identifiers(path)) for path in SRC.glob("*.py")}
    assert {"mat2", "transfer", "cli"} <= named.keys()
    assert sorted(m for m, names in named.items() if "Mat2" in names) == [
        "__init__", "mat2", "transfer"]
    assert [m for m, names in named.items() if "operator_norm_array" in names] == []


def test_every_public_definition_is_reached_outside_tests():
    # a public top-level function or class is named by another module, by its own
    # module beyond its definition, or by bench/; oracles that only tests use
    # belong in tests/references.py. main dispatches the cmd_* handlers by name.
    modules = {path.stem: path for path in SRC.glob("*.py") if path.stem != "__init__"}
    named = {m: collections.Counter(identifiers(path)) for m, path in modules.items()}
    in_bench = {name for path in BENCH.rglob("*.py") for name in identifiers(path)}
    unreached = []
    for module, path in modules.items():
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith(("_", "cmd_"))):
                continue
            if not (named[module][node.name] > 1 or node.name in in_bench
                    or any(node.name in named[m] for m in modules if m != module)):
                unreached.append(f"{module}.{node.name}")
    assert unreached == []
