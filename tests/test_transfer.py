import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdscale.errors import ConditioningWarning
from cdscale.jacobi import ConstantModel, PeriodicModel, TableModel
from cdscale.mat2 import IDENTITY, Mat2, inverse_unimodular, operator_norm
from cdscale.transfer import (h_sequence, one_step, q_snapshots,
                              q_trajectory_direct, transfer_from_polys,
                              transfer_matrices, transfer_product)

FREE = ConstantModel(1.0, 0.0)
COLUMN_RTOL = 1e-9
Q_AGREE_ATOL = 1e-8
DET_ATOL = 1e-8


def bulk_models():
    """Bounded-perturbation models with 0 inside the spectrum."""
    rng = np.random.default_rng(21)
    out = [FREE, PeriodicModel([1.0, 1.05], [0.2, 0.2])]
    for seed in range(3):
        j = np.arange(1, 2001)
        a = 1.0 + 0.4 * rng.uniform(-1, 1, 2000) / j
        b = 0.4 * rng.uniform(-1, 1, 2000) / j
        out.append(TableModel(a, b))
    return out


def max_entry(m: Mat2) -> float:
    return max(abs(m.m11), abs(m.m12), abs(m.m21), abs(m.m22))


def test_one_step_free_at_zero():
    s = one_step(FREE, 1, 0.0)
    assert s == Mat2(0.0, -1.0, 1.0, 0.0)


def test_one_step_general_entries():
    s = one_step(ConstantModel(2.0, 1.0), 3, 1.0)
    assert s == Mat2(0.0, -0.5, 2.0, 0.0)


def test_one_step_always_unimodular():
    rng = np.random.default_rng(22)
    model = TableModel(rng.uniform(0.5, 2.0, 50), rng.uniform(-1, 1, 50))
    for ell in range(1, 51):
        x = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        assert abs(one_step(model, ell, x).det() - 1.0) < 1e-15


def test_transfer_product_period_four_pattern():
    expected = {
        1: Mat2(0.0, -1.0, 1.0, 0.0),
        2: Mat2(-1.0, 0.0, 0.0, -1.0),
        3: Mat2(0.0, 1.0, -1.0, 0.0),
        4: IDENTITY,
    }
    for ell in range(1, 9):
        T = transfer_product(FREE, ell, 0.0)
        ref = expected[(ell - 1) % 4 + 1]
        assert max_entry(T - ref) == 0.0


def test_transfer_product_matches_column_form():
    rng = np.random.default_rng(23)
    for model in bulk_models():
        for _ in range(3):
            ell = int(rng.integers(1, 200))
            x = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            prod = transfer_product(model, ell, x)
            cols = transfer_from_polys(model, ell, x)
            scale = max(1.0, max_entry(cols))
            assert max_entry(prod - cols) <= COLUMN_RTOL * scale


def test_transfer_det_one_long_product():
    T = transfer_product(FREE, 0, 0.3)
    for ell in range(1, 2001):
        T = one_step(FREE, ell, 0.3) @ T
        assert abs(T.det() - 1.0) <= DET_ATOL


@pytest.mark.filterwarnings("ignore::cdscale.errors.ConditioningWarning")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(coeffs=st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(-1.0, 1.0)),
                       min_size=1, max_size=40),
       points=st.lists(st.complex_numbers(max_magnitude=3.0), min_size=1, max_size=4),
       data=st.data())
def test_transfer_matrices_match_scalar_product_and_column_form(coeffs, points, data):
    a, b = zip(*coeffs)
    model = TableModel(a, b)
    ells = sorted(data.draw(st.lists(st.integers(0, len(a)), min_size=1, max_size=5)))
    T = transfer_matrices(model, points, ells)
    assert T.shape == (len(ells), len(points), 2, 2)
    for k, ell in enumerate(ells):
        for i, x in enumerate(points):
            scale = max(1.0, float(np.max(np.abs(T[k, i]))))
            for ref in (transfer_product(model, ell, x), transfer_from_polys(model, ell, x)):
                assert np.max(np.abs(T[k, i] - ref.to_array())) <= COLUMN_RTOL * scale
            det = T[k, i, 0, 0] * T[k, i, 1, 1] - T[k, i, 0, 1] * T[k, i, 1, 0]
            assert abs(det - 1.0) <= DET_ATOL * scale ** 2


def test_h_sequence_free_entries():
    seq = h_sequence(FREE, 0.0, 6)
    hs = seq.entry_arrays()
    assert np.array_equal(hs[0], [[1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(hs[1], [[0.0, 0.0], [0.0, 1.0]])
    for ell in range(7):
        h = hs[ell]
        assert abs(h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]) <= 1e-12  # rank one
        assert h[0, 1] == h[1, 0]
        assert h[0, 0] + h[1, 1] == seq.ps[ell] ** 2 + seq.qs[ell] ** 2


def test_h_sequence_psd():
    rng = np.random.default_rng(24)
    model = TableModel(rng.uniform(0.7, 1.4, 100), rng.uniform(-0.5, 0.5, 100))
    seq = h_sequence(model, 0.3, 100)
    h = seq.entry_arrays()
    # rank-one outer products: nonnegative diagonal, det zero
    assert np.all(h[:, 0, 0] >= 0)
    assert np.all(h[:, 1, 1] >= 0)
    np.testing.assert_allclose(h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] ** 2, 0.0, atol=1e-12)


def test_q_trajectory_zero_offset_is_identity():
    for model in (FREE, PeriodicModel([1.0, 1.05], [0.2, 0.2])):
        for q in q_trajectory_direct(model, 50, 0.1, [0.0], [0.0, 0.4, 1.0])[:, 0]:
            assert np.max(np.abs(q - np.eye(2))) <= 1e-12


def test_q_trajectory_time_zero_is_identity():
    q = q_trajectory_direct(FREE, 17, 0.0, [2.0 + 1.0j], [0.0])[0, 0]
    assert np.array_equal(q, np.eye(2))


def test_q_single_step_closed_form():
    # one step of the difference equation from H_0 = ((1,0),(0,0))
    a = 0.8 + 0.3j
    direct = Mat2.from_array(q_trajectory_direct(FREE, 1, 0.0, [a], [1.0])[0, 0])
    recursive = Mat2.from_array(q_snapshots(h_sequence(FREE, 0.0, 1), 1, [a], [1.0])[0, 0])
    expect = Mat2(1.0, 0.0, -a, 1.0)
    assert max_entry(direct - expect) <= 1e-12
    assert max_entry(recursive - expect) <= 1e-12


def test_q_direct_equals_recursive():
    rng = np.random.default_rng(25)
    tgrid = np.linspace(0.0, 1.0, 7)
    for model in bulk_models():
        n = int(rng.integers(50, 400))
        seq = h_sequence(model, 0.0, n)
        for _ in range(2):
            a = complex(rng.uniform(-4, 4), rng.uniform(-1, 1))
            qd = q_trajectory_direct(model, n, 0.0, [a], tgrid)[:, 0]
            qr = q_snapshots(seq, n, [a], tgrid)[:, 0]
            for m1, m2 in zip(qd, qr):
                assert operator_norm(Mat2.from_array(m1 - m2)) <= Q_AGREE_ATOL


def test_q_det_one_along_trajectory():
    seq = h_sequence(FREE, 0.0, 1000)
    qs = q_snapshots(seq, 1000, [3.0 - 0.5j], np.linspace(0, 1, 11))[:, 0]
    for q in qs:
        assert abs(Mat2.from_array(q).det() - 1.0) <= 1e-8


def test_one_step_conjugation_identity():
    models = bulk_models()
    rng = np.random.default_rng(26)
    for model in models:
        for _ in range(5):
            ell = int(rng.integers(1, 100))
            x0 = rng.uniform(-0.3, 0.3)
            x = x0 + rng.uniform(-1, 1)
            got = inverse_unimodular(one_step(model, ell, x0)) @ one_step(model, ell, x)
            expect = Mat2(1.0, 0.0, x0 - x, 1.0)
            assert max_entry(got - expect) <= 1e-12 * max(1.0, abs(x0 - x))


def test_rotation_limit_free_model():
    # constant-coefficient limit with H = Id/2: rotation by a t / 2
    n = 4000
    seq = h_sequence(FREE, 0.0, n)
    a = 1.0
    ts = [0.25, 0.5, 1.0]
    qs = q_snapshots(seq, n, [a], ts)[:, 0]
    for t, q in zip(ts, qs):
        c, s = np.cos(a * t / 2), np.sin(a * t / 2)
        assert operator_norm(Mat2.from_array(q) - Mat2(c, s, -s, c)) <= 1e-2


def test_direct_mode_warns_off_bulk():
    with pytest.warns(ConditioningWarning):
        q_trajectory_direct(FREE, 300, 3.0, [1.0], [1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q_trajectory_direct(FREE, 300, 0.0, [1.0], [1.0])  # bulk: no warning


def test_t_grid_validation():
    with pytest.raises(ValueError):
        q_trajectory_direct(FREE, 10, 0.0, [1.0], [0.5, 0.2])
    with pytest.raises(ValueError):
        q_trajectory_direct(FREE, 10, 0.0, [1.0], [1.5])
