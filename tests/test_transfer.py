import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdscale.errors import ConditioningWarning
from cdscale.jacobi import ConstantModel, PeriodicModel, TableModel, poly_table
from cdscale.mat2 import Mat2, inverse_unimodular, operator_norm
from cdscale.transfer import (discrete_to_jacobi, h_sequence, one_step, polys_from_h,
                              q_snapshots, q_trajectory_direct, transfer_matrices,
                              transfer_product)
from references import poly_table_loop, q_snapshots_loop, transfer_from_polys

FREE = ConstantModel(1.0, 0.0)
COLUMN_RTOL = 1e-9
SCAN_RTOL = 1e-12
# lengths around the block edges of the scan (blocks of isqrt(L) steps)
SCAN_LENGTHS = [0, 1, 2, 3, 15, 16, 17, 997, 4096]
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


def max_entry(m) -> float:
    return float(np.max(np.abs(m)))


def det(m) -> complex:
    m = np.asarray(m)
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


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
        assert abs(det(one_step(model, ell, x)) - 1.0) < 1e-15


def test_transfer_product_period_four_pattern():
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    expected = {1: rotation, 2: -np.eye(2), 3: -rotation, 4: np.eye(2)}
    for ell in range(1, 9):
        T = transfer_product(FREE, ell, 0.0)
        ref = expected[(ell - 1) % 4 + 1]
        assert max_entry(np.asarray(T) - ref) == 0.0


def test_transfer_product_matches_column_form():
    rng = np.random.default_rng(23)
    for model in bulk_models():
        for _ in range(3):
            ell = int(rng.integers(1, 200))
            x = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.2))
            prod = transfer_product(model, ell, x)
            cols = transfer_from_polys(model, ell, x)
            scale = max(1.0, max_entry(cols))
            assert max_entry(np.asarray(prod) - cols) <= COLUMN_RTOL * scale


def test_transfer_det_one_long_product():
    T = transfer_product(FREE, 0, 0.3)
    for ell in range(1, 2001):
        T = one_step(FREE, ell, 0.3) @ T
        assert abs(det(T) - 1.0) <= DET_ATOL


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
                assert np.max(np.abs(T[k, i] - np.asarray(ref))) <= COLUMN_RTOL * scale
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
    direct = q_trajectory_direct(FREE, 1, 0.0, [a], [1.0])[0, 0]
    recursive = q_snapshots(h_sequence(FREE, 0.0, 1), 1, [a], [1.0])[0, 0]
    expect = np.array([[1.0, 0.0], [-a, 1.0]])
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
                assert operator_norm(m1 - m2) <= Q_AGREE_ATOL


def test_q_paths_agree_on_empty_offsets():
    ts = [0.0, 0.5, 1.0]
    direct = q_trajectory_direct(FREE, 40, 0.1, [], ts)
    recursive = q_snapshots(h_sequence(FREE, 0.1, 40), 40, [], ts)
    assert direct.shape == recursive.shape == (3, 0, 2, 2)
    assert direct.dtype == recursive.dtype == complex


def test_q_det_one_along_trajectory():
    seq = h_sequence(FREE, 0.0, 1000)
    qs = q_snapshots(seq, 1000, [3.0 - 0.5j], np.linspace(0, 1, 11))[:, 0]
    for q in qs:
        assert abs(det(q) - 1.0) <= 1e-8


def test_one_step_conjugation_identity():
    models = bulk_models()
    rng = np.random.default_rng(26)
    for model in models:
        for _ in range(5):
            ell = int(rng.integers(1, 100))
            x0 = rng.uniform(-0.3, 0.3)
            x = x0 + rng.uniform(-1, 1)
            got = inverse_unimodular(one_step(model, ell, x0)) @ np.asarray(one_step(model, ell, x))
            expect = np.array([[1.0, 0.0], [x0 - x, 1.0]])
            assert max_entry(got - expect) <= 1e-12 * max(1.0, abs(x0 - x))


def test_inverse_map_round_trip_off_zero():
    # the pair (p_l, q_l) at x0 = 0.3 gives back the coefficients and the polynomials
    model, m = PeriodicModel([1.0, 1.05], [0.2, 0.2]), 40
    a, b = model.coeff_arrays(m, None)
    h_seq = h_sequence(model, 0.3, m)
    assert h_seq.wronskian_residual(a) <= 1e-12
    rec = discrete_to_jacobi(h_seq, a)
    assert np.array_equal(rec.a_list, a)
    assert np.max(np.abs(rec.b_list - b)) <= 1e-12
    xs = np.array([0.3, 0.0, -0.77, 0.2 + 0.1j])
    got = polys_from_h(h_seq, xs)
    assert got.shape == (m + 1, len(xs))
    assert np.max(np.abs(got - poly_table(model, xs, m)[0])) <= 1e-12


def test_rotation_limit_free_model():
    # constant-coefficient limit with H = Id/2: rotation by a t / 2
    n = 4000
    seq = h_sequence(FREE, 0.0, n)
    a = 1.0
    ts = [0.25, 0.5, 1.0]
    qs = q_snapshots(seq, n, [a], ts)[:, 0]
    for t, q in zip(ts, qs):
        c, s = np.cos(a * t / 2), np.sin(a * t / 2)
        assert operator_norm(q - np.array([[c, s], [-s, c]])) <= 1e-2


def scan_snapshots(length):
    """Steps 0 and length, the first and last step of blocks, and a repeat."""
    size = max(1, math.isqrt(length))
    edges = [size * k + d for k in (0, 1, length // size - 1) for d in (0, 1)]
    return sorted({min(max(s, 0), length) for s in edges} | {length}) + [length]


@pytest.mark.parametrize("length", SCAN_LENGTHS)
def test_transfer_matrices_match_scalar_product_at_block_edges(length):
    model = PeriodicModel([1.0, 1.05, 0.95], [0.2, 0.2, -0.1])
    points = [0.1, -0.7 + 2e-4j]
    ells = scan_snapshots(length)
    T = transfer_matrices(model, points, ells)
    assert transfer_matrices(model, [], ells).shape == (len(ells), 0, 2, 2)
    for k, ell in enumerate(ells):
        for i, x in enumerate(points):
            ref = np.asarray(transfer_product(model, ell, x))
            assert np.max(np.abs(T[k, i] - ref)) <= SCAN_RTOL * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("n", SCAN_LENGTHS[1:])
def test_q_snapshots_match_step_loop(n):
    model = PeriodicModel([1.0, 1.05], [0.2, 0.2])
    seq = h_sequence(model, 0.1, n)
    ells = scan_snapshots(n)
    # unsorted t, t = 0, repeated values, and floor(t n) on block edges
    ts = [(ell + 0.5) / n if ell < n else 1.0 for ell in ells][::-1] + [0.0, 0.0]
    a = [2.0, -3.5 + 0.4j, 0.0, 5.0]
    got = q_snapshots(seq, n, a, ts)
    ref = q_snapshots_loop(seq, n, a, ts)
    assert got.shape == ref.shape == (len(ts), len(a), 2, 2)
    np.testing.assert_allclose(got, ref, rtol=0, atol=SCAN_RTOL * np.max(np.abs(ref)))
    assert np.array_equal(got[-1], np.broadcast_to(np.eye(2), (len(a), 2, 2)))


@pytest.mark.parametrize("n", SCAN_LENGTHS[1:])
def test_q_snapshots_real_offsets_match_complex(n):
    # real offsets run in real arithmetic, and z = a / n may differ from the
    # complex quotient by eps |z|. By Duhamel, dQ_L/dz is the sum over ell < L
    # of Q_L Q_ell^-1 J^-1 H_ell Q_ell, and ||Q^-1|| = ||Q|| for unimodular Q,
    # so Q moves by at most eps |a| (L / n) max ||H|| max ||Q||^3 to first order,
    # with max ||Q|| taken over the snapshots
    seq = h_sequence(PeriodicModel([1.0, 1.05], [0.2, 0.2]), 0.1, n)
    ts = np.linspace(0.0, 1.0, 7)
    a = [2.0, -3.5, 0.0, 5.0, 1.0 / 3.0]
    got = q_snapshots(seq, n, a, ts)
    ref = q_snapshots(seq, n, np.asarray(a, dtype=complex), ts)
    assert got.dtype == ref.dtype == complex
    bound = (np.finfo(float).eps * max(map(abs, a)) * np.max(seq.norms())
             * np.max(operator_norm(ref)) ** 3)
    assert np.max(operator_norm(got - ref)) <= bound


def test_q_snapshots_memory_bounded():
    n = 200000
    seq = h_sequence(ConstantModel(1.0, 0.0), 0.3, n)
    a = np.linspace(-5.0, 5.0, 51)
    tracemalloc.start()
    try:
        out = q_snapshots(seq, n, a, np.linspace(0.0, 1.0, 101))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # beyond its output, the scan holds a few (2, 2, blocks, len(a)) real arrays, each
    # two of the units below; one length-n copy of p or q would be 4.4 more units
    assert peak <= out.nbytes + 12 * math.isqrt(n) * len(a) * 16


def first_over_limit_step(x, n):
    """First ell with max(|p_ell|, |q_ell|) > 1e6 at x, from the step loop."""
    P, Q = poly_table_loop(FREE, [x], n)
    big = np.maximum(np.abs(P[:, 0]), np.abs(Q[:, 0])) > 1e6
    return int(np.argmax(big)) if big.any() else None


@pytest.mark.parametrize("x, n, step", [(3.0, 300, 15), (2.05, 2000, 58),
                                        (1 + 0.5j, 500, 51), (0.3 + 0.1j, 1000, 286)])
def test_conditioning_warning_names_first_step(x, n, step):
    assert first_over_limit_step(x, n) == step
    with pytest.warns(ConditioningWarning, match=f"at step {step};"):
        transfer_matrices(FREE, [x], [n])


def test_conditioning_warning_ignores_padding_steps():
    # 14 steps make blocks of 3, so step 15 pads the last block; it would be
    # the first step over the limit
    assert first_over_limit_step(3.0, 15) == 15
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        transfer_matrices(FREE, [3.0], [14])


def test_direct_mode_warns_off_bulk():
    with pytest.warns(ConditioningWarning):
        q_trajectory_direct(FREE, 300, 3.0, [1.0], [1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q_trajectory_direct(FREE, 300, 0.0, [1.0], [1.0])  # bulk: no warning


def test_direct_mode_names_overflow():
    # ||T_200(3)|| ~ 1e83 still gives a finite determinant check; ||T_1000(3)|| overflows
    with pytest.warns(ConditioningWarning), pytest.raises(
            ArithmeticError, match=r"transfer products at step 1000 overflow \(x0 = 3.0, n = 2000"):
        q_trajectory_direct(FREE, 2000, 3.0, [1.0], [0.1, 0.5])


def test_t_grid_validation():
    with pytest.raises(ValueError):
        q_trajectory_direct(FREE, 10, 0.0, [1.0], [0.5, 0.2])
    with pytest.raises(ValueError):
        q_trajectory_direct(FREE, 10, 0.0, [1.0], [1.5])


def test_t_grid_refuses_nan():
    seq = h_sequence(FREE, 0.0, 10)
    for solve in (lambda t: q_snapshots(seq, 10, [1.0], t),
                  lambda t: q_trajectory_direct(FREE, 10, 0.0, [1.0], t)):
        with pytest.raises(ValueError, match=r"^t grid must lie in \[0, 1\]$"):
            solve([0.5, math.nan])
