import cmath
import math

import numpy as np
import pytest

from cdscale.canonical import (CallableHamiltonian,
                               ConstantHamiltonian, CoshSinhHamiltonian,
                               PiecewiseConstantHamiltonian, RSSequence,
                               constant_solution_batch, discrete_to_jacobi,
                               hb_kernel, hermite_biehler, kernel_grid,
                               kernel_integral_form, polys_from_rs,
                               rs_from_model, solve_ode_batch,
                               system_from_dict)
from cdscale.errors import (CoincidentArguments, NotPSD, WronskianViolation)
from cdscale.jacobi import ConstantModel, TableModel, poly_table
from cdscale.mat2 import Mat2, operator_norm

FREE = ConstantModel(1.0, 0.0)
HALF_ID = np.eye(2) / 2
FORMS_ATOL = 1e-6


def random_psd(rng):
    m = rng.normal(size=(2, 2))
    return m @ m.T + 0.05 * np.eye(2)


def built_in_systems():
    return [
        ConstantHamiltonian(HALF_ID),
        ConstantHamiltonian(np.array([[0.8, 0.25], [0.25, 0.5]])),
        CoshSinhHamiltonian(1.0),
        CoshSinhHamiltonian(0.35),
        PiecewiseConstantHamiltonian(
            [0.0, 0.3, 0.75, 1.0],
            [np.array([[0.6, 0.1], [0.1, 0.4]]), HALF_ID,
             np.array([[0.2, 0.0], [0.0, 0.9]])]),
    ]


def test_solve_constant_rotation():
    zs, ts = (0.5, 1.0, -2.3), (0.25, 1.0)
    qs = constant_solution_batch(HALF_ID, zs, ts)
    for j, a in enumerate(zs):
        for i, t in enumerate(ts):
            c, s = math.cos(a * t / 2), math.sin(a * t / 2)
            assert operator_norm(Mat2.from_array(qs[i, j]) - Mat2(c, s, -s, c)) <= 1e-14


def test_solve_constant_zero_spectral_value():
    q = constant_solution_batch(np.array([[0.7, 0.2], [0.2, 0.9]]), [0.0], [1.0])[0, 0]
    assert operator_norm(Mat2.from_array(q) - Mat2.identity()) == 0.0


def test_solve_constant_rank_one_generator():
    h = np.array([[1.0, 0.0], [0.0, 0.0]])
    q = constant_solution_batch(h, [2.0], [1.0])[0, 0]  # det H = 0: Id + z t J^{-1} H
    assert operator_norm(Mat2.from_array(q) - Mat2(1.0, 0.0, -2.0, 1.0)) <= 1e-15


def test_solve_constant_rejects_indefinite():
    with pytest.raises(NotPSD):
        constant_solution_batch(np.array([[1.0, 0.0], [0.0, -1e-6]]), [1.0], [1.0])


def test_solve_ode_matches_closed_form():
    sysc = ConstantHamiltonian(HALF_ID)
    ts = [0.0, 0.5, 1.0]
    qs = solve_ode_batch(sysc, [1.0], ts)[:, 0]
    ref = constant_solution_batch(HALF_ID, [1.0], ts)
    for i, q in enumerate(qs):
        assert operator_norm(Mat2.from_array(q - ref[i, 0])) <= 1e-10


def test_solve_ode_zero_is_identity():
    for system in built_in_systems():
        for q in solve_ode_batch(system, [0.0], [0.3, 1.0])[:, 0]:
            assert operator_norm(Mat2.from_array(q) - Mat2.identity()) <= 1e-14


def test_solve_ode_unimodular():
    for system in built_in_systems():
        for q in solve_ode_batch(system, [2.0 - 1.0j], np.linspace(0, 1, 5))[:, 0]:
            assert abs(Mat2.from_array(q).det() - 1.0) <= 1e-8


def test_rk4_fourth_order_convergence():
    ref = Mat2.from_array(constant_solution_batch(HALF_ID, [10.0], [1.0])[0, 0])
    sysc = ConstantHamiltonian(HALF_ID)
    qs = [solve_ode_batch(sysc, [10.0], [1.0], max_step=h)[0, 0] for h in (1e-3, 5e-4)]
    e1, e2 = (operator_norm(Mat2.from_array(q) - ref) for q in qs)
    assert 12.0 <= e1 / e2 <= 20.0


def test_kernel_determinant_constant_half():
    sysc = ConstantHamiltonian(HALF_ID)
    assert abs(kernel_grid(sysc, [1.0], [0.0])[0, 0] - math.sin(0.5)) <= 1e-10


def test_kernel_real_for_symmetric_offsets():
    for system in built_in_systems():
        val = kernel_grid(system, [1.3], [-1.3])[0, 0]
        assert abs(complex(val).imag) <= 1e-12


def test_three_kernel_forms_agree():
    rng = np.random.default_rng(41)
    for system in built_in_systems():
        for _ in range(2):
            a = complex(rng.uniform(-4, 4), rng.uniform(-1, 1))
            b = complex(rng.uniform(-4, 4), rng.uniform(-1, 1))
            if abs(a - b) < 0.1:
                continue
            kd = kernel_grid(system, [a], [b])[0, 0]
            ki = kernel_integral_form(system, a, b)
            kh = hb_kernel(system, a, b)
            assert abs(kd - ki) <= FORMS_ATOL
            assert abs(kd - kh) <= FORMS_ATOL


def test_diagonal_confluent_vs_integral():
    for system in built_in_systems()[:3]:
        for a in (0.0, 1.7, -2.5):
            kd = kernel_grid(system, [a], [a])[0, 0]
            ki = kernel_integral_form(system, a, a)
            assert abs(kd - ki) <= FORMS_ATOL


def test_integral_form_diagonal_examples():
    assert abs(kernel_integral_form(ConstantHamiltonian(HALF_ID), 0.0, 0.0) - 0.5) <= 1e-12
    v = 1.3
    expect = math.sinh(v) / (2.0 * v)
    assert abs(kernel_integral_form(CoshSinhHamiltonian(v), 0.0, 0.0) - expect) <= 1e-9


def test_kernel_near_coincident_refused():
    sysc = ConstantHamiltonian(HALF_ID)
    with pytest.raises(CoincidentArguments):
        kernel_grid(sysc, [1.0], [1.0 + 1e-15])
    with pytest.raises(CoincidentArguments):
        hb_kernel(sysc, 0.5, 0.5)


def test_kernel_entire_cauchy_consistency():
    # analyticity in the second argument: Cauchy integral over a unit circle
    system = CoshSinhHamiltonian(0.8)
    a, b = 0.9, -0.4
    m = 64
    angles = 2.0 * math.pi * np.arange(m) / m
    ring = b + np.exp(1j * angles)
    integral = np.mean(kernel_grid(system, [a], ring))  # trapezoid over the circle
    direct = kernel_grid(system, [a], [b])[0, 0]
    assert abs(integral - direct) <= 1e-8


def test_kernel_grid_matches_pointwise():
    system = CoshSinhHamiltonian(1.0)
    vals = np.array([-1.0, 0.0, 2.0])
    grid = kernel_grid(system, vals, vals)
    for i, a in enumerate(vals):
        for j, b in enumerate(vals):
            ref = kernel_grid(system, [a], [b])[0, 0]
            assert abs(grid[i, j] - ref) <= 1e-10


def test_hermite_biehler_constant_half():
    sysc = ConstantHamiltonian(HALF_ID)
    assert abs(hermite_biehler(sysc, 0.0) - 1.0) <= 1e-14
    for z in (0.7, -1.9, 3.2):
        assert abs(hermite_biehler(sysc, z) - cmath.exp(-1j * z / 2)) <= 1e-12


def test_hermite_biehler_upper_half_plane_inequality():
    for system in built_in_systems():
        for z in (1j, 0.5 + 1j, -2.0 + 0.3j):
            assert abs(hermite_biehler(system, z)) >= abs(hermite_biehler(system, np.conj(z)))


def test_piecewise_integral_exact():
    system = built_in_systems()[4]
    edges = [0.0, 0.3, 0.75, 1.0]
    for t in (0.2, 0.3, 0.5, 0.75, 0.9, 1.0):
        # piece-aware midpoint oracle: every panel lies inside one piece
        brute = np.zeros((2, 2))
        cuts = sorted({0.0, t, *[e for e in edges if e < t]})
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            brute += (hi - lo) * system.H(0.5 * (lo + hi))
        np.testing.assert_allclose(system.integral(t), brute, atol=1e-12)
    np.testing.assert_allclose(system.integral(0.0), np.zeros((2, 2)), atol=0)


def test_psd_validation_and_serialization():
    with pytest.raises(NotPSD):
        ConstantHamiltonian(np.array([[1.0, 2.0], [2.0, 1.0]]))
    for system in built_in_systems():
        clone = system_from_dict(system.to_dict())
        for t in (0.0, 0.4, 1.0):
            np.testing.assert_allclose(clone.H(t), system.H(t), atol=1e-15)


def test_callable_hamiltonian_integral():
    system = CallableHamiltonian(lambda t: np.eye(2) * (0.5 + 0.25 * t), "linear ramp")
    np.testing.assert_allclose(system.integral(1.0), np.eye(2) * 0.625, atol=1e-10)


def test_solver_rejects_bad_grids():
    sysc = ConstantHamiltonian(HALF_ID)
    with pytest.raises(ValueError):
        solve_ode_batch(sysc, [1.0], [0.5, 0.2])
    with pytest.raises(ValueError):
        solve_ode_batch(sysc, [1.0], [1.2])
    with pytest.raises(ValueError):
        solve_ode_batch(sysc, [1.0], [1.0], max_step=5e-3)


def test_rs_sequence_free_values():
    rs = rs_from_model(FREE, 6)
    assert rs.wronskian_residual() <= 1e-15
    # explicit check at the first step: s1 r0 - r1 s0 = 1 = 1/a1
    assert rs.s[1] * rs.r[0] - rs.r[1] * rs.s[0] == 1.0


def test_discrete_to_jacobi_free_recovery():
    rs = rs_from_model(FREE, 10)
    rec = discrete_to_jacobi(rs)
    np.testing.assert_allclose(rec.b_list, np.zeros(10), atol=1e-14)
    np.testing.assert_allclose(rec.a_list, np.ones(10), atol=0)


def test_discrete_to_jacobi_round_trip_random():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        n = 50
        a = rng.uniform(0.8, 1.25, n)
        b = rng.uniform(-0.3, 0.3, n)
        model = TableModel(a, b)
        rs = rs_from_model(model, n)
        assert rs.wronskian_residual() <= 1e-10
        rec = discrete_to_jacobi(rs)
        np.testing.assert_allclose(rec.b_list, b, atol=1e-9)
        np.testing.assert_allclose(rec.a_list, a, atol=0)


def test_polys_from_rs_reconstruction():
    rng = np.random.default_rng(42)
    n = 40
    model = TableModel(rng.uniform(0.8, 1.2, n), rng.uniform(-0.2, 0.2, n))
    rs = rs_from_model(model, n)
    for x in (0.0, 0.31, -0.77, 0.2 + 0.1j):
        got = polys_from_rs(rs, x)
        ref = poly_table(model, [x], n)[0][:, 0]
        np.testing.assert_allclose(got, ref, atol=1e-10)


def test_rs_sequence_rejects_broken_wronskian():
    with pytest.raises(WronskianViolation):
        RSSequence(r=np.array([1.0, 0.5]), s=np.array([0.0, 0.5]),
                   a=np.array([1.0, 1.0]))


def test_batch_solver_matches_scalar():
    system = CoshSinhHamiltonian(0.9)
    zs = np.array([0.5, -2.0 + 1.0j, 3.0])
    ts = [0.5, 1.0]
    batch = solve_ode_batch(system, zs, ts)
    for k, z in enumerate(zs):
        single = solve_ode_batch(system, [z], ts)[:, 0]
        for i, q in enumerate(single):
            np.testing.assert_allclose(batch[i, k], q, atol=1e-13)
