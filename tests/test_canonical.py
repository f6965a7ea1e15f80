import cmath
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cdscale import canonical
from cdscale.canonical import (CanonicalSystem, ConstantHamiltonian,
                               CoshSinhHamiltonian, PiecewiseConstantHamiltonian,
                               constant_solution_batch, kernel_grid, solve_ode_batch,
                               system_from_dict)
from cdscale.errors import (CoincidentArguments, NotPSD, WronskianViolation)
from cdscale.cdkernel import _check_distinct, kernel_sum
from cdscale.jacobi import ConstantModel, TableModel, gauss_quadrature, poly_table
from cdscale.mat2 import operator_norm
from cdscale.models import _generator, modified_sine_kernel
from cdscale.transfer import DiscreteHSequence, discrete_to_jacobi, h_sequence, polys_from_h

from references import (CallableHamiltonian, coshsinh_math, hb_kernel, hermite_biehler,
                        kernel_integral_form, rk4_step_loop, step_coefficients,
                        step_coefficients_loop, step_grid)

FREE = ConstantModel(1.0, 0.0)
HALF_ID = np.eye(2) / 2
EPS = np.finfo(float).eps
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


def quadratic_ramp():
    return CallableHamiltonian(
        lambda t: np.array([[1.0 + t * t, 0.3 * t], [0.3 * t, 0.5 + math.sin(t) ** 2]]),
        "smooth quadratic")


ALL_SYSTEMS = built_in_systems() + [CoshSinhHamiltonian(0.0), quadratic_ramp()]


def system_id(system):
    return type(system).__name__


def test_solve_constant_rotation():
    zs, ts = (0.5, 1.0, -2.3), (0.25, 1.0)
    qs = constant_solution_batch(HALF_ID, zs, ts)
    for j, a in enumerate(zs):
        for i, t in enumerate(ts):
            c, s = math.cos(a * t / 2), math.sin(a * t / 2)
            assert operator_norm(qs[i, j] - np.array([[c, s], [-s, c]])) <= 1e-14


def test_solve_constant_zero_spectral_value():
    q = constant_solution_batch(np.array([[0.7, 0.2], [0.2, 0.9]]), [0.0], [1.0])[0, 0]
    assert operator_norm(q - np.eye(2)) == 0.0


def test_solve_constant_rank_one_generator():
    h = np.array([[1.0, 0.0], [0.0, 0.0]])
    q = constant_solution_batch(h, [2.0], [1.0])[0, 0]  # det H = 0: Id + z t J^{-1} H
    assert operator_norm(q - np.array([[1.0, 0.0], [-2.0, 1.0]])) <= 1e-15


def test_solve_constant_rejects_indefinite():
    with pytest.raises(NotPSD):
        constant_solution_batch(np.array([[1.0, 0.0], [0.0, -1e-6]]), [1.0], [1.0])


def test_solve_ode_matches_closed_form():
    sysc = ConstantHamiltonian(HALF_ID)
    ts = [0.0, 0.5, 1.0]
    qs = rk4_step_loop(sysc, [1.0], ts)[:, 0]
    ref = solve_ode_batch(sysc, [1.0], ts)
    for i, q in enumerate(qs):
        assert operator_norm(q - ref[i, 0]) <= 1e-10


def piece_product(system, z, t):
    """Q(t) for one z by scipy's expm of each piece's generator over its part of [0, t].

    Also returns a rounding scale: the product of the factors' infinity norms.
    """
    q, scale = np.eye(2, dtype=complex), 1.0
    for lo, hi, h in zip(system.edges[:-1].tolist(), system.edges[1:].tolist(), system.matrices):
        if lo < t:
            f = scipy.linalg.expm(z * (min(hi, t) - lo) * _generator(h))
            q, scale = f @ q, scale * np.linalg.norm(f, np.inf)
    return q, scale


def test_exact_flow_is_the_product_of_piece_exponentials():
    rank_one = [np.outer(v, v) for v in ([0.6, -0.8], [1.1, 0.3], [0.0, 0.9])]
    system = PiecewiseConstantHamiltonian(
        [0.0, 0.2, 0.45, 0.5, 0.8, 1.0],
        [rank_one[0], np.array([[0.6, 0.1], [0.1, 0.4]]), rank_one[1], rank_one[2], HALF_ID])
    # t = 0, inside pieces, on interior edges (0.2, 0.5, 0.8) and at 1
    ts = [0.0, 0.1, 0.2, 0.3, 0.5, 0.5, 0.7, 0.8, 0.95, 1.0]
    zs = np.array([0.0, 3.0, -7.5 + 2.0j, 4.0j, 12.0 - 0.5j])
    got = solve_ode_batch(system, zs, ts)
    assert got.shape == (len(ts), len(zs), 2, 2)
    assert np.array_equal(got[0], np.broadcast_to(np.eye(2), (len(zs), 2, 2)))
    assert np.array_equal(got[4], got[5])
    for i, t in enumerate(ts):
        for j, z in enumerate(zs):
            ref, scale = piece_product(system, z, t)
            # each factor and each of up to 5 products round to a few units in the
            # last place of the product of the factors' norms, as does expm
            assert np.max(np.abs(got[i, j] - ref)) <= 8 * len(system.matrices) * EPS * scale
    assert solve_ode_batch(system, zs, []).shape == (0, len(zs), 2, 2)
    # a constant system is one piece: the flow is the closed form, value for value
    grid = np.linspace(0.0, 1.0, 11)
    for h in (HALF_ID, rank_one[0]):
        assert np.array_equal(solve_ode_batch(ConstantHamiltonian(h), zs, grid),
                              constant_solution_batch(h, zs, grid))


def test_solve_ode_zero_is_identity():
    for system in built_in_systems():
        for q in solve_ode_batch(system, [0.0], [0.3, 1.0])[:, 0]:
            assert operator_norm(q - np.eye(2)) <= 1e-14


def test_solve_ode_unimodular():
    for system in built_in_systems():
        for q in solve_ode_batch(system, [2.0 - 1.0j], np.linspace(0, 1, 5))[:, 0]:
            assert abs(q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0] - 1.0) <= 1e-8


def test_rk4_fourth_order_convergence():
    ref = constant_solution_batch(HALF_ID, [10.0], [1.0])[0, 0]
    sysc = ConstantHamiltonian(HALF_ID)
    qs = [rk4_step_loop(sysc, [10.0], [1.0], h)[0, 0] for h in (1e-3, 5e-4)]
    e1, e2 = (operator_norm(q - ref) for q in qs)
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


def per_a_message(a_grid, b_grid):
    """The coincidence check of one a at a time, each without the bs equal to it."""
    for a in a_grid:
        try:
            _check_distinct(a, b_grid[b_grid != a])
        except CoincidentArguments as exc:
            return str(exc)


def test_kernel_grid_names_the_first_near_pair_in_a_major_order():
    system = CoshSinhHamiltonian(0.6)
    a = np.array([-1.0, 1.0, 2.0, 3.0])
    # 3 + 4e-15 comes first in b, but a = 2 is the first row with a near pair;
    # the pairs (1, 1) and (3, 3) are exactly equal and take the diagonal
    near = np.array([3.0 + 4e-15, 1.0, 3.0, 2.0 - 4e-15, 1.0])
    for a_grid, b_grid in ((a, near), (a + 0.5j, near + 0.5j)):
        with pytest.raises(CoincidentArguments) as exc:
            kernel_grid(system, a_grid, b_grid)
        assert str(exc.value) == per_a_message(a_grid, b_grid)
        assert f"arguments {a_grid[2]} and {b_grid[3]} coincide" in str(exc.value)
    b = np.array([1.0, 3.0, 1.0, 0.5])
    values = kernel_grid(system, a, b)
    diag = canonical._diagonal_kernel_batch(system, np.array([1.0, 3.0]))
    assert values[1, 0] == values[1, 2] == diag[0] and values[3, 1] == diag[1]
    assert np.array_equal(values[[0, 2, 3]][:, [0, 2, 3]], kernel_grid(system, a[[0, 2, 3]], b[[0, 2, 3]]))


def test_kernel_grid_names_the_first_near_pair_across_row_blocks():
    system = CoshSinhHamiltonian(0.6)
    a = np.linspace(-20.0, 20.0, 401)
    b = a + 0.05
    # b[10] is near a[300] and b[350] near a[40]: the pair of row 40 comes first
    b[10], b[350] = a[300] + 4e-15, a[40] - 4e-15
    assert 40 // canonical.COINCIDENCE_ROWS != 300 // canonical.COINCIDENCE_ROWS
    with pytest.raises(CoincidentArguments) as exc:
        kernel_grid(system, a, b)
    assert str(exc.value) == per_a_message(a, b)
    assert f"arguments {a[40]} and {b[350]} coincide" in str(exc.value)


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


def test_psd_check_names_the_first_bad_value():
    # an asymmetric piece ahead of a NaN piece and a negative one: the first is named
    edges = np.linspace(0.0, 1.0, 5)
    asym, nan, neg = np.array([[1.0, 0.5], [0.0, 1.0]]), np.full((2, 2), np.nan), -np.eye(2)
    cases = [([HALF_ID, asym, nan, neg], ValueError, "on piece 1 is not symmetric"),
             ([HALF_ID, HALF_ID, nan, asym], NotPSD, "on piece 2 is not finite"),
             ([HALF_ID, HALF_ID, HALF_ID, neg], NotPSD,
              "on piece 3 has eigenvalue -1.000e+00 < -1e-12 (largest entry 1.000e+00)")]
    for pieces, kind, where in cases:
        with pytest.raises(ValueError) as info:
            PiecewiseConstantHamiltonian(edges, pieces)
        assert type(info.value) is kind and str(info.value) == "Hamiltonian value " + where
    with pytest.raises(NotPSD) as info:
        constant_solution_batch(np.array([[1.0, 0.0], [0.0, -1e-6]]), [1.0], [1.0])
    assert str(info.value) == ("Hamiltonian value has eigenvalue -1.000e-06 < -1e-10"
                               " (largest entry 1.000e+00)")
    for pieces in ([np.eye(3)], [HALF_ID, np.eye(3)]):  # values of one shape or two
        with pytest.raises(ValueError, match="^Hamiltonian values must be 2x2$"):
            PiecewiseConstantHamiltonian(np.linspace(0.0, 1.0, len(pieces) + 1), pieces)
    ramp = CallableHamiltonian(lambda t: np.eye(2) * (0.5 - t), "ramp")
    with pytest.raises(NotPSD, match=r"^Hamiltonian value at t = 0\.75 has eigenvalue"):
        ramp.H(np.array([[0.0, 0.5], [0.75, 1.0]]))


@pytest.mark.parametrize("system", [ConstantHamiltonian(HALF_ID), CoshSinhHamiltonian(1.0)])
def test_solver_refuses_nan_in_the_t_grid(system):
    with pytest.raises(ValueError, match=r"^t grid must lie in \[0, 1\]$"):
        solve_ode_batch(system, [1.0], [0.5, math.nan])


def test_psd_validation_and_serialization():
    with pytest.raises(NotPSD):
        ConstantHamiltonian(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPSD):  # NaN fails every comparison; it must still be refused
        ConstantHamiltonian(np.full((2, 2), np.nan))
    for system in built_in_systems():
        clone = system_from_dict(system.to_dict())
        for t in (0.0, 0.4, 1.0):
            np.testing.assert_allclose(clone.H(t), system.H(t), atol=1e-15)


def test_callable_hamiltonian_integral():
    system = CallableHamiltonian(lambda t: np.eye(2) * (0.5 + 0.25 * t), "linear ramp")
    np.testing.assert_allclose(system.integral(1.0), np.eye(2) * 0.625, atol=1e-10)


def test_integral_of_a_time_array():
    ts = np.array([[0.0, 0.2, 0.3], [0.75, 0.9, 1.0]])
    ramp = CallableHamiltonian(lambda t: np.eye(2) * (0.5 + 0.25 * t), "linear ramp", 50)
    for system in built_in_systems() + [CoshSinhHamiltonian(0.0), ramp]:
        got = system.integral(ts)
        assert got.shape == (2, 3, 2, 2)
        for idx in np.ndindex(ts.shape):
            assert np.array_equal(got[idx], system.integral(float(ts[idx])))
    v = 1.0
    for t, m in zip(ts.ravel(), CoshSinhHamiltonian(v).integral(ts.ravel())):
        c, s = 0.5 * math.sinh(t * v) / v, 0.5 * (math.cosh(t * v) - 1.0) / v
        np.testing.assert_allclose(m, [[c, s], [s, c]], rtol=1e-15, atol=0)


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=system_id)
def test_array_hamiltonian_matches_scalar_calls(system):
    ts = np.array([[0.0, 0.2, 0.3], [0.75, 0.9, 1.0]])
    got = system.H(ts)
    assert got.shape == (2, 3, 2, 2)
    for idx in np.ndindex(ts.shape):
        assert np.array_equal(got[idx], system.H(float(ts[idx])))


def test_solver_rejects_bad_grids():
    sysc = ConstantHamiltonian(HALF_ID)
    with pytest.raises(ValueError):
        solve_ode_batch(sysc, [1.0], [0.5, 0.2])
    with pytest.raises(ValueError):
        solve_ode_batch(sysc, [1.0], [1.2])


def test_solvers_refuse_other_systems():
    class Bare(CanonicalSystem):
        def H(self, t):
            return np.broadcast_to(HALF_ID, np.shape(t) + (2, 2))

    with pytest.raises(TypeError, match="^no solver for canonical system Bare$"):
        solve_ode_batch(Bare(), [1.0], [1.0])
    with pytest.raises(TypeError, match="^no solver for canonical system Bare$"):
        kernel_grid(Bare(), [1.0], [2.0])


@pytest.mark.parametrize("system", built_in_systems(), ids=system_id)
def test_max_step_leaves_the_solve_unchanged(system):
    zs, t_grid = [0.0, 0.5, -2.0 + 1.0j, 7.5], [0.2, 0.5, 1.0]
    got = solve_ode_batch(system, zs, t_grid)
    for max_step in (1e-3, 1e-4):
        assert np.array_equal(solve_ode_batch(system, zs, t_grid, max_step), got)


def test_kernel_grid_equal_grids_share_one_solve(monkeypatch):
    system = CoshSinhHamiltonian(1.3)
    g = np.linspace(-6.0, 6.0, 13)
    solved = []
    u_final_batch = canonical._u_final_batch

    def counted(system, zs):
        solved.append(len(zs))
        return u_final_batch(system, zs)

    monkeypatch.setattr(canonical, "_u_final_batch", counted)
    shared = kernel_grid(system, g, g)
    assert solved == [13] * 5  # u at g, then four finite-difference solves for the diagonal
    # rows against a copy of g, each side from its own solve
    split = np.vstack([kernel_grid(system, g[:5], g.copy()), kernel_grid(system, g[5:], g.copy())])
    assert solved[5:] == [5, 13, 5, 5, 5, 5, 5, 8, 13, 8, 8, 8, 8, 8]
    assert np.array_equal(shared, split)
    assert np.array_equal(shared, kernel_grid(system, g + 0j, g + 0j))  # real run = complex run


def test_rs_sequence_free_values():
    h_seq = h_sequence(FREE, 0.0, 6)
    assert h_seq.wronskian_residual(np.ones(6)) <= 1e-15
    # explicit check at the first step: q1 p0 - p1 q0 = 1 = 1/a1
    assert h_seq.qs[1] * h_seq.ps[0] - h_seq.ps[1] * h_seq.qs[0] == 1.0


def test_discrete_to_jacobi_free_recovery():
    rec = discrete_to_jacobi(h_sequence(FREE, 0.0, 10), np.ones(10))
    np.testing.assert_allclose(rec.b_list, np.zeros(10), atol=1e-14)
    np.testing.assert_allclose(rec.a_list, np.ones(10), atol=0)


def test_discrete_to_jacobi_round_trip_random():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        n = 50
        a = rng.uniform(0.8, 1.25, n)
        b = rng.uniform(-0.3, 0.3, n)
        model = TableModel(a, b)
        h_seq = h_sequence(model, 0.0, n)
        assert h_seq.wronskian_residual(a) <= 1e-10
        rec = discrete_to_jacobi(h_seq, a)
        np.testing.assert_allclose(rec.b_list, b, atol=1e-9)
        np.testing.assert_allclose(rec.a_list, a, atol=0)


def test_polys_from_rs_reconstruction():
    rng = np.random.default_rng(42)
    n = 40
    model = TableModel(rng.uniform(0.8, 1.2, n), rng.uniform(-0.2, 0.2, n))
    h_seq = h_sequence(model, 0.0, n)
    for x in (0.0, 0.31, -0.77, 0.2 + 0.1j):
        got = polys_from_h(h_seq, x)[:, 0]
        ref = poly_table(model, [x], n)[0][:, 0]
        np.testing.assert_allclose(got, ref, atol=1e-10)


# coefficients close enough to 1 that the polynomials at 0 stay moderate for
# 40 steps, so the absolute Wronskian check of discrete_to_jacobi holds
TABLES = st.lists(st.tuples(st.floats(0.8, 1.25), st.floats(-0.3, 0.3)), min_size=1, max_size=40)


def h_of_table(coeffs):
    a, b = map(np.array, zip(*coeffs))
    h_seq = h_sequence(TableModel(a, b), 0.0, len(a))
    # rounding grows with the sequence length and with the largest product p q
    bound = 4 * len(a) * np.finfo(float).eps * np.max(np.abs(h_seq.ps) + np.abs(h_seq.qs)) ** 2
    return a, b, h_seq, bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(coeffs=TABLES)
def test_rs_from_model_wronskian(coeffs):
    a, _, h_seq, bound = h_of_table(coeffs)
    lhs = h_seq.qs[1:] * h_seq.ps[:-1] - h_seq.ps[1:] * h_seq.qs[:-1]
    assert np.max(np.abs(lhs - 1.0 / a)) <= bound
    assert h_seq.wronskian_residual(a) <= bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(coeffs=TABLES)
def test_discrete_to_jacobi_inverts_rs_from_model(coeffs):
    a, b, h_seq, bound = h_of_table(coeffs)
    rec = discrete_to_jacobi(h_seq, a)
    assert np.array_equal(rec.a_list, a)
    assert np.max(np.abs(rec.b_list - b)) <= bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(coeffs=TABLES, data=st.data())
def test_kernel_reproduces_itself_under_gauss_rule(coeffs, data):
    # int K_n(x, t) K_n(t, y) dmu(t) = K_n(x, y); the m-point Gauss rule of the
    # table (m >= n) integrates this degree-(2n - 2) integrand exactly
    a, b = map(np.array, zip(*coeffs))
    model, m = TableModel(a, b), len(a)
    n = data.draw(st.integers(1, m))
    x, y = data.draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    nodes, weights = gauss_quadrature(model, m)
    got = np.dot(weights, kernel_sum(model, n, x, nodes) * kernel_sum(model, n, nodes, y))
    want = kernel_sum(model, n, x, y)
    # first-order rounding, each term taken with absolute values: n-step
    # recurrences and n-term kernel sums, an m-term rule, weights squared from
    # eigenvectors orthonormal to m eps, and nodes with backward error
    # m eps ||J|| (Gershgorin) times the t-derivative of the integrand
    h = 1e-30  # complex step: p_j(t + ih) = p_j(t) + ih p_j'(t) to rounding
    P = poly_table(model, np.concatenate([[x, y], nodes, nodes + 1j * h]), n - 1)[0]
    px, py = np.abs(P[:, 0].real), np.abs(P[:, 1].real)
    pt, dpt = np.abs(P[:, 2:m + 2].real), np.abs(P[:, m + 2:].imag / h)
    kx, ky, dkx, dky = px @ pt, py @ pt, px @ dpt, py @ dpt
    eps = np.finfo(float).eps
    norm_j = np.max(np.abs(b)) + 2.0 * np.max(a)
    bound = eps * ((2 * n + 3 * m) * np.dot(weights, kx * ky)
                   + m * norm_j * np.dot(weights, dkx * ky + kx * dky))
    assert abs(got - want) <= bound


def test_rs_sequence_rejects_broken_wronskian():
    with pytest.raises(WronskianViolation):
        discrete_to_jacobi(DiscreteHSequence(0.0, np.array([1.0, 0.5]), np.array([0.0, 0.5])),
                           np.array([1.0]))


def test_batch_solver_matches_scalar():
    system = CoshSinhHamiltonian(0.9)
    zs = np.array([0.5, -2.0 + 1.0j, 3.0])
    ts = [0.5, 1.0]
    batch = solve_ode_batch(system, zs, ts)
    for k, z in enumerate(zs):
        single = solve_ode_batch(system, [z], ts)[:, 0]
        for i, q in enumerate(single):
            np.testing.assert_allclose(batch[i, k], q, atol=1e-13)


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=system_id)
def test_step_coefficients_match_step_loop(system):
    t_lo, h, _ = step_grid([0.2, 0.5, 1.0], 1e-3)
    got = step_coefficients(system, t_lo, h)
    assert np.array_equal(got, step_coefficients_loop(system, t_lo, h))
    if isinstance(system, CoshSinhHamiltonian):
        # np.cosh and np.sinh may differ from math.cosh and math.sinh in the
        # last bit. C_k sums products of k stage generators times h^k and can
        # cancel, so the error is measured against (h max|H|)^k, the size of
        # those products; H grows with t, so its largest value is at t_lo + h
        ref = step_coefficients_loop(coshsinh_math(system.v), t_lo, h)
        size = h * np.max(np.abs(system.H(t_lo + h)), axis=(-2, -1))
        err = np.max(np.abs(got - ref), axis=(-2, -1))
        assert np.all(err <= 1e-15 * size ** np.arange(1, 5)[:, None])


@pytest.mark.parametrize("system", built_in_systems() + [CoshSinhHamiltonian(0.0)], ids=system_id)
def test_real_z_solve_is_bit_identical_to_complex(system):
    zs = np.linspace(-20.0, 20.0, 41)
    got = solve_ode_batch(system, zs, [0.3, 1.0])
    assert got.dtype == complex
    assert np.array_equal(got, solve_ode_batch(system, zs.astype(complex), [0.3, 1.0]))


@pytest.mark.parametrize("v", [0.0, 0.35, 1.0, 3.0])
def test_coshsinh_flow_matches_rk4(v):
    # RK4 on the same H, which test_solver_matches_staged_rk4 ties to the staged
    # loop, at steps of 1e-4: its error is some 1e-15 of max|Q|; kappa = 0 at z = +-V
    system = CoshSinhHamiltonian(v)
    zs, t_grid = [0.0, 0.5, -2.0 + 1.0j, 3.0 - 0.5j, 7.5, 4.0j, -6.0 - 2.0j, v, -v], [0.2, 0.5, 1.0]
    ref = rk4_step_loop(system, zs, t_grid, 1e-4)
    got = solve_ode_batch(system, zs, t_grid)
    assert np.max(np.abs(got - ref)) <= 3e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("v", [10.0, 40.0, 100.0])
def test_coshsinh_flow_keeps_its_digits_at_large_coupling(v):
    # exp(tA)'s entry C - (V/2) S cancels for |z| << V: formed so, Q(t, 0) drifts from I
    # by 7e-13 at V = 10 and by 0.5 at V = 40
    t_grid = np.linspace(0.0, 1.0, 11)
    got = solve_ode_batch(CoshSinhHamiltonian(v), [0.0, 0.1, 1.0], t_grid)
    assert np.max(np.abs(got[:, 0] - np.eye(2))) <= 1e-14
    size = np.max(np.abs(got), axis=(-2, -1))
    assert np.all(np.abs(np.linalg.det(got) - 1.0) <= 1e-12 * size ** 2)


def test_coshsinh_flow_at_zero_coupling_is_the_constant_flow():
    zs = np.concatenate([np.linspace(-20.0, 20.0, 41), np.linspace(-20.0, 20.0, 41) + 2.0j])
    t_grid = [0.0, 0.2, 0.5, 1.0]
    ref = constant_solution_batch(HALF_ID, zs, t_grid)
    got = solve_ode_batch(CoshSinhHamiltonian(0.0), zs, t_grid)
    assert np.max(np.abs(got - ref)) <= 4 * EPS * np.max(np.abs(ref))


@pytest.mark.parametrize("v, bound", [(1.0, 1e-13), (3.0, 1e-12)])
def test_coshsinh_kernel_grid_matches_modified_sine_kernel(v, bound):
    grid = np.linspace(-20.0, 20.0, 401)
    got = kernel_grid(CoshSinhHamiltonian(v), grid, grid)
    err = np.abs(got - modified_sine_kernel(v, grid[:, None], grid[None, :]))
    assert np.max(err[~np.eye(grid.size, dtype=bool)]) <= bound


def test_solver_overflow_raises(recwarn):
    with pytest.raises(ArithmeticError, match="exact solution overflows"):  # Q(1) ~ e^800
        solve_ode_batch(CoshSinhHamiltonian(800.0), [1.0], [1.0])
    for zs in ([1e200], [1e200 + 1j]):
        with pytest.raises(ArithmeticError, match="exact solution overflows"):
            solve_ode_batch(CoshSinhHamiltonian(1.0), zs, [0.5, 1.0])
    for system in built_in_systems()[::4]:  # cos(w c) overflows at |Im c| > 710 / w
        with pytest.raises(ArithmeticError, match="exact solution overflows"):
            solve_ode_batch(system, [1.0, 3000j], [0.5, 1.0])
    # u(1, z) ~ e^(V/2) is finite at V = 709, but the kernel's products of two are not
    for a, b in (([1.0], [2.0]), ([1.0], [1.0])):
        with pytest.raises(ArithmeticError, match="^kernel overflows"):
            kernel_grid(CoshSinhHamiltonian(709.0), a, b)
    # numpy's own overflow warnings stay silent; the check above names the cause
    assert [str(w.message) for w in recwarn if w.category is RuntimeWarning] == []


def staged_rk4(system, zs, t_grid, max_step=1e-3):
    """Reference: the classical four-stage RK4 loop over (nz, 2, 2) arrays."""
    Q = np.broadcast_to(np.eye(2, dtype=complex), (len(zs), 2, 2)).copy()
    z = np.asarray(zs, dtype=complex)[:, None, None]
    path = sorted({0.0, *t_grid})
    snaps = {0.0: Q.copy()}
    for lo, hi in zip(path[:-1], path[1:]):
        m = max(1, math.ceil((hi - lo) / max_step - 1e-12))
        h = (hi - lo) / m
        for i in range(m):
            t = lo + i * h
            m0, m1, m2 = (np.array([[g[0, 1], g[1, 1]], [-g[0, 0], -g[0, 1]]])
                          for g in (system.H(tau) for tau in (t, t + 0.5 * h, t + h)))
            k1 = z * (m0 @ Q)
            k2 = z * (m1 @ (Q + 0.5 * h * k1))
            k3 = z * (m1 @ (Q + 0.5 * h * k2))
            k4 = z * (m2 @ (Q + h * k3))
            Q = Q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        snaps[hi] = Q.copy()
    return np.array([snaps[t] for t in t_grid]).reshape(len(t_grid), len(zs), 2, 2)


@pytest.mark.parametrize("system", built_in_systems() + [quadratic_ramp()], ids=system_id)
def test_solver_matches_staged_rk4(system):
    # the RK4 reference of the exact flows, Q += D(z) Q, is the classical RK4
    zs, t_grid = [0.0, 0.5, -2.0 + 1.0j, 3.0 - 0.5j, 7.5, 4.0j], [0.2, 0.5, 1.0]
    np.testing.assert_allclose(rk4_step_loop(system, zs, t_grid), staged_rk4(system, zs, t_grid),
                               rtol=1e-12)


@pytest.mark.parametrize("points", [1001, 4201])
@pytest.mark.parametrize("nz", [1, 3])
def test_solver_snapshot_at_every_step(points, nz):
    # a piece per step of the t grid: the exact flow's scan takes a snapshot at
    # every step and reruns every block to its end
    t_grid = np.linspace(0.0, 1.0, points)
    rng = np.random.default_rng(points)
    system = PiecewiseConstantHamiltonian(t_grid, [random_psd(rng) for _ in range(points - 1)])
    zs = np.linspace(-3.0, 7.0, nz) + 0.5j
    got = solve_ode_batch(system, zs, t_grid)
    # the product of the pieces' factors, one at a time. The factors are close
    # to the identity, so rounding grows with their number times the size of Q
    # (at most half of that here), not with the product of their norms
    factors = canonical._flow_factor(system.matrices[:, None], system.widths[:, None] * zs)
    q = np.broadcast_to(np.eye(2, dtype=complex), (nz, 2, 2))
    for k, f in enumerate(factors):
        q = f @ q
        assert np.max(np.abs(got[k + 1] - q)) <= 4 * (k + 1) * EPS * np.max(np.abs(q))


@pytest.mark.parametrize("complex_z", [False, True])
def test_solver_result_does_not_depend_on_the_batch(complex_z):
    # a z's solution is the same in a batch of 600 and in batches of 2, 13
    # and 51. Batches of one z are left out: numpy may send their matrix
    # products to BLAS gemv, which rounds otherwise
    rng = np.random.default_rng(11)
    zs = rng.uniform(-20.0, 20.0, 600)
    if complex_z:
        zs = zs + 1j * rng.uniform(-1.0, 1.0, zs.size)
    system = CoshSinhHamiltonian(1.0)
    t_grid = [0.248, 0.6, 0.6005, 1.0]
    wide = solve_ode_batch(system, zs, t_grid)
    for picks in ([0, 599], [127, 128], rng.choice(600, 13, replace=False),
                  np.arange(200, 251)):
        assert np.array_equal(solve_ode_batch(system, zs[picks], t_grid), wide[:, picks])


@pytest.mark.parametrize("t_grid", [[0.0], []])
def test_solver_trivial_t_grids(t_grid):
    system, zs = CoshSinhHamiltonian(1.0), [1.0, 2.0 - 1.0j]
    got, ref = solve_ode_batch(system, zs, t_grid), rk4_step_loop(system, zs, t_grid)
    assert got.shape == ref.shape == (len(t_grid), 2, 2, 2)
    np.testing.assert_allclose(got, ref, rtol=1e-12)


# the closed form's temporaries are a few arrays of one value per time and z
@pytest.mark.parametrize("nz", [401, 20000, 51, 1])
def test_solver_memory_bounded(nz):
    zs = np.linspace(-20.0, 20.0, nz)
    t_grid = np.linspace(0.0, 1.0, 1001) if nz == 1 else [1.0]
    tracemalloc.start()
    try:
        solve_ode_batch(CoshSinhHamiltonian(1.0), zs, t_grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * nz * 64 + 2 * 2 ** 20
