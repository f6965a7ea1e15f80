"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at run time.
"""

import math
import time

import numpy as np

from cdscale.canonical import (ConstantHamiltonian, CoshSinhHamiltonian,
                               constant_solution_batch, kernel_grid, solve_ode_batch)
from cdscale.cdkernel import (kernel_cd, kernel_det_q, kernel_sum, scaled_grid,
                              sine_compare, sine_kernel)
from cdscale.jacobi import (ConstantModel, PeriodicModel, TableModel, poly_table, scaled_zeros)
from cdscale.limits import (BulkPointData, diagnostics, piecewise_estimate)
from cdscale.mat2 import Mat2, inverse_unimodular, operator_norm
from cdscale.models import (alternating_model, free_bulk_data, free_model,
                            lambda_pm, modified_sine_kernel, qhat_closed,
                            raw_limit_formula)
from cdscale.transfer import (discrete_to_jacobi, h_sequence, one_step, q_snapshots,
                              q_trajectory_direct, transfer_product)
from references import CallableHamiltonian, hb_kernel, kernel_integral_form, transfer_from_polys

FREE = ConstantModel(1.0, 0.0)
RHO0 = 1.0 / (2.0 * math.pi)
W0 = 1.0 / math.pi
GRID51 = np.linspace(-5.0, 5.0, 51)


def report(criterion, name, measured, bound, ok=None):
    if ok is None:
        ok = measured <= bound
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion} {name}: "
          f"measured={measured:.6g} bound={bound:g}")
    assert ok, f"criterion {criterion} ({name}): {measured} vs {bound}"


def bounded_random_model(seed, size):
    rng = np.random.default_rng(seed)
    j = np.arange(1, size + 1)
    return TableModel(1.0 + 0.4 * rng.uniform(-1, 1, size) / j,
                      0.4 * rng.uniform(-1, 1, size) / j)


def test_criterion_1_exact_identity_suite():
    t_start = time.time()

    # determinant of the transfer product stays 1 out to 10^4 steps
    x = 0.3
    T = Mat2.identity()
    det_worst = 0.0
    for ell in range(1, 10 ** 4 + 1):
        T = one_step(FREE, ell, x) @ T
        det_worst = max(det_worst, abs(T.m11 * T.m22 - T.m12 * T.m21 - 1.0))
    report(1, "det_transfer", det_worst, 1e-8)

    # product equals the polynomial column form; imaginary offsets stay on
    # the microscopic scale so the products remain bounded
    col_worst = 0.0
    rng = np.random.default_rng(101)
    for seed in range(3):
        model = bounded_random_model(200 + seed, 2000)
        ell = int(rng.integers(100, 2000))
        xv = complex(rng.uniform(-0.5, 0.5), rng.uniform(-2.0, 2.0) / ell)
        prod = np.asarray(transfer_product(model, ell, xv))
        cols = transfer_from_polys(model, ell, xv)
        col_worst = max(col_worst, float(np.max(np.abs(prod - cols)))
                        / max(1.0, float(np.max(np.abs(cols)))))
    report(1, "column_form", col_worst, 1e-9)

    # the three kernel forms agree on random bounded models
    kern_worst = 0.0
    for seed in range(3):
        model = bounded_random_model(300 + seed, 2000)
        n = int(rng.integers(200, 2000))
        a = complex(rng.uniform(-4, 4), rng.uniform(-0.5, 0.5))
        b = complex(rng.uniform(-4, 4), rng.uniform(-0.5, 0.5))
        if abs(a - b) < 0.1:
            b = a + 1.0
        x, y = a / n, b / n
        ks = kernel_sum(model, n, x, y)
        kc = kernel_cd(model, n, x, y)
        qa, qb = q_trajectory_direct(model, n, 0.0, [a, b], [1.0])[0]
        kd = kernel_det_q(qa, qb, a, b)
        kern_worst = max(kern_worst,
                         abs(ks - kc) / max(1.0, abs(ks)),
                         abs(ks / n - kd) / max(1.0, abs(ks / n)))
    report(1, "kernel_three_forms", kern_worst, 1e-8)

    # direct and recursive conjugated trajectories agree
    q_worst = 0.0
    tgrid = np.linspace(0, 1, 9)
    for seed in range(3):
        model = bounded_random_model(400 + seed, 1000)
        seq = h_sequence(model, 0.0, 1000)
        a = complex(rng.uniform(-4, 4), rng.uniform(-1, 1))
        qd = q_trajectory_direct(model, 1000, 0.0, [a], tgrid)[:, 0]
        qr = q_snapshots(seq, 1000, [a], tgrid)[:, 0]
        for m1, m2 in zip(qd, qr):
            q_worst = max(q_worst, operator_norm(m1 - m2))
    report(1, "q_direct_vs_recursive", q_worst, 1e-8)

    # one-step conjugation identity, exact to rounding
    conj_worst = 0.0
    model = bounded_random_model(500, 200)
    for ell in range(1, 201):
        x0, xv = 0.1, 0.9
        got = inverse_unimodular(one_step(model, ell, x0)) @ one_step(model, ell, xv)
        ref = np.array([[1.0, 0.0], [x0 - xv, 1.0]])
        conj_worst = max(conj_worst, operator_norm(got - ref))
    report(1, "one_step_conjugation", conj_worst, 1e-12)

    elapsed = time.time() - t_start
    report(1, "runtime_seconds", elapsed, 10.0)


def test_criterion_2_free_sine_universality():
    t_start = time.time()
    errs = []
    for n in (500, 1000, 2000, 4000):
        grid = scaled_grid(FREE, n, 0.0, GRID51, GRID51)
        errs.append(sine_compare(grid, BulkPointData(0.0, W0, RHO0)))
    report(2, "sup_error_n4000", errs[-1], 0.02)
    report(2, "strictly_decreasing", 0.0, 1.0,
           ok=all(b < a for a, b in zip(errs, errs[1:])))
    report(2, "runtime_seconds", time.time() - t_start, 60.0)


def test_criterion_3_flow_convergence_free():
    h = free_bulk_data(0.0).hamiltonian()
    t_grid = np.linspace(0, 1, 101)
    devs = []
    for n in (500, 1000, 2000, 4000):
        seq = h_sequence(FREE, 0.0, n)
        actual = q_snapshots(seq, n, GRID51 + 0j, t_grid)
        cos = np.cos(np.multiply.outer(t_grid, GRID51) / 2)
        sin = np.sin(np.multiply.outer(t_grid, GRID51) / 2)
        reference = np.empty(actual.shape, dtype=complex)
        reference[..., 0, 0] = cos
        reference[..., 0, 1] = sin
        reference[..., 1, 0] = -sin
        reference[..., 1, 1] = cos
        diff = actual - reference
        devs.append(float(np.max(np.sqrt(
            np.abs(diff[..., 0, 0]) ** 2 + np.abs(diff[..., 0, 1]) ** 2
            + np.abs(diff[..., 1, 0]) ** 2 + np.abs(diff[..., 1, 1]) ** 2))))
        # rotation reference cross-checked against the generic constant solver
        spot = constant_solution_batch(h, [complex(GRID51[7])], [t_grid[13]])[0, 0]
        np.testing.assert_allclose(spot, reference[13, 7], atol=1e-12)
    report(3, "sup_deviation_n4000", devs[-1], 0.02)
    report(3, "decreasing_in_n", 0.0, 1.0,
           ok=all(b < a for a, b in zip(devs, devs[1:])))


def test_criterion_4_cross_pipeline_alternating():
    v, n = 1.0, 4000
    grid = scaled_grid(alternating_model(v), n, 0.0, GRID51, GRID51)
    canon = kernel_grid(CoshSinhHamiltonian(v), GRID51, GRID51, max_step=1e-3)
    report(4, "alternating_vs_canonical", float(np.max(np.abs(grid.values - canon))), 0.02)

    divided = modified_sine_kernel(v, GRID51[:, None], GRID51[None, :])
    raw = raw_limit_formula(v, GRID51[:, None], GRID51[None, :])
    off = np.abs(GRID51[:, None] - GRID51[None, :]) > 1e-9
    err_div = float(np.max(np.abs(grid.values - divided)))
    err_raw = float(np.max(np.abs(grid.values - raw)[off]))
    report(4, "divided_variant_matches", err_div, 0.02)
    report(4, "exactly_one_variant", min(err_div, err_raw), 0.02,
           ok=(err_div <= 0.02) != (err_raw <= 0.02))

    sine = sine_kernel(GRID51[:, None], GRID51[None, :], RHO0, W0)
    v0 = modified_sine_kernel(0.0, GRID51[:, None], GRID51[None, :])
    report(4, "v0_reduction_analytic", float(np.max(np.abs(v0 - sine))), 1e-12)


def test_criterion_5_section5_closed_forms():
    rng = np.random.default_rng(105)
    lam_worst = 0.0
    for _ in range(20):
        v = rng.uniform(0.0, 4.0)
        n = int(rng.integers(1, 10 ** 5))
        lam_p, lam_m = lambda_pm(v, n)
        lam_worst = max(lam_worst, abs(lam_p * lam_m - 1.0))
    report(5, "lambda_product", lam_worst, 1e-14)

    v, n = 1.0, 600
    free = free_model()
    alt = alternating_model(v)
    qhat_worst = 0.0
    # T_ell = S_ell T_{ell-1}: the same products transfer_product forms, one step per ell
    t0 = tn = Mat2.identity()
    for ell in range(0, 501):
        if ell:
            t0 = one_step(free, ell, 0.0) @ t0
            tn = one_step(alt, ell, 0.0, n) @ tn
        prod = inverse_unimodular(t0) @ tn
        qhat_worst = max(qhat_worst, operator_norm(prod - qhat_closed(v, n, ell)))
    report(5, "qhat_closed_vs_product", qhat_worst, 1e-9)

    n = 10 ** 4
    bins = 50
    seq = h_sequence(alternating_model(1.0), 0.0, n, n)
    est = piecewise_estimate(seq, n, bins)
    target = CoshSinhHamiltonian(1.0)
    centers = (np.arange(bins) + 0.5) / bins
    worst = max(float(np.max(np.abs(est.H(t) - target.H(t)))) for t in centers)
    report(5, "piecewise_estimate_vs_coshsinh", worst, 0.02)


def test_criterion_6_canonical_kernel_identities():
    systems = [ConstantHamiltonian(np.eye(2) / 2),
               ConstantHamiltonian(np.array([[0.8, 0.25], [0.25, 0.5]])),
               CoshSinhHamiltonian(1.0)]
    rng = np.random.default_rng(106)
    mutual = 0.0
    for system in systems:
        for _ in range(2):
            a = complex(rng.uniform(-4, 4), rng.uniform(-1, 1))
            b = complex(rng.uniform(-4, 4), rng.uniform(-1, 1))
            if abs(a - b) < 0.1:
                b = a + 1.5
            kd = kernel_grid(system, [a], [b])[0, 0]
            ki = kernel_integral_form(system, a, b)
            kh = hb_kernel(system, a, b)
            mutual = max(mutual, abs(kd - ki), abs(kd - kh), abs(ki - kh))
    report(6, "three_form_agreement", mutual, 1e-6)

    # the bulk-data Hamiltonian reproduces the sine kernel on all of the grid;
    # off the diagonal its exact solve leaves rounding alone
    worst = 0.0
    worst_off = 0.0
    det_worst = 0.0
    off = ~np.eye(GRID51.size, dtype=bool)
    for w, rho, re_f in ((W0, RHO0, 0.0), (0.23, 0.4, -0.6), (1.1, 0.2, 0.35), (0.23, 0.4, -3.0)):
        bpd = BulkPointData(0.0, w, rho, re_f)
        h = bpd.hamiltonian()
        det_worst = max(det_worst, abs(h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
                                       - (math.pi * rho) ** 2))
        vals = kernel_grid(ConstantHamiltonian(h), GRID51, GRID51)
        ref = sine_kernel(GRID51[:, None], GRID51[None, :], rho, w)
        worst = max(worst, float(np.max(np.abs(vals - ref))))
        worst_off = max(worst_off, float(np.max(np.abs(vals - ref)[off])))
    report(6, "bulk_hamiltonian_sine_kernel", worst, 1e-8)
    report(6, "bulk_hamiltonian_sine_kernel_off_diagonal", worst_off, 1e-13)
    report(6, "det_h_pi_rho_squared", det_worst, 1e-10)

    # RK4 solves smooth systems: the constant H as a callable
    ref = constant_solution_batch(np.eye(2) / 2, [10.0], [1.0])[0, 0]
    sysc = CallableHamiltonian(lambda t: np.eye(2) / 2, "constant 1/2")
    qs = [solve_ode_batch(sysc, [10.0], [1.0], max_step=h)[0, 0] for h in (1e-3, 5e-4)]
    e1, e2 = (operator_norm(q - ref) for q in qs)
    factor = e1 / e2
    report(6, "rk4_halving_factor", factor, 20.0, ok=12.0 <= factor <= 20.0)


def test_criterion_6_finite_n_kernel_is_a_canonical_kernel():
    # the finite-n system solves a canonical system with n rank-one pieces
    # (bins = n), so its kernel is the scaled CD kernel, off the diagonal up to
    # rounding. Each side is an n-step recursion with an n-term sum or an
    # n-factor product; to first order its rounding is n eps times the sizes
    # of the terms: |P|^T |P| / n of the Gram sum, and |u(a)| |u(b)| / |a - b|
    # of the determinant form. The bound takes 4 roundings a step
    grid = np.linspace(-5.0, 5.0, 11)
    off = ~np.eye(grid.size, dtype=bool)
    gap = np.where(off, np.abs(grid[:, None] - grid[None, :]), 1.0)
    worst = 0.0
    for model, x0 in ((FREE, 0.3), (PeriodicModel((1.0, 1.05), (0.2, 0.2)), 0.0),
                      (alternating_model(1.0), 0.0)):
        for n in (50, 200, 1000):
            system = piecewise_estimate(h_sequence(model, x0, n, n), n, bins=n)
            got = kernel_grid(system, grid, grid)
            want = scaled_grid(model, n, x0, grid, grid).values
            P = np.abs(poly_table(model, x0 + grid / n, n - 1, n)[0])
            u = np.abs(solve_ode_batch(system, grid, [1.0])[0, :, :, 0])
            size = P.T @ P / n + (np.outer(u[:, 0], u[:, 1]) + np.outer(u[:, 1], u[:, 0])) / gap
            bound = 4 * n * np.finfo(float).eps * size
            worst = max(worst, float(np.max(np.abs(got - want)[off] / bound[off])))
    report(6, "finite_n_kernel_vs_canonical_kernel", worst, 1.0)


def test_criterion_7_inverse_map_round_trip():
    worst_b = 0.0
    worst_wr = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = 50
        a = rng.uniform(0.8, 1.25, n)
        b = rng.uniform(-0.3, 0.3, n)
        h_seq = h_sequence(TableModel(a, b), 0.0, n)
        worst_wr = max(worst_wr, h_seq.wronskian_residual(a))
        rec = discrete_to_jacobi(h_seq, a)
        worst_b = max(worst_b, float(np.max(np.abs(rec.b_list - b))))
    report(7, "b_recovery", worst_b, 1e-9)
    report(7, "wronskian_identity", worst_wr, 1e-10)


def test_criterion_8_zero_spacing():
    n = 5000
    sl = scaled_zeros(FREE, n, 0.0, 40.0)
    gaps = sl.nearest_neighbor_gaps()
    report(8, "mean_gap_vs_2pi", abs(float(gaps.mean()) - 2 * math.pi),
           0.02 * 2 * math.pi)

    # independent oracle: sign changes of p_n along a fine grid, all
    # brackets bisected simultaneously
    window = 40.0
    grid = np.linspace(-window / n, window / n, 2001)
    vals = poly_table(FREE, grid, n)[0][n]
    change = vals[:-1] * vals[1:] < 0
    los, his = grid[:-1][change], grid[1:][change]
    flos = vals[:-1][change]
    for _ in range(60):
        mids = 0.5 * (los + his)
        fmids = poly_table(FREE, mids, n)[0][n]
        left = flos * fmids <= 0
        his = np.where(left, mids, his)
        los = np.where(left, los, mids)
        flos = np.where(left, flos, fmids)
    oracle = n * 0.5 * (los + his)
    assert oracle.size == sl.scaled_zeros.size
    report(8, "sturm_vs_sign_changes",
           float(np.max(np.abs(oracle - sl.scaled_zeros))), 1e-8)


def test_criterion_9_convergence_diagnostics():
    n = 10 ** 4
    seq = h_sequence(FREE, 0.0, n)
    rep = diagnostics(seq, n, candidate=ConstantHamiltonian(np.eye(2) / 2),
                      L_list=(2, 5, 10, 50))
    report(9, "matrix_conv", rep.matrix_conv, 2e-4)
    report(9, "max_over_n", rep.max_over_n, 2e-4)
    worst = max(v * L for L, v in rep.decay_profile)
    report(9, "decay_profile_times_L", worst, 1.1 * rep.avg_norm)
