"""Test-side references: plain one-step-per-iteration loops.

``poly_table_loop`` and ``q_snapshots_loop`` are the step loops that
``poly_table`` and ``q_snapshots`` ran before both became a blocked scan;
``transfer_from_polys`` is the column form of the transfer matrix. The scalar
``transfer.transfer_product`` is the third reference, for transfer_matrices.
``step_coefficients_loop`` forms the RK4 propagator coefficients from one
scalar ``stage_value`` call per stage and step, as before H took arrays of t,
and ``rk4_step_loop`` is ``solve_ode_batch`` as it was before it multiplied
runs of steps pairwise: Q += D(z) Q once per step, D(z) by Horner;
``coshsinh_math`` is the cosh/sinh Hamiltonian evaluated by ``math``, and
``kernel_csv_per_cell`` is the ``KernelGrid.to_csv`` writer that formatted
every cell, imaginary parts included, by its own f-string.
``sturm_count_loop`` is the Sturm count vectorized over shifts, one row per
iteration, as before ``sturm_count`` ran a scalar loop per shift, and
``alternating_deviation_stack`` is ``alternating_coefficient_deviation`` as
it was when it stacked one ``limit_coefficient_integral`` matrix per step,
before it filled the targets from two lists.
"""

import math

import numpy as np

from cdscale.canonical import (DEFAULT_MAX_STEP, CallableHamiltonian, _generator,
                               _integration_path, _step_coefficients, _step_grid)
from cdscale.cdkernel import _num
from cdscale.jacobi import poly_table
from cdscale.mat2 import operator_norm
from cdscale.models import (alternating_coefficient_matrices,
                            limit_coefficient_integral)


def poly_table_loop(model, xs, up_to, n=None):
    """The three-term recurrence, one step per iteration."""
    xs = np.atleast_1d(np.asarray(xs))
    dtype = complex if np.iscomplexobj(xs) else float
    xs = xs.astype(dtype)
    m = xs.shape[0]
    P = np.empty((up_to + 1, m), dtype=dtype)
    Q = np.empty((up_to + 1, m), dtype=dtype)
    P[0] = 1.0
    Q[0] = 0.0
    if up_to == 0:
        return P, Q
    a, b = model.coeff_arrays(up_to, n)
    p_prev2 = np.zeros(m, dtype=dtype)
    p_prev1 = P[0].copy()
    q_prev2 = np.full(m, -1.0, dtype=dtype)
    q_prev1 = Q[0].copy()
    a_prev = 1.0
    for ell in range(1, up_to + 1):
        shift = xs - b[ell - 1]
        a_ell = a[ell - 1]
        p = (shift * p_prev1 - a_prev * p_prev2) / a_ell
        q = (shift * q_prev1 - a_prev * q_prev2) / a_ell
        P[ell] = p
        Q[ell] = q
        p_prev2, p_prev1 = p_prev1, p
        q_prev2, q_prev1 = q_prev1, q
        a_prev = a_ell
    return P, Q


def q_snapshots_loop(h_seq, n, a_values, t_values):
    """Q_{ell+1} = Q_ell + (a/n) J^{-1} H_ell Q_ell, one step per iteration."""
    t_values = np.asarray(t_values, dtype=float)
    z = np.asarray(a_values, dtype=complex) / n
    ells = [int(np.floor(t * n)) for t in t_values]
    Q = np.broadcast_to(np.eye(2, dtype=complex), (z.shape[0], 2, 2)).copy()
    out = np.empty((len(ells), z.shape[0], 2, 2), dtype=complex)
    want = {}
    for pos, ell in enumerate(ells):
        want.setdefault(ell, []).append(pos)
    for pos in want.get(0, []):
        out[pos] = Q
    B = np.empty((2, 2))
    for ell in range(max(ells, default=0)):
        p, q = h_seq.ps[ell], h_seq.qs[ell]
        B[0, 0] = -p * q
        B[0, 1] = q * q
        B[1, 0] = -p * p
        B[1, 1] = p * q
        Q = Q + z[:, None, None] * (B @ Q)
        for pos in want.get(ell + 1, []):
            out[pos] = Q
    return out


def transfer_from_polys(model, ell, x, n=None) -> np.ndarray:
    """Column form of the transfer matrix, from the polynomial recurrence."""
    P, Q = poly_table(model, np.array([x]), ell, n)
    if ell == 0:
        return np.eye(2)
    a_ell, _ = model.coeff(ell, n)
    return np.array([[P[ell, 0], -Q[ell, 0]], [a_ell * P[ell - 1, 0], -a_ell * Q[ell - 1, 0]]])


def step_coefficients_loop(system, t_lo, h):
    """C1..C4 of the steps [t_lo, t_lo + h], stage values stacked from scalar calls."""
    m0, m1, m2 = (_generator(np.stack([system.stage_value(t, t + s, t + f * s)
                                        for t, s in zip(t_lo.tolist(), h.tolist())]))
                  for f in (0.0, 0.5, 1.0))
    h = h[:, None, None]
    m1m0 = m1 @ m0
    m1m1 = m1 @ m1
    return np.stack([
        h / 6.0 * (m0 + 4.0 * m1 + m2),
        h ** 2 / 6.0 * (m1m0 + m1m1 + m2 @ m1),
        h ** 3 / 12.0 * (m1 @ m1m0 + m2 @ m1m1),
        h ** 4 / 24.0 * (m2 @ (m1 @ m1m0)),
    ])


def rk4_step_loop(system, zs, t_grid, max_step=DEFAULT_MAX_STEP,
                  coefficients=_step_coefficients):
    """RK4 over (2, 2, nz) arrays, one Q += D(z) Q update per step.

    ``coefficients(system, t_lo, h)`` gives C1..C4 of the steps; with the
    absolute values of the C_k and of the zs the loop multiplies out
    (I + |D_N|)···(I + |D_1|), the scale of the rounding errors of a solve.
    """
    zs = np.asarray(zs)
    zs = zs.astype(complex if np.iscomplexobj(zs) else float)
    ts = [float(t) for t in t_grid]
    t_lo, h, ends = _step_grid(_integration_path(system, ts), max_step)
    Q = np.zeros((2, 2, zs.shape[0]), dtype=zs.dtype)  # Q[i, j] over z
    Q[0, 0] = Q[1, 1] = 1.0
    q0, q1 = Q  # row views, updated in place
    results = {0.0: Q.transpose(2, 0, 1).astype(complex)}
    c1, c2, c3, c4 = coefficients(system, t_lo, h)[..., None]
    for k in range(len(h)):
        d = c4[k] * zs
        for c in (c3[k], c2[k], c1[k]):
            d += c
            d *= zs
        dq0 = d[0, 0] * q0 + d[0, 1] * q1
        dq1 = d[1, 0] * q0 + d[1, 1] * q1
        q0 += dq0
        q1 += dq1
        if k + 1 in ends:
            results[ends[k + 1]] = Q.transpose(2, 0, 1).astype(complex)
    if not ts:
        return np.empty((0, zs.shape[0], 2, 2), complex)
    return np.stack([results[t] for t in ts])


def coshsinh_math(v):
    """CoshSinhHamiltonian(v) from scalar math.cosh and math.sinh calls."""
    def h(t):
        c = 0.5 * math.cosh(t * v)
        s = 0.5 * math.sinh(t * v)
        return np.array([[c, s], [s, c]])
    return CallableHamiltonian(h, f"cosh-sinh {v} by math")


def kernel_csv_per_cell(grid, path):
    """KernelGrid.to_csv, one f-string and one writelines item per cell."""
    b_labels = [_num(b) for b in np.atleast_1d(grid.b_values)]
    with open(path, "w", newline="") as fh:
        fh.write("a,b,re,im\n")
        for a, row in zip(np.atleast_1d(grid.a_values), np.asarray(grid.values)):
            a_label = _num(a)
            fh.writelines(f"{a_label},{b},{re!r},{im!r}\n" for b, re, im in
                          zip(b_labels, row.real.tolist(), row.imag.tolist()))


def sturm_count_loop(diag, off, shifts):
    """Negative LDL^t pivots of (J - shift), numpy over all shifts, one row per step."""
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    off2 = np.asarray(off, dtype=float) ** 2
    pivmin = max(float(np.max(off2)) if off2.size else 1.0, 1.0) * 1e-290
    count = np.zeros(shifts.shape, dtype=np.int64)
    q = np.empty_like(shifts)
    for i in range(len(diag)):
        if i == 0:
            q = diag[0] - shifts
        else:
            q = diag[i] - shifts - off2[i - 1] / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        count += q < 0
    return count


def alternating_deviation_stack(v, n):
    """sup_t || int_0^t (A^(n) - A) ||, the targets stacked from 2x2 arrays."""
    mats = alternating_coefficient_matrices(v, n)
    partials = np.zeros((n + 1, 2, 2))
    np.cumsum(mats, axis=0, out=partials[1:])
    targets = np.stack([limit_coefficient_integral(v, m / n) for m in range(n + 1)])
    return float(np.max(operator_norm(partials / n - targets)))
