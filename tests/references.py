"""Test-side references: plain one-step-per-iteration loops.

``poly_table_loop`` and ``q_snapshots_loop`` are the step loops that
``poly_table`` and ``q_snapshots`` ran before both became a blocked scan;
``transfer_from_polys`` is the column form of the transfer matrix. The scalar
``transfer.transfer_product`` is the third reference, for transfer_matrices.
``step_coefficients_loop`` forms the RK4 propagator coefficients from one
scalar ``H`` call per stage and step, as before H took arrays of t,
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
``h_partials_whole`` and ``matrix_conv_whole`` are ``limits.diagnostics``'
partial sums and candidate distance as they were before it compared in row
blocks: one cumsum over the (n, 2, 2) entry array, and one norm over all
n + 1 grid points.

Independent oracles that no command reaches:
``CallableHamiltonian`` wraps any smooth t -> H(t), its values checked as one
stack per call, and ``CustomModel`` any j -> (a_j, b_j), unchecked, since
poly_table checks what it reads. ``kernel_integral_form`` (Simpson's
rule between breakpoints) and ``hb_kernel`` (through the Hermite-Biehler
function ``hermite_biehler``) are the two kernel forms that check
``kernel_grid``'s determinant form. ``all_scaled_zeros`` is every zero of
p_n, by a Gershgorin window. ``two_step_factor`` is the alternating family's
factor that ``u_matrix`` diagonalizes, and ``limit_coefficient`` with
``limit_coefficient_integral`` is that family's limit in the diagonalized frame.
"""

import math

import numpy as np

from cdscale.canonical import (DEFAULT_MAX_STEP, PSD_SAMPLE_TOL, CanonicalSystem,
                               _check_psd, _generator,
                               _step_coefficients, _step_grid, solve_ode_batch)
from cdscale.cdkernel import _check_distinct, _num
from cdscale.errors import InvalidCoefficient
from cdscale.jacobi import CoefficientModel, poly_table, scaled_zeros, truncated_tridiagonal
from cdscale.mat2 import operator_norm
from cdscale.models import alternating_coefficient_matrices


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
    m0, m1, m2 = (_generator(np.stack([system.H(t + f * s)
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
    t_lo, h, ends = _step_grid(ts, max_step)
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


def h_partials_whole(h_seq, n):
    """Partial sums S_0..S_n of H_j, one cumsum over the (n, 2, 2) entry array."""
    out = np.zeros((n + 1, 2, 2))
    np.cumsum(h_seq.entry_arrays()[:n], axis=0, out=out[1:])
    return out


def matrix_conv_whole(h_seq, n, candidate):
    """sup_m || S_m / n - int_0^(m/n) H ||, every grid point at once."""
    cand = candidate.integral(np.arange(n + 1) / n)
    return float(np.max(operator_norm(h_partials_whole(h_seq, n) / n - cand)))


class CallableHamiltonian(CanonicalSystem):
    """Wrap an arbitrary (smooth) t -> 2x2 PSD matrix; one stack check per call of H."""

    def __init__(self, fn, description: str, quad_points: int = 2000):
        self.fn = fn
        self.description = description
        self.quad_points = quad_points

    def H(self, t):
        ts = np.ravel(t).tolist()
        h = np.reshape([self.fn(s) for s in ts], (len(ts), 2, 2))
        h = _check_psd(h, PSD_SAMPLE_TOL, lambda k: f" at t = {ts[k]}")
        return h.reshape(np.shape(t) + (2, 2))

    def integral(self, t):
        if np.ndim(t):
            return np.array([self.integral(s) for s in np.ravel(t)]).reshape(np.shape(t) + (2, 2))
        if t == 0.0:
            return np.zeros((2, 2))
        m = self.quad_points + (self.quad_points % 2)
        ts = np.linspace(0.0, t, m + 1)
        vals = self.H(ts)
        wts = _simpson_weights(m, t / m)
        return np.tensordot(wts, vals, axes=(0, 0))

    def to_dict(self):
        return {"kind": "callable", "description": self.description}


def _simpson_weights(m: int, h: float) -> np.ndarray:
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def kernel_integral_form(system, a, b, max_step=DEFAULT_MAX_STEP) -> complex:
    """Kernel as the H-weighted pairing int_0^1 (u(t, conj(a)))^* H(t) u(t, b) dt.

    Composite Simpson, applied piece by piece between Hamiltonian
    breakpoints so discontinuities never sit inside a panel; valid on the
    diagonal directly. For the real built-in Hamiltonians this equals the
    determinant form.
    """
    path = [0.0] + [t for t in sorted(system.breakpoints()) if 0.0 < t < 1.0] + [1.0]
    ts = []
    weights = []
    hs = []
    for lo, hi in zip(path[:-1], path[1:]):
        m = math.ceil((hi - lo) / max_step)
        m += m % 2
        seg = np.linspace(lo, hi, m + 1)
        ts.append(seg)
        weights.append(_simpson_weights(m, (hi - lo) / m))
        # H's limit from inside the segment at its end, where a piece ends
        hs.append(system.H(np.append(seg[:-1], np.nextafter(hi, lo))))
    ts = np.concatenate(ts)
    weights = np.concatenate(weights)
    hs = np.concatenate(hs)
    qs = solve_ode_batch(system, [np.conj(complex(a)), complex(b)], ts, max_step)
    ua = np.conj(qs[:, 0, :, 0])
    ub = qs[:, 1, :, 0]
    integrand = np.einsum("ti,tij,tj->t", ua, hs, ub)
    return complex(np.dot(weights, integrand))


def hermite_biehler(system, z, max_step=DEFAULT_MAX_STEP) -> complex:
    """E(z) = u1(1, z) + i u2(1, z); entire and zero free in the upper half plane."""
    u = solve_ode_batch(system, [complex(z)], [1.0], max_step)[0, 0, :, 0]
    return complex(u[0] + 1j * u[1])


def hb_kernel(system, a, b, max_step=DEFAULT_MAX_STEP) -> complex:
    """Kernel through the Hermite-Biehler function of the system.

    Evaluates (conj(E(conj(a))) E(b) - E(a) conj(E(conj(b)))) / (2i (a - b)),
    the de Branges kernel at (z, zeta) = (conj(a), b). For real Hamiltonians
    this equals the determinant form.
    """
    a = complex(a)
    b = complex(b)
    _check_distinct(a, b)
    e_abar = hermite_biehler(system, np.conj(a), max_step)
    e_a = hermite_biehler(system, a, max_step)
    e_b = hermite_biehler(system, b, max_step)
    e_bbar = hermite_biehler(system, np.conj(b), max_step)
    return (np.conj(e_abar) * e_b - e_a * np.conj(e_bbar)) / (2j * (a - b))


class CustomModel(CoefficientModel):
    """Wrap a callable j -> (a_j, b_j), or (n, j) -> (a_j, b_j) if n-dependent; unchecked."""

    def __init__(self, fn, description: str, n_dependent: bool = False):
        self.fn = fn
        self.description = description
        self.n_dependent = n_dependent

    def coeff_at(self, j, n=None):
        if self.n_dependent and n is None:
            raise InvalidCoefficient("order context n is required for an n-dependent model")
        pairs = [self.fn(n, k) if self.n_dependent else self.fn(k) for k in j.tolist()]
        return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])

    def describe(self):
        return {"kind": "custom", "description": self.description}


def all_scaled_zeros(model, n, x0=0.0):
    """Every zero of p_n, via a Gershgorin bracket around the full spectrum."""
    diag, off = truncated_tridiagonal(model, n)
    pad = 2.0 * (np.max(np.abs(off)) if off.size else 0.0) + 1.0
    window = n * max(abs(float(np.min(diag) - pad) - x0), abs(float(np.max(diag) + pad) - x0))
    return scaled_zeros(model, n, x0, window)


def two_step_factor(v, n):
    """Product of one upper and one lower shear: ((1 + v^2, v), (v, 1)), v = V/n."""
    vn = v / n
    return np.array([[1.0 + vn * vn, vn], [vn, 1.0]])


def limit_coefficient(v, s):
    """Limit of the diagonalized-frame coefficients: ((0, -e^{sV}/2), (e^{-sV}/2, 0))."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must lie in [0, 1]")
    return np.array([[0.0, -0.5 * math.exp(s * v)], [0.5 * math.exp(-s * v), 0.0]])


def limit_coefficient_integral(v, t):
    """Exact int_0^t of the limit coefficient."""
    if v == 0.0:
        top, bot = -0.5 * t, 0.5 * t
    else:
        top = -(math.exp(t * v) - 1.0) / (2.0 * v)
        bot = (1.0 - math.exp(-t * v)) / (2.0 * v)
    return np.array([[0.0, top], [bot, 0.0]])
