"""Continuum canonical systems on [0, 1] and their de Branges kernels.

A canonical system is the family of ODEs J u'(t) = z H(t) u(t) with J the
rotation by pi/2 and H(t) symmetric nonnegative definite. The solutions with
u(0) = (1, 0)^t generate a reproducing kernel of entire functions in three
interchangeable ways:

  * determinant form   det(u(1, a), u(1, b)) / (a - b),
  * integral form      int_0^1 (u(t, conj(a)))^* H(t) u(t, b) dt,
  * Hermite-Biehler    from E(z) = u1(1, z) + i u2(1, z).

kernel_grid computes the determinant form; the other two are independent
references, in tests/references.py.

Solvers: a piecewise-constant H, constant H included, is solved exactly, one
scan.blocked_scan step per piece: on a piece of width d the flow is
exp(d z J^{-1} H) = cos(w d z) Id + sin(w d z)/w J^{-1} H, w = sqrt(det H),
as the trace-free J^{-1} H squares to -det(H) Id. So is the cosh/sinh system,
a gauge transform of a constant one. Any other H, which only library code can
pass in, is solved by a classical fixed-step fourth-order Runge-Kutta
integrator; fixed steps keep runs bit-reproducible.

The system is linear in Q, so one RK4 step multiplies Q by I + D(z), with
D(z) = z C1 + z^2 C2 + z^3 C3 + z^4 C4. The C_k are real 2x2 matrices built
from the step's three stage generators; H takes arrays of t, so they come for
all steps from three calls, independently of z. The solution is the ordered
product of these factors, which scan.blocked_scan forms in increment form, as
it forms the finite-n transfer products: one scan per window of steps and
chunk of z, whose snapshots are the t grid, in real arithmetic for real z.
kernel_grid solves once when its a and b grids are equal.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import partial

import numpy as np

from .cdkernel import _check_distinct
from .errors import NotPSD
# not used here; bench/tests asserts that its tracer rebinds canonical.poly_table
from .jacobi import poly_table  # noqa: F401
from .mat2 import symmetric_eig_bounds
from .scan import blocked_scan
from .transfer import _check_t_grid

PSD_SAMPLE_TOL = 1e-12
SOLVE_CONSTANT_PSD_TOL = 1e-10
DEFAULT_MAX_STEP = 1e-3
# smallest max_step: 10^6 steps per unit t, since the step grid is allocated whole
MIN_MAX_STEP = 1e-6
CONFLUENT_FD_STEP = 1e-5
STEP_BLOCK_VALUES = 4096  # steps per set of coefficients, which bounds their memory
SCAN_PAIRS = 6144  # (block, z) pairs per RK4 scan, which bound the scan's state
# grid rows per near-coincidence check in kernel_grid: bounds its temporaries
COINCIDENCE_ROWS = 16


def _check_psd(h, tol: float, where=lambda k: "") -> np.ndarray:
    """The stack h (K, 2, 2) as floats, after checking each value: finite, symmetric, >= -tol.

    The first failing value k is named, at where(k), with its first failing check.
    """
    if isinstance(h, list) and len({np.shape(v) for v in h}) > 1:  # numpy's error would not say so
        raise ValueError("Hamiltonian values must be 2x2")
    m = np.array(h, dtype=float)
    if m.ndim != 3 or m.shape[1:] != (2, 2):
        raise ValueError("Hamiltonian values must be 2x2")
    with np.errstate(over="ignore", invalid="ignore"):  # the failing value is named below
        finite = np.isfinite(m).all(axis=(1, 2))
        # both comparisons are written to fail on NaN
        symmetric = np.abs(m[:, 0, 1] - m[:, 1, 0]) <= 1e-12 * np.maximum(1.0, np.abs(m[:, 0, 1]))
        lo, _ = symmetric_eig_bounds(m)
        ok = finite & symmetric & (lo >= -tol)
    if not ok.all():
        k = int(np.argmin(ok))
        if not finite[k]:
            raise NotPSD(f"Hamiltonian value{where(k)} is not finite")
        if not symmetric[k]:
            raise ValueError(f"Hamiltonian value{where(k)} is not symmetric")
        raise NotPSD(f"Hamiltonian value{where(k)} has eigenvalue {lo[k]:.3e} < -{tol:g}"
                     f" (largest entry {np.max(np.abs(m[k])):.3e})")
    return m


class CanonicalSystem:
    """Base class: a Hamiltonian t -> H(t) on [0, 1], H(t) >= 0."""

    def H(self, t) -> np.ndarray:
        """H at a time or an array of times, shape t.shape + (2, 2)."""
        raise NotImplementedError

    def integral(self, t) -> np.ndarray:
        """Exact (for the built-ins) value of int_0^t H(s) ds, shape t.shape + (2, 2)."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Interior discontinuities of H."""
        return ()

    def to_dict(self) -> dict:
        raise NotImplementedError


class PiecewiseConstantHamiltonian(CanonicalSystem):
    """Constant on [t_k, t_{k+1}) for breakpoints 0 = t_0 < ... < t_K = 1; solved exactly."""

    def __init__(self, edges, matrices):
        self.edges = np.asarray(edges, dtype=float)
        if self.edges.ndim != 1 or len(self.edges) != len(matrices) + 1:
            raise ValueError("need len(edges) == len(matrices) + 1")
        if self.edges[0] != 0.0 or self.edges[-1] != 1.0 or np.any(np.diff(self.edges) <= 0):
            raise ValueError("edges must increase strictly from 0 to 1")
        self.matrices = _check_psd(matrices, PSD_SAMPLE_TOL, lambda k: f" on piece {k}")
        self.widths = np.diff(self.edges)
        self._cum = np.zeros((len(self.widths) + 1, 2, 2))
        np.cumsum(self.widths[:, None, None] * self.matrices, axis=0, out=self._cum[1:])

    def _piece(self, t):
        return np.clip(np.searchsorted(self.edges, t, side="right") - 1, 0, len(self.matrices) - 1)

    def H(self, t):
        return self.matrices[self._piece(t)]

    def integral(self, t):
        k = self._piece(t)
        return self._cum[k] + (t - self.edges[k])[..., None, None] * self.matrices[k]

    def breakpoints(self):
        return tuple(float(e) for e in self.edges[1:-1])

    def to_dict(self):
        return {"kind": "piecewise", "edges": self.edges.tolist(),
                "matrices": self.matrices.tolist()}


class ConstantHamiltonian(PiecewiseConstantHamiltonian):
    """One piece on [0, 1]."""

    def __init__(self, h):
        super().__init__([0.0, 1.0], [h])

    def to_dict(self):
        return {"kind": "constant", "h": self.matrices[0].tolist()}


class CoshSinhHamiltonian(CanonicalSystem):
    """H(t) = ((cosh(tV), sinh(tV)), (sinh(tV), cosh(tV))) / 2.

    Eigenvalues exp(+-tV)/2 > 0, so the value is positive definite for all t.
    This is the scaling limit of the alternating-sign coefficient family.
    """

    def __init__(self, v: float):
        if v < 0 or not math.isfinite(v):
            raise ValueError("coupling V must be finite and nonnegative")
        self.v = float(v)

    def H(self, t):
        with np.errstate(over="raise"):  # FloatingPointError is an ArithmeticError
            c = 0.5 * np.cosh(t * self.v)
            s = 0.5 * np.sinh(t * self.v)
        return np.stack([np.stack([c, s], -1), np.stack([s, c], -1)], -2)

    def integral(self, t):
        if self.v == 0.0:
            return np.multiply.outer(0.5 * np.asarray(t), np.eye(2))
        with np.errstate(over="raise"):
            c = 0.5 * np.sinh(t * self.v) / self.v
            s = 0.5 * (np.cosh(t * self.v) - 1.0) / self.v
        return np.stack([np.stack([c, s], -1), np.stack([s, c], -1)], -2)

    def to_dict(self):
        return {"kind": "cosh-sinh", "v": self.v}


def system_from_dict(d: dict) -> CanonicalSystem:
    """The system of a ``to_dict`` value; a malformed value raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"a canonical system is a JSON object, not {type(d).__name__}")
    kind = d.get("kind")
    try:
        if kind == "constant":
            return ConstantHamiltonian(d["h"])
        if kind == "piecewise":
            return PiecewiseConstantHamiltonian(d["edges"], d["matrices"])
        if kind == "cosh-sinh":
            return CoshSinhHamiltonian(d["v"])
    except KeyError as exc:
        raise ValueError(f"canonical system of kind {kind!r} needs key {exc.args[0]!r}") from None
    raise ValueError(f"unknown canonical system kind {kind!r}")


def _generator(harr: np.ndarray) -> np.ndarray:
    """J^{-1} H for symmetric 2x2 H, over leading axes."""
    return np.stack([np.stack([harr[..., 0, 1], harr[..., 1, 1]], axis=-1),
                     np.stack([-harr[..., 0, 0], -harr[..., 0, 1]], axis=-1)], axis=-2)


def _flow_factor(h, c) -> np.ndarray:
    """exp(c J^{-1} H) over the broadcast axes of H (..., 2, 2) and complex c, shape (..., 2, 2).

    J^{-1} H is trace free with determinant det H >= 0, so by Cayley-Hamilton this is
    cos(w c) Id + sin(w c)/w J^{-1} H with w = sqrt(det H), and Id + c J^{-1} H for w = 0.
    """
    h11, h12, h22 = h[..., 0, 0], h[..., 0, 1], h[..., 1, 1]
    w = np.sqrt(np.maximum(h11 * h22 - h12 * h12, 0.0))
    cos_part = np.where(w == 0.0, 1.0, np.cos(w * c))
    sin_part = np.where(w == 0.0, c, np.sin(w * c) / np.where(w == 0.0, 1.0, w))
    # J^{-1} H = ((h12, h22), (-h11, -h12))
    out = np.empty(cos_part.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = cos_part + sin_part * h12
    out[..., 0, 1] = sin_part * h22
    out[..., 1, 0] = -sin_part * h11
    out[..., 1, 1] = cos_part - sin_part * h12
    return out


def constant_solution_batch(h, zs, ts) -> np.ndarray:
    """Closed-form solutions exp(z t J^{-1} H) of a constant H, shape (len(ts), len(zs), 2, 2)."""
    arr = _check_psd([h], SOLVE_CONSTANT_PSD_TOL)[0]
    return _flow_factor(arr, np.asarray(ts, dtype=float)[:, None] * np.asarray(zs, dtype=complex))


def _exact_flow(system: PiecewiseConstantHamiltonian, zs, t_grid) -> np.ndarray:
    """Q(t) = exp((t - t_k) z J^{-1} H_k) Q(t_k) on piece k; the Q(t_k) by one blocked_scan."""
    ts = np.array(_check_t_grid([float(t) for t in t_grid]), dtype=float)
    zs = np.asarray(zs, dtype=complex)
    k = system._piece(ts)  # the piece of each t

    def step(x, h, width):  # F x, for h (rows, 1, 2, 2) and width (rows, 1)
        f = _flow_factor(h, width * zs).transpose(2, 3, 0, 1)  # (i, j, rows, z)
        return f[:, :1] * x[0] + f[:, 1:] * x[1]

    with np.errstate(over="ignore", invalid="ignore"):
        start = np.eye(2, dtype=complex)[..., None].repeat(zs.size, axis=2)  # Q[i, j] over z
        starts = blocked_scan(len(system.widths), start, step, (system.matrices, system.widths), k)
        rest = (ts - system.edges[k])[:, None] * zs  # (t, z)
        out = _flow_factor(system.matrices[k, None], rest) @ starts
        return _check_finite(out, zs)


def _check_finite(out, zs, solver="exact") -> np.ndarray:
    if not np.all(np.isfinite(out)):
        raise ArithmeticError(f"{solver} solution overflows for |z| up to {np.max(np.abs(zs)):g}")
    return out


def _coshsinh_flow(system: CoshSinhHamiltonian, zs, t_grid) -> np.ndarray:
    """Q(t) = R diag(e^{-Vt/2}, e^{Vt/2}) exp(tA) R^t, R the rotation by pi/4, A = ((V/2, z/2),
    (-z/2, -V/2)). A^2 = kappa^2 Id, kappa = sqrt((V^2 - z^2)/4), Re kappa >= 0, so exp(tA) =
    cosh(kappa t) Id + S A, S = sinh(kappa t)/kappa (t at kappa = 0). Its entry cosh(kappa t) -
    (V/2) S cancels for |z| << V and is formed as exp(-kappa t) - (z^2/4)/(V/2 + kappa) S.
    """
    ts = np.array(_check_t_grid([float(t) for t in t_grid]), dtype=float)[:, None]
    zs = np.asarray(zs, dtype=complex)
    half, zh = 0.5 * system.v, 0.5 * zs
    rot = np.array([[1.0, -1.0], [1.0, 1.0]])  # sqrt(2) R
    with np.errstate(all="ignore"):  # an overflow is named by _check_finite
        kappa = np.sqrt((half - zh) * (half + zh))
        kt = kappa * ts
        s = np.where(kappa == 0, ts, np.sinh(kt) / np.where(kappa == 0, 1.0, kappa))
        # V/2 + kappa = 0 only at V = z = 0, where the term is 0
        ratio = np.divide(zh * zh, half + kappa, out=np.zeros_like(kappa), where=kappa != -half)
        lo, hi = np.exp(-half * ts), np.exp(half * ts)  # m = diag(lo, hi) exp(tA)
        m = np.stack([np.stack([lo * (np.cosh(kt) + half * s), lo * zh * s], -1),
                      np.stack([-hi * zh * s, hi * (np.exp(-kt) - ratio * s)], -1)], -2)
        return _check_finite(0.5 * (rot @ m @ rot.T), zs)


def _step_grid(t_grid, max_step: float):
    """Start and length of every RK4 step, uniform between t grid points, and {steps: t}."""
    path = sorted({0.0, *_check_t_grid([float(t) for t in t_grid])})
    lo, hi = np.array(path[:-1]), np.array(path[1:])
    m = np.maximum(1, np.ceil((hi - lo) / max_step - 1e-12)).astype(int)
    step = (hi - lo) / m
    reached = np.cumsum(m)
    seg = np.repeat(np.arange(m.size), m)
    first = np.arange(reached[-1] if m.size else 0) - (reached - m)[seg]
    return lo[seg] + first * step[seg], step[seg], dict(zip(reached.tolist(), path[1:]))


def _step_coefficients(system: CanonicalSystem, t_lo: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Real coefficients C1..C4 of the steps [t_lo, t_lo + h], shape (4, len(h), 2, 2).

    One RK4 step with stage generators m0, m1, m2 = J^{-1} H at t, t + h/2,
    t + h is exactly Q -> Q + (z C1 + z^2 C2 + z^3 C3 + z^4 C4) Q.
    """
    m0, m1, m2 = (_generator(system.H(t_lo + f * h)) for f in (0.0, 0.5, 1.0))
    h = h[:, None, None]
    m1m0 = m1 @ m0
    m1m1 = m1 @ m1
    return np.stack([
        h / 6.0 * (m0 + 4.0 * m1 + m2),
        h ** 2 / 6.0 * (m1m0 + m1m1 + m2 @ m1),
        h ** 3 / 12.0 * (m1 @ m1m0 + m2 @ m1m1),
        h ** 4 / 24.0 * (m2 @ (m1 @ m1m0)),
    ])


def solve_ode_batch(system: CanonicalSystem, zs, t_grid,
                    max_step: float = DEFAULT_MAX_STEP) -> np.ndarray:
    """Solutions of J Q' = z H(t) Q, Q(0) = I, for many z at once.

    Returns shape (len(t_grid), len(zs), 2, 2). A piecewise-constant system is
    solved exactly (_exact_flow), the cosh/sinh one in closed form
    (_coshsinh_flow). RK4 serves only the other systems, which only library
    code passes in: steps of at most ``max_step`` (checked for all systems).
    Step k multiplies Q by I + D_k(z), D_k(z) = z C1 + z^2 C2 + z^3 C3 +
    z^4 C4. Each window of STEP_BLOCK_VALUES steps and balanced chunk of at
    most SCAN_PAIRS // isqrt(window) zs is one blocked_scan in increment form,
    whose snapshots are the t grid's steps and the window's last, which starts
    the next window. A scan step forms the D_k of its rows by one real matrix
    product of their C_k, a view of the window's (steps, 4, 4) array, with the
    powers of z. So a z's result does not depend on the batch of two or more it
    is solved in, and real zs are solved in real arithmetic, to the bit as in a
    complex run of the values.
    """
    if not MIN_MAX_STEP <= max_step <= DEFAULT_MAX_STEP + 1e-15:
        raise ValueError(f"max_step {max_step!r} is outside [MIN_MAX_STEP, DEFAULT_MAX_STEP]"
                         f" = [{MIN_MAX_STEP:g}, {DEFAULT_MAX_STEP:g}]")
    if isinstance(system, PiecewiseConstantHamiltonian):
        return _exact_flow(system, zs, t_grid)
    if isinstance(system, CoshSinhHamiltonian):
        return _coshsinh_flow(system, zs, t_grid)
    zs = np.asarray(zs, dtype=complex if np.iscomplexobj(zs) else float)
    ts = [float(t) for t in t_grid]
    nz = zs.shape[0]
    t_lo, h, ends = _step_grid(ts, max_step)
    snaps = {k: slice(bisect_left(ts, t), bisect_right(ts, t)) for k, t in ends.items()}
    out = np.full((len(ts), nz, 2, 2), np.eye(2), complex)
    Q = np.eye(2, dtype=zs.dtype)[..., None].repeat(nz, axis=2)  # Q[i, j] over z
    with np.errstate(over="ignore", invalid="ignore"):
        z2 = zs * zs
        powers = np.stack([zs, z2, z2 * zs, z2 * z2])
        re, im = np.ascontiguousarray(powers.real), np.ascontiguousarray(powers.imag)

        def increment(x, c, zc):  # D_k x from the rows' C_k, c[row, 0, entry, power]
            # separate real products for real and imaginary parts, as in a real run
            C = c.reshape(-1, 4)
            d = C @ re[:, zc] if zs.dtype == float else C @ re[:, zc] + 1j * (C @ im[:, zc])
            d = d.reshape(-1, 2, 2, d.shape[-1]).transpose(1, 2, 0, 3)  # (i, j, rows, z)
            return d[:, :1] * x[0] + d[:, 1:] * x[1]

        for c0 in range(0, len(h), STEP_BLOCK_VALUES):
            c1 = min(c0 + STEP_BLOCK_VALUES, len(h))
            coeffs = _step_coefficients(system, t_lo[c0:c1], h[c0:c1])  # (4, steps, 2, 2)
            coeffs = coeffs.reshape(4, -1, 4).transpose(1, 2, 0)  # (step, entry, power)
            stops = [k for k in ends if c0 < k <= c1]
            width = SCAN_PAIRS // math.isqrt(c1 - c0)  # at least 96
            bounds = np.linspace(0, nz, -(-nz // width) + 1).astype(int)
            for zc in map(slice, bounds[:-1], bounds[1:]):
                got = blocked_scan(c1 - c0, Q[..., zc], partial(increment, zc=zc), (coeffs,),
                                   [k - c0 for k in stops] + [c1 - c0], increment=True)
                for k, q in zip(stops, got):
                    out[snaps[k], zc] = q
                Q[..., zc] = got[-1].transpose(1, 2, 0)
    return _check_finite(out, zs, "RK4")


def _u_final_batch(system, zs, max_step) -> np.ndarray:
    return solve_ode_batch(system, zs, [1.0], max_step)[0, :, :, 0]  # u(1, zs), (nz, 2)


def _diagonal_kernel_batch(system, zs, max_step, u0=None) -> np.ndarray:
    """K(z, z) = det(u'(z), u(z)) via Richardson-extrapolated central differences.

    ``u0``, if given, is the solution u(1, zs) already solved for this batch.
    """
    if u0 is None:
        u0 = _u_final_batch(system, zs, max_step)
    # central differences of steps CONFLUENT_FD_STEP and half of it
    d_full, d_half = ((_u_final_batch(system, zs + f * CONFLUENT_FD_STEP, max_step)
                       - _u_final_batch(system, zs - f * CONFLUENT_FD_STEP, max_step))
                      / (2.0 * f * CONFLUENT_FD_STEP) for f in (1.0, 0.5))
    du = (4.0 * d_half - d_full) / 3.0
    return du[:, 0] * u0[:, 1] - u0[:, 0] * du[:, 1]


def kernel_grid(system: CanonicalSystem, a_values, b_values,
                max_step: float = DEFAULT_MAX_STEP) -> np.ndarray:
    """Kernel values on a product grid, diagonal cells by the confluent limit.

    Off the diagonal this is det(u(1, a), u(1, b)) / (a - b). Exactly equal
    arguments take the confluent limit -det(u, du/dz) through the
    z-derivative of the solution (finite differences with Richardson
    extrapolation); nearly-equal-but-distinct arguments raise
    CoincidentArguments, since the quotient would be catastrophically
    cancelled.
    """
    a_arr = np.atleast_1d(np.asarray(a_values))
    b_arr = np.atleast_1d(np.asarray(b_values))
    # exactly equal pairs are masked out; the first near pair is named in a-major order
    for lo in range(0, a_arr.size, COINCIDENCE_ROWS):
        rows = a_arr[lo:lo + COINCIDENCE_ROWS, None]
        _check_distinct(rows, np.where(rows == b_arr, np.inf, b_arr))
    ua = _u_final_batch(system, a_arr, max_step)
    ub = ua if np.array_equal(a_arr, b_arr) else _u_final_batch(system, b_arr, max_step)
    det = ua[:, None, 0] * ub[None, :, 1] - ub[None, :, 0] * ua[:, None, 1]
    diff = a_arr[:, None] - b_arr[None, :]
    coincident = diff == 0
    values = np.divide(det, diff, out=np.zeros_like(det), where=~coincident)
    per_row = coincident.sum(axis=1)
    if per_row.any():
        # on equal grids every point is a diagonal one, and ua is their solve
        diag = _diagonal_kernel_batch(system, a_arr[per_row > 0], max_step,
                                      ua if ub is ua else None)
        values[coincident] = np.repeat(diag, per_row[per_row > 0])  # row-major, as the mask
    return values
