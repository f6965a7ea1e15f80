"""Continuum canonical systems on [0, 1] and their de Branges kernels.

A canonical system is the family of ODEs J u'(t) = z H(t) u(t) with J the
rotation by pi/2 and H(t) symmetric nonnegative definite. The solutions with
u(0) = (1, 0)^t generate a reproducing kernel of entire functions in three
interchangeable ways, all implemented here:

  * determinant form   det(u(1, a), u(1, b)) / (a - b),
  * integral form      int_0^1 (u(t, conj(a)))^* H(t) u(t, b) dt,
  * Hermite-Biehler    from E(z) = u1(1, z) + i u2(1, z).

Solvers: a closed-form matrix exponential for constant H (the trace-free
generator J^{-1} H squares to -det(H) Id), and a classical fixed-step
fourth-order Runge-Kutta integrator for t-dependent H. Fixed steps keep runs
bit-reproducible; all built-in Hamiltonians are smooth or piecewise constant,
and steps never straddle a breakpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cdkernel import _check_distinct
from .errors import NotPSD, WronskianViolation
from .jacobi import TableModel, poly_table
from .mat2 import Mat2, symmetric_eig_bounds

PSD_SAMPLE_TOL = 1e-12
SOLVE_CONSTANT_PSD_TOL = 1e-10
WRONSKIAN_TOL = 1e-10
DEFAULT_MAX_STEP = 1e-3
CONFLUENT_FD_STEP = 1e-5


def _as_matrix(h) -> np.ndarray:
    if isinstance(h, Mat2):
        arr = np.real_if_close(h.to_array())
    else:
        arr = np.asarray(h, dtype=float)
    if arr.shape != (2, 2):
        raise ValueError("Hamiltonian values must be 2x2")
    return arr.astype(float)


def _check_psd(arr: np.ndarray, tol: float, where: str = "") -> np.ndarray:
    if abs(arr[0, 1] - arr[1, 0]) > 1e-12 * max(1.0, abs(arr[0, 1])):
        raise ValueError(f"Hamiltonian value{where} is not symmetric")
    lo, _ = symmetric_eig_bounds(Mat2.from_array(arr))
    if lo < -tol:
        raise NotPSD(f"Hamiltonian value{where} has eigenvalue {lo:.3e} < -{tol:g}")
    return arr


class CanonicalSystem:
    """Base class: a Hamiltonian t -> H(t) on [0, 1], H(t) >= 0."""

    def H(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def integral(self, t: float) -> np.ndarray:
        """Exact (for the built-ins) value of int_0^t H(s) ds."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Interior discontinuities the integrator must not step across."""
        return ()

    def stage_value(self, t_lo: float, t_hi: float, tau: float) -> np.ndarray:
        """H at a Runge-Kutta stage point of the step [t_lo, t_hi]."""
        return self.H(tau)

    def to_dict(self) -> dict:
        raise NotImplementedError


class ConstantHamiltonian(CanonicalSystem):
    def __init__(self, h):
        self.h = _check_psd(_as_matrix(h), PSD_SAMPLE_TOL)

    def H(self, t):
        return self.h

    def integral(self, t):
        return t * self.h

    def to_dict(self):
        return {"kind": "constant", "h": self.h.tolist()}


class PiecewiseConstantHamiltonian(CanonicalSystem):
    """Constant on [t_k, t_{k+1}) for breakpoints 0 = t_0 < ... < t_K = 1."""

    def __init__(self, edges, matrices):
        self.edges = np.asarray(edges, dtype=float)
        if self.edges.ndim != 1 or len(self.edges) != len(matrices) + 1:
            raise ValueError("need len(edges) == len(matrices) + 1")
        if self.edges[0] != 0.0 or self.edges[-1] != 1.0 or np.any(np.diff(self.edges) <= 0):
            raise ValueError("edges must increase strictly from 0 to 1")
        self.matrices = np.stack([
            _check_psd(_as_matrix(m), PSD_SAMPLE_TOL, f" on piece {k}")
            for k, m in enumerate(matrices)])
        widths = np.diff(self.edges)
        self._cum = np.concatenate([
            np.zeros((1, 2, 2)),
            np.cumsum(widths[:, None, None] * self.matrices, axis=0)])

    def _piece(self, t: float) -> int:
        k = int(np.searchsorted(self.edges, t, side="right")) - 1
        return min(max(k, 0), len(self.matrices) - 1)

    def H(self, t):
        return self.matrices[self._piece(t)]

    def stage_value(self, t_lo, t_hi, tau):
        # the step is inside one piece; its midpoint identifies the piece
        # unambiguously even when tau sits on an edge
        return self.matrices[self._piece(0.5 * (t_lo + t_hi))]

    def integral(self, t):
        k = self._piece(t)
        return self._cum[k] + (t - self.edges[k]) * self.matrices[k]

    def breakpoints(self):
        return tuple(float(e) for e in self.edges[1:-1])

    def to_dict(self):
        return {"kind": "piecewise", "edges": self.edges.tolist(),
                "matrices": self.matrices.tolist()}


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
        c = 0.5 * math.cosh(t * self.v)
        s = 0.5 * math.sinh(t * self.v)
        return np.array([[c, s], [s, c]])

    def integral(self, t):
        if self.v == 0.0:
            return 0.5 * t * np.eye(2)
        c = 0.5 * math.sinh(t * self.v) / self.v
        s = 0.5 * (math.cosh(t * self.v) - 1.0) / self.v
        return np.array([[c, s], [s, c]])

    def to_dict(self):
        return {"kind": "cosh-sinh", "v": self.v}


class CallableHamiltonian(CanonicalSystem):
    """Wrap an arbitrary (smooth) t -> 2x2 PSD matrix; values checked per call."""

    def __init__(self, fn, description: str, quad_points: int = 2000):
        self.fn = fn
        self.description = description
        self.quad_points = quad_points

    def H(self, t):
        return _check_psd(_as_matrix(self.fn(t)), PSD_SAMPLE_TOL, f" at t = {t}")

    def integral(self, t):
        if t == 0.0:
            return np.zeros((2, 2))
        m = self.quad_points + (self.quad_points % 2)
        ts = np.linspace(0.0, t, m + 1)
        vals = np.stack([self.H(s) for s in ts])
        wts = _simpson_weights(m, t / m)
        return np.tensordot(wts, vals, axes=(0, 0))

    def to_dict(self):
        return {"kind": "callable", "description": self.description}


def system_from_dict(d: dict) -> CanonicalSystem:
    kind = d.get("kind")
    if kind == "constant":
        return ConstantHamiltonian(np.asarray(d["h"]))
    if kind == "piecewise":
        return PiecewiseConstantHamiltonian(d["edges"], [np.asarray(m) for m in d["matrices"]])
    if kind == "cosh-sinh":
        return CoshSinhHamiltonian(d["v"])
    raise ValueError(f"unknown canonical system kind {kind!r}")


def constant_solution_batch(h, zs, ts) -> np.ndarray:
    """Closed-form solutions exp(z t J^{-1} H) of a constant-coefficient system.

    J^{-1} H is trace free with determinant det H >= 0, so by Cayley-Hamilton
    exp(c J^{-1} H) = cos(w c) Id + sin(w c)/w J^{-1} H with w = sqrt(det H).
    Returns shape (len(ts), len(zs), 2, 2) over spectral values zs and times ts.
    """
    arr = _check_psd(_as_matrix(h), SOLVE_CONSTANT_PSD_TOL)
    h11, h12, h22 = arr[0, 0], arr[0, 1], arr[1, 1]
    w = math.sqrt(max(h11 * h22 - h12 * h12, 0.0))
    zs = np.asarray(zs, dtype=complex)
    ts = np.asarray(ts, dtype=float)
    c = ts[:, None] * zs[None, :]
    if w == 0.0:
        cos_part = np.ones_like(c)
        sin_part = c
    else:
        cos_part = np.cos(w * c)
        sin_part = np.sin(w * c) / w
    # J^{-1} H = ((h12, h22), (-h11, -h12))
    out = np.empty(c.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = cos_part + sin_part * h12
    out[..., 0, 1] = sin_part * h22
    out[..., 1, 0] = -sin_part * h11
    out[..., 1, 1] = cos_part - sin_part * h12
    return out


def _simpson_weights(m: int, h: float) -> np.ndarray:
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _generator(harr: np.ndarray) -> np.ndarray:
    """J^{-1} H for a symmetric 2x2 H."""
    return np.array([[harr[0, 1], harr[1, 1]], [-harr[0, 0], -harr[0, 1]]])


def _integration_path(system: CanonicalSystem, t_grid) -> list[float]:
    ts = [float(t) for t in t_grid]
    if any(t < 0.0 or t > 1.0 for t in ts):
        raise ValueError("t grid must lie in [0, 1]")
    if sorted(ts) != ts:
        raise ValueError("t grid must be sorted")
    t_max = ts[-1] if ts else 0.0
    path = sorted({0.0, *ts, *[b for b in system.breakpoints() if b < t_max]})
    return path


def solve_ode_batch(system: CanonicalSystem, zs, t_grid,
                    max_step: float = DEFAULT_MAX_STEP) -> np.ndarray:
    """RK4 integration of J Q' = z H(t) Q for many z at once.

    Returns shape (len(t_grid), len(zs), 2, 2). Steps are uniform within each
    segment of the path (grid points plus Hamiltonian breakpoints) and never
    longer than ``max_step``.
    """
    if not 0 < max_step <= 1e-3 + 1e-15:
        raise ValueError("max_step must be in (0, 1e-3]")
    zs = np.asarray(zs, dtype=complex)
    ts = [float(t) for t in t_grid]
    path = _integration_path(system, ts)
    nz = zs.shape[0]
    Q = np.broadcast_to(np.eye(2, dtype=complex), (nz, 2, 2)).copy()
    zcol = zs[:, None, None]
    results = {0.0: Q.copy()}
    for lo, hi in zip(path[:-1], path[1:]):
        m = max(1, math.ceil((hi - lo) / max_step - 1e-12))
        h = (hi - lo) / m
        for i in range(m):
            t = lo + i * h
            m0 = _generator(system.stage_value(t, t + h, t))
            m1 = _generator(system.stage_value(t, t + h, t + 0.5 * h))
            m2 = _generator(system.stage_value(t, t + h, t + h))
            k1 = zcol * (m0 @ Q)
            k2 = zcol * (m1 @ (Q + 0.5 * h * k1))
            k3 = zcol * (m1 @ (Q + 0.5 * h * k2))
            k4 = zcol * (m2 @ (Q + h * k3))
            Q = Q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        results[hi] = Q.copy()
    return np.stack([results[t] for t in ts]) if ts else np.empty((0, nz, 2, 2), complex)


def _u_final_batch(system, zs, max_step) -> np.ndarray:
    qs = solve_ode_batch(system, zs, [1.0], max_step)
    return qs[0, :, :, 0]  # first columns, shape (nz, 2)


def _diagonal_kernel_batch(system, zs, max_step,
                           fd_step: float = CONFLUENT_FD_STEP) -> np.ndarray:
    """K(z, z) = det(u'(z), u(z)) via Richardson-extrapolated central differences."""
    zs = np.asarray(zs, dtype=complex)
    u0 = _u_final_batch(system, zs, max_step)
    d_full = (_u_final_batch(system, zs + fd_step, max_step)
              - _u_final_batch(system, zs - fd_step, max_step)) / (2.0 * fd_step)
    d_half = (_u_final_batch(system, zs + 0.5 * fd_step, max_step)
              - _u_final_batch(system, zs - 0.5 * fd_step, max_step)) / fd_step
    du = (4.0 * d_half - d_full) / 3.0
    return du[:, 0] * u0[:, 1] - u0[:, 0] * du[:, 1]


def kernel_integral_form(system: CanonicalSystem, a, b,
                         max_step: float = DEFAULT_MAX_STEP) -> complex:
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
        hs.append(np.stack([system.stage_value(lo, hi, t) for t in seg]))
    ts = np.concatenate(ts)
    weights = np.concatenate(weights)
    hs = np.concatenate(hs)
    qs = solve_ode_batch(system, [np.conj(complex(a)), complex(b)], ts, max_step)
    ua = np.conj(qs[:, 0, :, 0])
    ub = qs[:, 1, :, 0]
    integrand = np.einsum("ti,tij,tj->t", ua, hs, ub)
    return complex(np.dot(weights, integrand))


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
    a_arr = np.atleast_1d(np.asarray(a_values, dtype=complex))
    b_arr = np.atleast_1d(np.asarray(b_values, dtype=complex))
    for a in a_arr:
        _check_distinct(a, b_arr[b_arr != a])
    ua = _u_final_batch(system, a_arr, max_step)
    ub = _u_final_batch(system, b_arr, max_step)
    det = ua[:, None, 0] * ub[None, :, 1] - ub[None, :, 0] * ua[:, None, 1]
    diff = a_arr[:, None] - b_arr[None, :]
    coincident = diff == 0
    values = np.divide(det, diff, out=np.zeros_like(det), where=~coincident)
    if np.any(coincident):
        idx_a = np.nonzero(coincident.any(axis=1))[0]
        diag = _diagonal_kernel_batch(system, a_arr[idx_a], max_step)
        for k, i in enumerate(idx_a):
            values[i, coincident[i]] = diag[k]
    return values


def hermite_biehler(system: CanonicalSystem, z,
                    max_step: float = DEFAULT_MAX_STEP) -> complex:
    """E(z) = u1(1, z) + i u2(1, z); entire and zero free in the upper half plane."""
    u = _u_final_batch(system, [complex(z)], max_step)[0]
    return complex(u[0] + 1j * u[1])


def hb_kernel(system: CanonicalSystem, a, b,
              max_step: float = DEFAULT_MAX_STEP) -> complex:
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


@dataclass(frozen=True)
class RSSequence:
    """Real sequences (r_ell, s_ell) with discrete Wronskian 1/a_ell.

    ``a[0]`` is the normalization a_0 = 1; ``a[ell]`` for ell >= 1 are the
    off-diagonal coefficients of the Jacobi matrix the sequence encodes.
    """

    r: np.ndarray
    s: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        s = np.asarray(self.s, dtype=float)
        a = np.asarray(self.a, dtype=float)
        if not (len(r) == len(s) == len(a)):
            raise ValueError("r, s, a must have equal length")
        if len(a) == 0 or a[0] != 1.0:
            raise ValueError("need a_0 = 1")
        if np.any(a <= 0):
            raise ValueError("off-diagonal coefficients must be positive")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "a", a)
        res = self.wronskian_residual()
        if res > WRONSKIAN_TOL:
            raise WronskianViolation(
                f"max |s_l r_(l-1) - r_l s_(l-1) - 1/a_l| = {res:.3e} > {WRONSKIAN_TOL:g}")

    def __len__(self) -> int:
        return len(self.r)

    def wronskian_residual(self) -> float:
        if len(self) < 2:
            return 0.0
        lhs = self.s[1:] * self.r[:-1] - self.r[1:] * self.s[:-1]
        return float(np.max(np.abs(lhs - 1.0 / self.a[1:])))


def rs_from_model(model, up_to: int, n: int | None = None) -> RSSequence:
    """The pair (p_ell(0), q_ell(0)) of a model, packaged with its a-coefficients."""
    P, Q = poly_table(model, np.array([0.0]), up_to, n)
    a, _ = model.coeff_arrays(up_to, n)
    return RSSequence(r=P[:, 0], s=Q[:, 0], a=np.concatenate([[1.0], a]))


def discrete_to_jacobi(rs: RSSequence) -> TableModel:
    """Jacobi matrix encoded by an (r, s) pair.

    Off-diagonals are the given a_ell; diagonals come from
    b_ell = a_ell a_{ell-1} (r_ell s_{ell-2} - s_ell r_{ell-2}), where the
    ell = 1 case uses the initial data (r_{-1}, s_{-1}) = (0, -1/a_0) implied
    by r_0 = 1.
    """
    m = len(rs) - 1  # number of coefficient pairs recoverable
    if m < 1:
        raise ValueError("need at least (r_0, r_1) to recover coefficients")
    b = np.empty(m)
    b[0] = -rs.a[1] * rs.r[1] * rs.a[0]
    for ell in range(2, m + 1):
        b[ell - 1] = rs.a[ell] * rs.a[ell - 1] * (
            rs.r[ell] * rs.s[ell - 2] - rs.s[ell] * rs.r[ell - 2])
    return TableModel(rs.a[1:m + 1], b)


def polys_from_rs(rs: RSSequence, x, up_to: int | None = None) -> np.ndarray:
    """Orthonormal polynomial values rebuilt from the discrete canonical system.

    Solves J (u_{ell+1} - u_ell) = x Hhat_ell u_ell with u_0 = (1, 0)^t and
    the rank-one coefficients built from (r_ell, s_ell), then evaluates
    p_ell(x) = r_ell u_{ell,1} - s_ell u_{ell,2}.
    """
    if up_to is None:
        up_to = len(rs) - 1
    x = complex(x)
    u1, u2 = 1.0 + 0.0j, 0.0j
    out = np.empty(up_to + 1, dtype=complex)
    out[0] = rs.r[0] * u1 - rs.s[0] * u2
    for ell in range(up_to):
        r, s = rs.r[ell], rs.s[ell]
        nu1 = u1 + x * (-r * s * u1 + s * s * u2)
        nu2 = u2 + x * (-r * r * u1 + r * s * u2)
        u1, u2 = nu1, nu2
        out[ell + 1] = rs.r[ell + 1] * u1 - rs.s[ell + 1] * u2
    return out
