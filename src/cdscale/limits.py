"""Convergence diagnostics and the scaled-limit equivalence checker.

The scaled transfer-matrix dynamics converge to a canonical system exactly
when the running integrals of the discrete coefficients converge to those of
a limit Hamiltonian. This module turns the hypotheses of that convergence
machinery into measured statistics on a concrete coefficient sequence:

  * avg_norm       mean of ||H_ell|| over ell < n,
  * max_over_n     max ||H_ell|| / n (must vanish for bounded sequences),
  * decay_profile  per L, the largest sum of ||H_j|| / n over L windows of
                   about n/L indices, neighbours sharing one (DiagnosticsReport),
  * matrix_conv    sup_t || int_0^t (H_[ns] - A(s)) ds || against a candidate.

It also builds the candidate limits themselves (Cesaro mean, piecewise
binned estimate) and checks the equivalence between sine-kernel asymptotics
of the scaled CD kernel and convergence of Q_[tn](a/n) to the constant-H
rotation flow determined by the bulk data (w, rho, Re F) at the point.

Beyond the h sequence itself, the diagnostics hold the (n + 1, 2, 2) partial
sums S_m = sum_{j < m} H_j and a few 1-D arrays of length n: each entry of
S_m is one cumsum of p^2, -pq or q^2, and the candidate is compared in blocks
of CONV_ROWS grid points.

Boundedness of the generating polynomial values is a hypothesis of the
compactness machinery, not something finite data can certify; the reports
expose sup ||H_ell|| as a heuristic proxy only. The sine-kernel equivalence
itself does not require that boundedness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cdkernel
from .canonical import (CanonicalSystem, PiecewiseConstantHamiltonian,
                        constant_solution_batch)
from .mat2 import operator_norm
from .transfer import DiscreteHSequence, h_sequence, q_snapshots

BPD_DET_TOL = 1e-10
# Grid points of the candidate comparison evaluated at once in diagnostics;
# its temporaries stay near 1 MB whatever n is.
CONV_ROWS = 4096


@dataclass(frozen=True)
class BulkPointData:
    """Strong-Lebesgue-point data (x0, w, rho, Re F) and the derived w-tilde.

    w is the a.c. density at x0, rho the limiting zero density, reF the real
    part of the boundary Stieltjes transform. The second-kind density is
    wtilde = w / (pi^2 w^2 + reF^2), and the implied constant Hamiltonian

        H = ((rho/w, reF rho/w), (reF rho/w, rho/wtilde))

    has det H = (pi rho)^2 up to rounding, which is checked.
    """

    x0: float
    w: float
    rho: float
    reF: float = 0.0

    def __post_init__(self):
        if not (self.w > 0 and self.rho > 0):  # NaN too
            raise ValueError("w and rho must be positive")
        h = self.hamiltonian()
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        target = (math.pi * self.rho) ** 2
        if not abs(det - target) <= BPD_DET_TOL * max(1.0, target):
            raise ValueError(f"det H = {det} violates (pi rho)^2 = {target}")

    @property
    def wtilde(self) -> float:
        return self.w / (math.pi ** 2 * self.w ** 2 + self.reF ** 2)

    def hamiltonian(self) -> np.ndarray:
        off = self.reF * self.rho / self.w
        return np.array([[self.rho / self.w, off], [off, self.rho / self.wtilde]])

    def to_dict(self) -> dict:
        return {"x0": self.x0, "w": self.w, "rho": self.rho,
                "reF": self.reF, "wtilde": self.wtilde}


@dataclass
class DiagnosticsReport:
    """Measured convergence statistics for one coefficient sequence.

    Window k < L of decay_profile sums ||H_j|| over j = floor(nk/L)..floor(n(k+1)/L),
    both ends included and the last clipped to n - 1.
    """

    n: int
    x0: float
    avg_norm: float
    max_over_n: float
    sup_norm: float  # boundedness heuristic: sup of p^2 + q^2 over ell < n
    decay_profile: list  # of (L, largest window sum / n)
    matrix_conv: float | None
    cesaro_h: np.ndarray  # shape (2, 2)
    candidate: dict | None = None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "x0": self.x0,
            "avg_norm": self.avg_norm,
            "max_over_n": self.max_over_n,
            "sup_norm": self.sup_norm,
            "decay_profile": [[int(L), float(v)] for L, v in self.decay_profile],
            "matrix_conv": self.matrix_conv,
            "cesaro_h": self.cesaro_h.tolist(),
            "candidate": self.candidate,
        }


def _h_partials(h_seq: DiscreteHSequence, n: int) -> np.ndarray:
    """Partial sums S_m = sum_{j < m} H_j for m = 0..n, shape (n+1, 2, 2), one cumsum per entry."""
    p, q = h_seq.ps[:n], h_seq.qs[:n]
    out = np.zeros((n + 1, 2, 2))
    np.cumsum(p * p, out=out[1:, 0, 0])
    np.cumsum(-p * q, out=out[1:, 0, 1])
    out[1:, 1, 0] = out[1:, 0, 1]
    np.cumsum(q * q, out=out[1:, 1, 1])
    return out


def piecewise_estimate(h_seq: DiscreteHSequence, n: int, bins: int) -> CanonicalSystem:
    """Piecewise-constant Hamiltonian estimate with ``bins`` equal time bins.

    Bin k holds (bins/n) sum of H_j over j in [floor(nk/bins), floor(n(k+1)/bins)).
    Each bin matrix is an average of PSD rank-one matrices, hence PSD. With a
    single bin this is the Cesaro mean.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    partials = _h_partials(h_seq, n)
    edges_j = [int(math.floor(n * k / bins)) for k in range(bins + 1)]
    mats = [(partials[edges_j[k + 1]] - partials[edges_j[k]]) * (bins / n)
            for k in range(bins)]
    edges_t = np.arange(bins + 1) / bins
    return PiecewiseConstantHamiltonian(edges_t, mats)


def diagnostics(h_seq: DiscreteHSequence, n: int,
                candidate: CanonicalSystem | None = None,
                L_list=(2, 5, 10, 50)) -> DiagnosticsReport:
    """Evaluate the convergence-hypothesis statistics on H_0..H_{n-1}.

    The candidate comparison runs over blocks of CONV_ROWS grid points; a NaN
    in any block makes matrix_conv NaN, as one max over all points would.
    """
    if n > len(h_seq):
        raise ValueError("h sequence too short")
    norms = h_seq.norms()[:n]
    cum_norms = np.concatenate([[0.0], np.cumsum(norms)])
    avg_norm = float(cum_norms[n] / n)
    sup_norm = float(np.max(norms))
    profile = []
    for L in L_list:
        worst = 0.0
        for k in range(int(L)):
            lo = int(math.floor(n * k / L))
            hi = min(int(math.floor(n * (k + 1) / L)), n - 1)
            worst = max(worst, float(cum_norms[hi + 1] - cum_norms[lo]) / n)
        profile.append((int(L), worst))
    partials = _h_partials(h_seq, n)
    matrix_conv = None
    cand_dict = None
    if candidate is not None:
        cand_dict = candidate.to_dict()
        block_max = []
        for lo in range(0, n + 1, CONV_ROWS):
            hi = min(lo + CONV_ROWS, n + 1)
            try:
                cand = candidate.integral(np.arange(lo, hi) / n)
            except ArithmeticError as exc:
                raise ArithmeticError(f"candidate {cand_dict} overflows on [0, 1]: {exc}") from None
            block_max.append(np.max(operator_norm(partials[lo:hi] / n - cand)))
        matrix_conv = float(np.max(block_max))
    return DiagnosticsReport(
        n=n, x0=h_seq.x0, avg_norm=avg_norm, max_over_n=sup_norm / n,
        sup_norm=sup_norm, decay_profile=profile, matrix_conv=matrix_conv,
        cesaro_h=partials[n] / n,
        candidate=cand_dict)


@dataclass
class EquivalenceReport:
    """Per-order statistics for the two faces of the scaled-limit equivalence.

    ``kernel_stat`` is the sup distance of the scaled CD kernel grid to the
    sine kernel; ``flow_stat`` is the sup over (t, a) of the operator-norm
    distance between Q_[tn](a/n) and the constant-H canonical flow.
    """

    n_list: list
    kernel_stat: list
    flow_stat: list
    bulk: dict

    @property
    def kernel_decreasing(self) -> bool:
        return all(b < a for a, b in zip(self.kernel_stat, self.kernel_stat[1:]))

    @property
    def flow_decreasing(self) -> bool:
        return all(b < a for a, b in zip(self.flow_stat, self.flow_stat[1:]))


def flow_deviation(model, n: int, x0: float, h: np.ndarray, a_grid, t_grid) -> float:
    """sup_(t, a) || Q_[tn](x0 + a/n) - exp(a t J^{-1} H) || for a constant candidate.

    Raises ArithmeticError, naming the first t whose snapshot is not finite,
    when the products overflow (off the bulk) instead of returning NaN.
    """
    seq = h_sequence(model, x0, n, n)
    actual = q_snapshots(seq, n, a_grid, t_grid)
    reference = constant_solution_batch(h, a_grid, t_grid)
    dev = operator_norm(actual - reference)
    finite = np.isfinite(dev).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        t = float(np.asarray(t_grid, dtype=float)[k])
        raise ArithmeticError(f"flow snapshot t = {t:.6g} (step {math.floor(t * n)}) is not "
                              f"finite (x0 = {x0}, n = {n})")
    return float(np.max(dev))


def check_equivalence(model, n_list, x0: float, bpd: BulkPointData,
                      a_grid=None, t_grid=None) -> EquivalenceReport:
    """Measure both equivalence statistics across a list of truncation orders.

    The rotation flow reference is the closed-form solution of the constant
    system built from the bulk data. Default grids are 101 uniform points on
    [-5, 5] for a and on [0, 1] for t.
    """
    if a_grid is None:
        a_grid = np.linspace(-5.0, 5.0, 101)
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.0, 101)
    a_grid = np.asarray(a_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    h = bpd.hamiltonian()
    kernel_stat = []
    flow_stat = []
    for n in n_list:
        grid = cdkernel.scaled_grid(model, int(n), x0, a_grid, a_grid)
        kernel_stat.append(cdkernel.sine_compare(grid, bpd.rho, bpd.w))
        flow_stat.append(flow_deviation(model, int(n), x0, h, a_grid, t_grid))
    return EquivalenceReport(n_list=list(n_list), kernel_stat=kernel_stat,
                             flow_stat=flow_stat, bulk=bpd.to_dict())
