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

Beyond the h sequence, the diagnostics hold the norms and their running sums,
then the partial sums S_m = sum_{j < m} H_j in blocks of CONV_ROWS rows, each
entry a running sum of p^2, -pq or q^2 carried from block to block, to which
the candidate is compared. piecewise_estimate sums each bin's entries directly.

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

    has det H = (pi rho)^2 up to rounding. Data whose wtilde or H is not a
    finite float, or whose det H misses (pi rho)^2, raise ValueError.
    """

    x0: float
    w: float
    rho: float
    reF: float = 0.0

    def __post_init__(self):
        if not (self.w > 0 and self.rho > 0):  # NaN too
            raise ValueError("w and rho must be positive")
        try:
            (h11, h12), (h21, h22) = self._entries()
            target = (math.pi * self.rho) ** 2
        except (OverflowError, ZeroDivisionError):  # a square overflows, or wtilde is 0
            h11 = h12 = h21 = h22 = target = math.inf
        if not all(map(math.isfinite, (h11, h12, h22, target))):  # NaN too
            raise ValueError(f"bulk data w = {self.w!r}, rho = {self.rho!r}, reF = {self.reF!r} "
                             "admit no finite Hamiltonian of det (pi rho)^2")
        det = h11 * h22 - h12 * h21
        if not abs(det - target) <= BPD_DET_TOL * max(1.0, target):
            raise ValueError(f"det H = {det} violates (pi rho)^2 = {target}")

    @property
    def wtilde(self) -> float:
        return self.w / (math.pi ** 2 * self.w ** 2 + self.reF ** 2)

    def _entries(self):
        # Python floats: the check allocates no array, whose small data block, cached
        # by numpy, could sit above a freed kernel grid on the heap and strand it
        off = self.reF * self.rho / self.w
        return (self.rho / self.w, off), (off, self.rho / self.wtilde)

    def hamiltonian(self) -> np.ndarray:
        return np.array(self._entries())


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


def _h_partial_blocks(h_seq: DiscreteHSequence, n: int):
    """Partial sums S_m = sum_{j < m} H_j for m = 0..n, as (lo, S[lo:hi]) of CONV_ROWS rows.

    Each entry is a running sum of p^2, -pq or q^2 that carries on from the last
    row of the block before, so every row has the bits of one cumsum over all n.
    """
    x = h_seq.ps[:n], -h_seq.qs[:n]  # H_j = x_j x_j^T
    for lo in range(0, n + 1, CONV_ROWS):
        hi = min(lo + CONV_ROWS, n + 1)
        s = np.zeros((hi - lo, 2, 2))
        # row k is S_(lo + k) = S_(lo + k - 1) + H_(lo + k - 1); the first block starts
        # from S_0 = 0 and S_1 = H_0 itself, as a cumsum does (0.0 + -0.0 is +0.0)
        k = int(lo == 0)
        rows = slice(lo + k - 1, hi - 1)
        for i, j in np.ndindex(2, 2):
            h = x[i][rows] * x[j][rows]
            if lo:  # carry on from the last row of the block before
                h[0] += last[i, j]
            np.cumsum(h, out=s[k:, i, j])
        last = s[-1].copy()
        yield lo, s


def piecewise_estimate(h_seq: DiscreteHSequence, n: int, bins: int) -> CanonicalSystem:
    """Piecewise-constant Hamiltonian estimate with ``bins`` equal time bins.

    Bin k holds (bins/n) sum of H_j over j in [floor(nk/bins), floor(n(k+1)/bins)),
    summed entry by entry over the bin's p^2, -pq and q^2 (an empty bin is zero):
    an average of PSD rank-one matrices, hence PSD, and H_k itself at bins = n.
    With a single bin this is the Cesaro mean.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not 1 <= n <= len(h_seq):
        raise ValueError("n must be >= 1" if n < 1 else "h sequence too short")
    edges_j = np.floor(n * np.arange(bins + 1) / bins).astype(np.int64)
    full = edges_j[:-1] < edges_j[1:]
    mats = np.zeros((bins, 2, 2))
    x = h_seq.ps[:n], -h_seq.qs[:n]  # H_j = x_j x_j^T
    for i, j in np.ndindex(2, 2):  # each nonempty bin sums up to the next one's start
        mats[full, i, j] = np.add.reduceat(x[i] * x[j], edges_j[:-1][full])
    return PiecewiseConstantHamiltonian(np.arange(bins + 1) / bins, mats * (bins / n))


def diagnostics(h_seq: DiscreteHSequence, n: int,
                candidate: CanonicalSystem | None = None,
                L_list=(2, 5, 10, 50)) -> DiagnosticsReport:
    """Evaluate the convergence-hypothesis statistics on H_0..H_{n-1}.

    The candidate comparison runs over the blocks of CONV_ROWS partial sums; a
    NaN in any block makes matrix_conv NaN, as one max over all points would.
    """
    if n > len(h_seq):
        raise ValueError("h sequence too short")
    norms = h_seq.norms()[:n]
    cum_norms = np.zeros(n + 1)
    np.cumsum(norms, out=cum_norms[1:])
    avg_norm = float(cum_norms[n] / n)
    sup_norm = float(np.max(norms))
    profile = []
    for L in L_list:
        cuts = np.floor(n * np.arange(int(L) + 1) / L).astype(np.int64)
        sums = cum_norms[np.minimum(cuts[1:], n - 1) + 1] - cum_norms[cuts[:-1]]
        profile.append((int(L), float(np.fmax.reduce(sums, initial=0.0)) / n))  # NaN skipped
    del norms, cum_norms
    cand_dict = candidate.to_dict() if candidate is not None else None
    block_max = []
    for lo, s in _h_partial_blocks(h_seq, n):
        if candidate is not None:
            try:
                cand = candidate.integral(np.arange(lo, lo + len(s)) / n)
            except ArithmeticError as exc:
                raise ArithmeticError(f"candidate {cand_dict} overflows on [0, 1]: {exc}") from None
            block_max.append(np.max(operator_norm(s / n - cand)))
    return DiagnosticsReport(
        n=n, x0=h_seq.x0, avg_norm=avg_norm, max_over_n=sup_norm / n,
        sup_norm=sup_norm, decay_profile=profile,
        matrix_conv=float(np.max(block_max)) if candidate is not None else None,
        cesaro_h=s[-1] / n,
        candidate=cand_dict)


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


def check_equivalence(model, n_list, x0: float, bpd: BulkPointData, a_grid, t_grid):
    """Both equivalence statistics at each order of ``n_list``: (kernel_stat, flow_stat).

    kernel_stat[i] is the sup distance of the scaled CD kernel on a_grid x a_grid
    to the sine kernel of the bulk data; flow_stat[i] the sup over (t, a) of the
    distance of Q_[tn](x0 + a/n) to the closed-form flow of its constant Hamiltonian.
    """
    a_grid = np.asarray(a_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    h = bpd.hamiltonian()
    kernel_stat = []
    flow_stat = []
    for n in n_list:
        grid = cdkernel.scaled_grid(model, int(n), x0, a_grid, a_grid)
        kernel_stat.append(cdkernel.sine_compare(grid, bpd))
        flow_stat.append(flow_deviation(model, int(n), x0, h, a_grid, t_grid))
    return kernel_stat, flow_stat
