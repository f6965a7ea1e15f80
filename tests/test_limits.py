import json
import math
import tracemalloc

import numpy as np
import pytest

from cdscale.canonical import ConstantHamiltonian, CoshSinhHamiltonian
from cdscale.jacobi import AlternatingSignModel, ConstantModel, TableModel
from cdscale.limits import (CONV_ROWS, BulkPointData, _h_partial_blocks, check_equivalence,
                            diagnostics, flow_deviation, piecewise_estimate)
from cdscale.mat2 import operator_norm
from cdscale.models import free_bulk_data, free_model
from cdscale.transfer import DiscreteHSequence, h_sequence
from references import h_partials_whole, matrix_conv_whole

FREE = ConstantModel(1.0, 0.0)
PI = math.pi


def bounded_model(seed, size=2000):
    rng = np.random.default_rng(seed)
    j = np.arange(1, size + 1)
    return TableModel(1.0 + 0.4 * rng.uniform(-1, 1, size) / j,
                      0.4 * rng.uniform(-1, 1, size) / j)


def test_bulk_point_data_invariants_random():
    rng = np.random.default_rng(51)
    for _ in range(50):
        w = rng.uniform(0.05, 2.0)
        rho = rng.uniform(0.05, 2.0)
        re_f = rng.uniform(-2.0, 2.0)
        bpd = BulkPointData(0.0, w, rho, re_f)
        assert abs(bpd.wtilde - w / (PI ** 2 * w ** 2 + re_f ** 2)) <= 1e-12
        h = bpd.hamiltonian()
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        assert abs(det - (PI * rho) ** 2) <= 1e-10 * max(1.0, (PI * rho) ** 2)


def test_bulk_point_data_rejects_inconsistent_wtilde():
    with pytest.raises(ValueError):
        BulkPointData(0.0, -1.0, 1.0)
    # the last two have no finite Hamiltonian: w ** 2 underflows to 0, so wtilde
    # divides by zero, and reF ** 2 overflows
    for args in [(math.nan, 1.0), (1.0, math.nan), (1.0, 1.0, math.nan),  # w, rho, reF
                 (1e-300, 1.0), (1.0, 1.0, 1e160)]:
        with pytest.raises(ValueError):
            BulkPointData(0.0, *args)


def test_free_bulk_point_is_half_identity():
    bpd = free_bulk_data(0.0)
    assert abs(bpd.w - 1.0 / PI) <= 1e-15
    assert abs(bpd.rho - 1.0 / (2.0 * PI)) <= 1e-15
    assert bpd.reF == 0.0
    h = bpd.hamiltonian()
    assert operator_norm(h - np.eye(2) / 2) <= 1e-14


def test_diagnostics_free_model():
    n = 10 ** 4
    seq = h_sequence(FREE, 0.0, n)
    rep = diagnostics(seq, n, candidate=ConstantHamiltonian(np.eye(2) / 2))
    assert rep.matrix_conv <= 2e-4
    assert abs(rep.avg_norm - 1.0) <= 1e-12
    assert rep.max_over_n <= 2e-4
    assert rep.sup_norm == 1.0
    for L, v in rep.decay_profile:
        assert v * L <= 1.1 * rep.avg_norm


def test_diagnostics_decay_profile_bounded_for_bounded_sequences():
    model = bounded_model(52)
    n = 1500
    seq = h_sequence(model, 0.0, n)
    rep = diagnostics(seq, n, L_list=(2, 3, 5, 10, 25, 50))
    for L, v in rep.decay_profile:
        assert v * L <= 1.2 * rep.avg_norm + 1e-9


def test_cesaro_free():
    n = 10 ** 4
    seq = h_sequence(FREE, 0.0, n)
    ces = diagnostics(seq, n).cesaro_h
    assert operator_norm(ces - np.eye(2) / 2) <= 1e-3


def test_cesaro_single_term():
    for model in (FREE, bounded_model(53)):
        seq = h_sequence(model, 0.0, 1)
        assert np.array_equal(diagnostics(seq, 1).cesaro_h, [[1.0, 0.0], [0.0, 0.0]])


def test_cesaro_alternating_matches_time_average_not_endpoint():
    # the scaling limit is t-dependent; the Cesaro mean lands on its time
    # integral, sinh(V)/(2V) on the diagonal, (cosh(V)-1)/(2V) off it
    v = 1.0
    n = 10 ** 4
    seq = h_sequence(AlternatingSignModel(v), 0.0, n, n)
    ces = diagnostics(seq, n).cesaro_h
    assert abs(ces[0, 0] - math.sinh(v) / (2 * v)) <= 1e-3
    assert abs(ces[0, 1] - (math.cosh(v) - 1.0) / (2 * v)) <= 1e-3
    # and differs from the endpoint value cosh(V)/2
    assert abs(ces[0, 0] - math.cosh(v) / 2) >= 0.1


def test_piecewise_estimate_free():
    n = 4000
    seq = h_sequence(FREE, 0.0, n)
    for bins in (1, 7, 50):
        est = piecewise_estimate(seq, n, bins)
        for k in range(bins):
            t = (k + 0.5) / bins
            assert np.max(np.abs(est.H(t) - np.eye(2) / 2)) <= bins / n + 1e-12


def test_piecewise_estimate_single_bin_is_cesaro():
    model = bounded_model(54)
    n = 997
    seq = h_sequence(model, 0.0, n)
    est = piecewise_estimate(seq, n, 1)
    np.testing.assert_allclose(est.H(0.5), diagnostics(seq, n).cesaro_h,
                               atol=1e-14)


def test_piecewise_estimate_alternating_matches_coshsinh():
    v = 1.0
    n = 10 ** 4
    bins = 50
    seq = h_sequence(AlternatingSignModel(v), 0.0, n, n)
    est = piecewise_estimate(seq, n, bins)
    target = CoshSinhHamiltonian(v)
    for k in range(bins):
        t = (k + 0.5) / bins
        assert np.max(np.abs(est.H(t) - target.H(t))) <= 0.02


def test_piecewise_estimate_sums_each_bin():
    # bins of unequal lengths, empty bins (bins > n) and one term per bin; a sum of
    # m terms and its scaling round by at most (m + 1) eps times the sum of their sizes
    seq = h_sequence(bounded_model(56), 0.0, 40)
    h = seq.entry_arrays()
    eps = np.finfo(float).eps
    for n, bins in ((37, 5), (10, 23), (40, 40)):
        est = piecewise_estimate(seq, n, bins)
        cuts = [math.floor(n * k / bins) for k in range(bins + 1)]
        for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            want = h[lo:hi].sum(axis=0) * (bins / n)
            bound = (hi - lo + 1) * eps * np.abs(h[lo:hi]).sum(axis=0) * (bins / n)
            assert np.all(np.abs(est.matrices[k] - want) <= bound)


@pytest.mark.parametrize("model, x0", [(FREE, 0.3), (AlternatingSignModel(1.0), 0.0)])
def test_piecewise_estimate_with_a_bin_per_term_is_the_h_sequence(model, x0):
    # each bin is one rank-one H_j as entry_arrays forms it, which passes the PSD check
    n = 64000
    seq = h_sequence(model, x0, n, n)
    est = piecewise_estimate(seq, n, n)
    assert est.matrices.tobytes() == seq.entry_arrays()[:n].tobytes()


def test_piecewise_estimate_refuses_short_sequences():
    seq = h_sequence(FREE, 0.0, 100)  # H_0..H_100
    with pytest.raises(ValueError, match="^h sequence too short$"):
        piecewise_estimate(seq, 150, 50)
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        piecewise_estimate(seq, 0, 50)
    assert len(piecewise_estimate(seq, 101, 50).matrices) == 50


def test_matrix_conv_self_consistency():
    model = bounded_model(55)
    n = 800
    seq = h_sequence(model, 0.0, n)
    exact = piecewise_estimate(seq, n, n)
    rep_exact = diagnostics(seq, n, candidate=exact)
    assert rep_exact.matrix_conv <= 1e-12
    rep_const = diagnostics(seq, n, candidate=ConstantHamiltonian(np.eye(2) / 2))
    assert rep_exact.matrix_conv <= rep_const.matrix_conv


def blocked_partials(seq, n):
    """The blocks of _h_partial_blocks joined, after checking where each one starts."""
    blocks = list(_h_partial_blocks(seq, n))
    assert [lo for lo, _ in blocks] == list(range(0, n + 1, CONV_ROWS))
    assert all(len(s) == CONV_ROWS for _, s in blocks[:-1])
    return np.concatenate([s for _, s in blocks])


@pytest.mark.parametrize("n", [1, CONV_ROWS - 2, CONV_ROWS - 1, CONV_ROWS])
def test_diagnostics_bit_identical_to_whole_array_forms(n):
    # n + 1 grid rows: one, then one row short of a block, a full block, one row over;
    # H_0 = ((1, -0.0), (-0.0, 0)), so a first block started from 0.0 + H_0 would differ
    seq = h_sequence(AlternatingSignModel(1.0), 0.0, n, n)
    partials = blocked_partials(seq, n)
    assert partials.tobytes() == h_partials_whole(seq, n).tobytes()
    for candidate in (CoshSinhHamiltonian(1.0), ConstantHamiltonian(np.eye(2) / 2)):
        rep = diagnostics(seq, n, candidate=candidate)
        whole = matrix_conv_whole(seq, n, candidate)
        assert np.float64(rep.matrix_conv).tobytes() == np.float64(whole).tobytes()
        assert rep.cesaro_h.tobytes() == (partials[n] / n).tobytes()


def test_diagnostics_off_the_bulk_stays_nan():
    n = 2 * CONV_ROWS
    candidate = ConstantHamiltonian(np.eye(2) / 2)
    with np.errstate(over="ignore", invalid="ignore"):
        seq = h_sequence(free_model(), 3.0, n, n)
        rep = diagnostics(seq, n, candidate=candidate)
        assert blocked_partials(seq, n).tobytes() == h_partials_whole(seq, n).tobytes()
        assert math.isnan(matrix_conv_whole(seq, n, candidate))
    assert math.isnan(rep.matrix_conv)
    # a NaN in the last block alone still wins over the finite blocks before it
    n = CONV_ROWS + 5
    ps = np.ones(n)
    ps[-1] = np.nan
    seq = DiscreteHSequence(0.0, ps, np.zeros(n))
    assert math.isnan(diagnostics(seq, n, candidate=candidate).matrix_conv)


def test_diagnostics_memory_bounded():
    # beyond the h sequence: the norms and their running sums, then blocks of CONV_ROWS
    # partial sums; the whole (n + 1, 2, 2) partial sums would be 32 bytes per n
    n = 2 ** 16
    seq = h_sequence(AlternatingSignModel(1.0), 0.0, n, n)
    tracemalloc.start()
    try:
        diagnostics(seq, n, candidate=CoshSinhHamiltonian(1.0))
        piecewise_estimate(seq, n, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * n + 2 ** 20


def test_check_equivalence_free():
    kernel_stat, flow_stat = check_equivalence(
        free_model(), [500, 1000, 2000], 0.0, free_bulk_data(0.0),
        a_grid=np.linspace(-5, 5, 41), t_grid=np.linspace(0, 1, 41))
    assert kernel_stat[-1] <= 0.02
    assert flow_stat[-1] <= 0.02
    for stat in (kernel_stat, flow_stat):
        assert all(b < a for a, b in zip(stat, stat[1:]))


def test_flow_deviation_zero_offset_column():
    h = free_bulk_data(0.0).hamiltonian()
    dev = flow_deviation(free_model(), 600, 0.0, h, np.array([0.0]),
                         np.linspace(0, 1, 11))
    assert dev <= 1e-13


def test_flow_deviation_detects_wrong_density():
    bad = BulkPointData(0.0, w=1.0 / PI, rho=1.0 / PI)  # rho doubled
    dev = flow_deviation(free_model(), 2000, 0.0, bad.hamiltonian(),
                         np.linspace(-5, 5, 41), np.linspace(0, 1, 41))
    assert dev >= 0.1


def test_flow_deviation_off_the_bulk_is_named(recwarn):
    # past the free spectrum's edge Q_[tn](x0 + a/n) overflows from t = 0.08 on
    h = free_bulk_data(0.0).hamiltonian()
    with pytest.raises(ArithmeticError, match=r"t = 0\.08 \(step 160\) is not finite "
                                              r"\(x0 = 2\.05, n = 2000\)"):
        flow_deviation(free_model(), 2000, 2.05, h, np.linspace(-5, 5, 101),
                       np.linspace(0, 1, 101))
    assert [w for w in recwarn if w.category is RuntimeWarning] == []


def test_report_serialization():
    n = 512
    seq = h_sequence(FREE, 0.0, n)
    rep = diagnostics(seq, n, candidate=ConstantHamiltonian(np.eye(2) / 2))
    data = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
    assert data["n"] == n
    assert data["candidate"]["kind"] == "constant"


@pytest.mark.parametrize("x0", [0.3, -1.0])
def test_free_cesaro_mean_matches_bulk_hamiltonian(x0):
    n = 16000
    mean = diagnostics(h_sequence(free_model(), x0, n, n), n).cesaro_h
    h = free_bulk_data(x0).hamiltonian()
    assert operator_norm(mean - h) <= 1e-3
