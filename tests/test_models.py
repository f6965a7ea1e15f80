import math

import numpy as np
import pytest

import references
from cdscale import models
from cdscale.canonical import CoshSinhHamiltonian, kernel_grid
from cdscale.cdkernel import scaled_grid
from cdscale.jacobi import AlternatingSignModel, ConstantModel, PeriodicModel
from cdscale.mat2 import inverse_unimodular, operator_norm
from cdscale.models import (alternating_coefficient_deviation,
                            alternating_coefficient_matrices,
                            alternating_model, free_bulk_data, free_model,
                            lambda_pm, make_model, modified_sine_kernel,
                            qhat_closed, raw_limit_formula, u_matrix)
from cdscale.transfer import transfer_product
from references import limit_coefficient, limit_coefficient_integral, two_step_factor

QHAT_ATOL = 1e-9


def test_lambda_pm_trivial():
    assert lambda_pm(0.0, 7) == (1.0, 1.0)


def test_lambda_pm_values():
    lam_p, lam_m = lambda_pm(1.0, 10)
    assert abs(lam_p - (1.005 + 0.1 * math.sqrt(1.0025))) <= 1e-15
    assert abs(lam_m - (1.005 - 0.1 * math.sqrt(1.0025))) <= 1e-15
    assert abs(lam_p - 1.1051249) <= 1e-7
    assert abs(lam_m - 0.9048751) <= 1e-7


def test_lambda_product_is_one():
    rng = np.random.default_rng(61)
    for _ in range(50):
        v = rng.uniform(0.0, 5.0)
        n = int(rng.integers(1, 10 ** 5))
        lam_p, lam_m = lambda_pm(v, n)
        assert abs(lam_p * lam_m - 1.0) <= 1e-14


def test_u_matrix_diagonalizes_two_step_factor():
    rng = np.random.default_rng(62)
    for _ in range(20):
        v = rng.uniform(0.0, 4.0)
        n = int(rng.integers(2, 5000))
        f = two_step_factor(v, n)
        u = u_matrix(v, n)
        lam_p, lam_m = lambda_pm(v, n)
        for col, lam in ((0, lam_m), (1, lam_p)):
            vec = u[:, col]
            assert np.max(np.abs(f @ vec - lam * vec)) <= 1e-10


def test_qhat_trivial_cases():
    for ell in range(6):
        assert operator_norm(qhat_closed(0.0, 10, ell) - np.eye(2)) <= 1e-15
    v, n = 0.7, 40
    got = qhat_closed(v, n, 2)
    assert operator_norm(got - two_step_factor(v, n)) <= 1e-14
    assert qhat_closed(v, n, np.arange(6).reshape(2, 3)).shape == (2, 3, 2, 2)
    with pytest.raises(ValueError):
        qhat_closed(v, n, [0, n + 1])


def test_qhat_closed_matches_product_definition():
    rng = np.random.default_rng(63)
    free = free_model()
    for _ in range(8):
        v = rng.uniform(0.0, 3.0)
        n = int(rng.integers(10, 500))
        alt = alternating_model(v)
        ells = np.sort(rng.integers(0, min(n, 200) + 1, size=6))
        closed = qhat_closed(v, n, ells)
        for ell, q in zip(ells, closed):
            t0 = transfer_product(free, int(ell), 0.0)
            tn = transfer_product(alt, int(ell), 0.0, n)
            prod = inverse_unimodular(t0) @ np.asarray(tn)
            assert operator_norm(prod - q) <= QHAT_ATOL
            assert operator_norm(prod - qhat_closed(v, n, int(ell))) <= QHAT_ATOL


def test_limit_coefficient_values():
    assert np.array_equal(limit_coefficient(0.0, 0.7), [[0.0, -0.5], [0.5, 0.0]])
    assert np.array_equal(limit_coefficient(2.5, 0.0), [[0.0, -0.5], [0.5, 0.0]])
    got = limit_coefficient(1.0, 1.0)
    assert abs(got[0, 1] + math.e / 2) <= 1e-15
    assert abs(got[1, 0] - 1.0 / (2.0 * math.e)) <= 1e-15


def test_limit_coefficient_integral_matches_quadrature():
    v = 1.3
    ts = np.linspace(0, 1, 2001)
    vals = np.stack([limit_coefficient(v, float(t)) for t in ts])
    brute = np.trapezoid(vals, ts, axis=0)
    np.testing.assert_allclose(limit_coefficient_integral(v, 1.0), brute, atol=1e-7)


def test_alternating_coefficients_integrate_to_limit():
    assert alternating_coefficient_deviation(1.0, 10 ** 4) <= 5e-3
    # and the deviation shrinks with n
    assert (alternating_coefficient_deviation(1.0, 4000)
            > alternating_coefficient_deviation(1.0, 16000))


@pytest.mark.parametrize("v", [0.0, 1.0, -2.5])
@pytest.mark.parametrize("n", [1, 7, 10 ** 4])
def test_alternating_deviation_targets_match_stacked_integrals(monkeypatch, v, n):
    """The list-built targets equal the stacked limit_coefficient_integral exactly."""
    if v >= 0.0:  # the model itself needs V >= 0
        assert (alternating_coefficient_deviation(v, n)
                == references.alternating_deviation_stack(v, n))
    # with zero coefficients the norms see 0 - targets: every target entry, bit for bit
    # up to the sign of a zero
    seen = []

    def record(mats):
        seen.append(mats)
        return operator_norm(mats)

    for module in (models, references):
        monkeypatch.setattr(module, "operator_norm", record)
        monkeypatch.setattr(module, "alternating_coefficient_matrices",
                            lambda v, n: np.zeros((n, 2, 2)))
    alternating_coefficient_deviation(v, n)
    references.alternating_deviation_stack(v, n)
    assert seen[0].tobytes() == seen[1].tobytes()


def test_alternating_coefficients_leading_term_even_steps():
    v, n = 1.0, 200
    mats = alternating_coefficient_matrices(v, n)
    lam_p, lam_m = lambda_pm(v, n)
    scale = 1.0 / (2.0 * math.sqrt(1.0 + v * v / (4 * n * n)))
    for ell in (0, 2, 10, 60):
        lead = scale * np.array([[-1.0, -lam_p ** ell], [lam_m ** ell, 1.0]])
        assert np.max(np.abs(mats[ell] - lead)) <= 1e-12
    for ell in (1, 3, 11, 61):
        lead = scale * np.array([[1.0, -lam_p ** (ell - 2)], [lam_m ** (ell - 2), -1.0]])
        assert np.max(np.abs(mats[ell] - lead)) <= 2.0 * v / n


def test_modified_sine_v0_reduction_exact():
    rng = np.random.default_rng(64)
    for _ in range(40):
        a, b = rng.uniform(-5, 5, 2)
        if abs(a - b) < 1e-6:
            continue
        expect = math.sin((a - b) / 2.0) / (a - b)
        assert abs(modified_sine_kernel(0.0, a, b) - expect) <= 1e-12


def test_modified_sine_diagonal_values():
    assert abs(modified_sine_kernel(0.0, 0.0, 0.0) - 0.5) <= 1e-15
    # diagonal is the limit of off-diagonal values
    v = 1.2
    for a in (0.0, 1.0, -2.7):
        lim = modified_sine_kernel(v, a, a + 1e-7)
        assert abs(modified_sine_kernel(v, a, a) - lim) <= 1e-6


def test_modified_sine_entire_in_omega_squared():
    # values at a and -a agree for b fixed <=> no branch dependence
    v = 0.9
    for a, b in ((1.0 + 0.5j, 0.3), (2.0, -1.0 + 0.2j)):
        k1 = modified_sine_kernel(v, a, b)
        # recompute with the conjugate square root by perturbing through
        # the other sheet: omega^2 path means k(a values) must be smooth
        k2 = modified_sine_kernel(v, a + 1e-9, b)
        assert abs(k1 - k2) <= 1e-6


def test_limit_kernel_candidate_variants():
    # the raw candidate and the divided one, modified_sine_kernel, off the diagonal
    raw, div = raw_limit_formula(0.0, 1.3, -0.4), modified_sine_kernel(0.0, 1.3, -0.4)
    assert abs(raw - math.sin((1.3 + 0.4) / 2)) <= 1e-14
    assert abs(div - math.sin((1.3 + 0.4) / 2) / 1.7) <= 1e-14
    raw, div = raw_limit_formula(1.0, 1.0, -1.0), modified_sine_kernel(1.0, 1.0, -1.0)
    assert abs(raw - 1.0) <= 1e-12  # omega_a = 0 point: (V - b) S(0) C(0) * 2
    assert abs(div - 0.5) <= 1e-12


def test_exactly_one_variant_matches_numerics():
    v, n = 1.0, 2000
    vals = np.linspace(-5, 5, 21)
    grid = scaled_grid(alternating_model(v), n, 0.0, vals, vals)
    div = modified_sine_kernel(v, vals[:, None], vals[None, :])
    raw = raw_limit_formula(v, vals[:, None], vals[None, :])
    off = np.abs(vals[:, None] - vals[None, :]) > 1e-9
    err_div = float(np.max(np.abs(grid.values - div)))
    err_raw = float(np.max(np.abs((grid.values - raw))[off]))
    assert err_div <= 0.02
    assert err_raw > 0.02


def test_cross_pipeline_alternating_vs_canonical():
    v, n = 1.0, 4000
    vals = np.linspace(-5, 5, 51)
    grid = scaled_grid(alternating_model(v), n, 0.0, vals, vals)
    canon = kernel_grid(CoshSinhHamiltonian(v), vals, vals)
    assert float(np.max(np.abs(grid.values - canon))) <= 0.02


def test_free_bulk_data_general_point():
    bpd = free_bulk_data(1.0)
    s = math.sqrt(3.0)
    assert abs(bpd.w - s / (2 * math.pi)) <= 1e-15
    assert abs(bpd.rho - 1.0 / (math.pi * s)) <= 1e-15
    assert abs(bpd.reF + 0.5) <= 1e-15
    with pytest.raises(ValueError):
        free_bulk_data(2.5)


def test_make_model_catalog():
    assert isinstance(make_model("free"), ConstantModel)
    assert isinstance(make_model("alternating-v", v=2.0), AlternatingSignModel)
    assert isinstance(make_model("periodic", period_a=[1.0], period_b=[0.5]),
                      PeriodicModel)
    with pytest.raises(ValueError):
        make_model("alternating-v")
    with pytest.raises(ValueError):
        make_model("unknown")
