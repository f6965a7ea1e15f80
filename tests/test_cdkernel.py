import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from cdscale.cdkernel import (KernelGrid, kernel_cd, kernel_det_q, kernel_sum,
                              scaled_grid, sine_compare, sine_kernel)
from cdscale.errors import CoincidentArguments
from cdscale import cdkernel
from cdscale.jacobi import (AlternatingSignModel, ConstantModel, PeriodicModel,
                            TableModel, gauss_quadrature, poly_table)
from cdscale.limits import BulkPointData
from cdscale.transfer import q_trajectory_direct
from references import kernel_csv_per_cell

FREE = ConstantModel(1.0, 0.0)
IDENTITY_RTOL = 1e-10


def bulk_model(seed, size=2000):
    rng = np.random.default_rng(seed)
    j = np.arange(1, size + 1)
    return TableModel(1.0 + 0.4 * rng.uniform(-1, 1, size) / j,
                      0.4 * rng.uniform(-1, 1, size) / j)


def test_kernel_sum_free_diagonal_even_n():
    for n in (2, 10, 64):
        assert kernel_sum(FREE, n, 0.0, 0.0) == n / 2


def test_kernel_sum_order_one():
    assert kernel_sum(PeriodicModel([1.3], [0.4]), 1, 2.2, -0.7) == 1.0


def test_kernel_sum_free_degree_two():
    rng = np.random.default_rng(31)
    for _ in range(10):
        x, y = rng.uniform(-2, 2, 2)
        assert abs(kernel_sum(FREE, 2, x, y) - (1.0 + x * y)) < 1e-14


def test_kernel_cd_free_example():
    assert kernel_cd(FREE, 2, 1.0, 0.0) == 1.0
    assert kernel_sum(FREE, 2, 1.0, 0.0) == 1.0


def test_kernel_cd_equals_sum_random():
    rng = np.random.default_rng(32)
    model = bulk_model(33)
    for _ in range(100):
        n = int(rng.integers(1, 500))
        x = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
        y = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
        if abs(x - y) < 1e-6:
            continue
        ks = kernel_sum(model, n, x, y)
        kc = kernel_cd(model, n, x, y)
        assert abs(ks - kc) <= IDENTITY_RTOL * max(1.0, abs(ks))


def test_kernel_forms_broadcast_like_scalar_calls():
    model = bulk_model(39)
    n = 60
    x = np.array([[0.1], [-0.4 + 0.2j]])
    y = np.array([0.3, -0.2, 0.55 - 0.1j])
    ks = kernel_sum(model, n, x, y)
    kc = kernel_cd(model, n, x, y)
    assert ks.shape == kc.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            np.testing.assert_allclose(ks[i, j], kernel_sum(model, n, x[i, 0], y[j]),
                                       rtol=1e-13)
            np.testing.assert_allclose(kc[i, j], kernel_cd(model, n, x[i, 0], y[j]),
                                       rtol=1e-13)
    assert np.ndim(kernel_sum(model, n, 0.1, 0.3)) == 0


def test_kernel_cd_refuses_coincident():
    with pytest.raises(CoincidentArguments):
        kernel_cd(FREE, 5, 0.3, 0.3)
    with pytest.raises(CoincidentArguments):
        kernel_cd(FREE, 5, 0.3, 0.3 + 1e-15)


def test_kernel_cd_continuity_near_diagonal():
    x = 0.4
    ks = kernel_sum(FREE, 300, x, x)
    kc = kernel_cd(FREE, 300, x, x + 1e-6)
    assert abs(kc - ks) <= 1e-4 * abs(ks)


def test_kernel_det_q_equals_sum():
    rng = np.random.default_rng(34)
    model = bulk_model(35)
    n = 200
    for _ in range(10):
        a = complex(rng.uniform(-4, 4), rng.uniform(-0.5, 0.5))
        b = complex(rng.uniform(-4, 4), rng.uniform(-0.5, 0.5))
        if abs(a - b) < 1e-3:
            continue
        qa, qb = q_trajectory_direct(model, n, 0.0, [a, b], [1.0])[0]
        kd = kernel_det_q(qa, qb, a, b)
        ks = kernel_sum(model, n, 0.0 + a / n, 0.0 + b / n) / n
        assert abs(kd - ks) <= 1e-8 * max(1.0, abs(ks))


def test_kernel_det_q_real_for_symmetric_offsets():
    n = 150
    qa, qb = q_trajectory_direct(FREE, n, 0.0, [1.7, -1.7], [1.0])[0]
    val = kernel_det_q(qa, qb, 1.7, -1.7)
    assert abs(complex(val).imag) <= 1e-14


def test_kernel_det_q_free_sine_value():
    n = 4000
    qa, qb = q_trajectory_direct(FREE, n, 0.0, [1.0, 0.0], [1.0])[0]
    val = kernel_det_q(qa, qb, 1.0, 0.0)
    assert abs(val - math.sin(0.5)) <= 2e-2


def test_scaled_grid_order_one_all_ones():
    grid = scaled_grid(FREE, 1, 0.0, np.linspace(-2, 2, 5), np.linspace(-2, 2, 5))
    np.testing.assert_allclose(grid.values, np.ones((5, 5)), atol=1e-15)


def test_scaled_grid_free_diagonal_half():
    grid = scaled_grid(FREE, 500, 0.0, np.array([0.0]), np.array([0.0]))
    assert grid.values[0, 0] == 0.5


def test_scaled_grid_symmetry_real_grids():
    vals = np.linspace(-3, 3, 13)
    grid = scaled_grid(bulk_model(36), 400, 0.0, vals, vals)
    np.testing.assert_allclose(grid.values, grid.values.T, atol=1e-13)
    assert np.all(np.diag(grid.values) >= 0)


def gram_bound(Pa, Pb, n):
    """Twice the rounding bound of fl(sum_j Pa[j] Pb[j]) / n, entrywise.

    Each of the n terms takes at most n - 1 additions, a product (complex:
    at most sqrt(2) gamma_2 < gamma_3) and the division by n, in any
    summation order: gamma_(n+3) |Pa|^T |Pb| / n (Higham, "Accuracy and
    Stability of Numerical Algorithms", 3.1 and 3.6). Two computed sums
    differ by at most twice that.
    """
    k = (n + 3) * np.finfo(float).eps / 2
    return 2 * k / (1 - k) * (np.abs(Pa).T @ np.abs(Pb)) / n


def test_scaled_grid_same_grids_share_one_table(monkeypatch):
    calls = []

    def counted(model, xs, up_to, n=None, consume=None):
        calls.append(len(xs))
        return poly_table(model, xs, up_to, n, consume)

    monkeypatch.setattr(cdkernel, "poly_table", counted)
    model, vals = bulk_model(37), np.linspace(-3, 3, 13)
    grid = scaled_grid(model, 400, 0.0, vals, vals.copy())
    assert calls == [13]
    P, _ = poly_table(model, vals / 400, 399, 400)
    assert np.all(np.abs(grid.values - (P.T @ P) / 400) <= gram_bound(P, P, 400))
    # the bound is tight enough to miss any single row of the sum
    for drop in (0, 200, 399):
        Pd = np.delete(P, drop, axis=0)
        assert not np.all(np.abs(grid.values - (Pd.T @ Pd) / 400) <= gram_bound(P, P, 400))
    scaled_grid(model, 400, 0.0, vals, vals + 0.01)
    assert calls == [13, 26]


def test_scaled_grid_distinct_complex_grids_match_kernel_sum():
    model, n = bulk_model(39), 700
    rng = np.random.default_rng(40)
    a = rng.uniform(-5, 5, 9) + 1j * rng.uniform(-1, 1, 9)
    b = rng.uniform(-5, 5, 6)
    grid = scaled_grid(model, n, 0.1, a, b)
    assert grid.values.shape == (9, 6) and np.iscomplexobj(grid.values)
    x, y = 0.1 + a / n, 0.1 + b / n
    ref = kernel_sum(model, n, x[:, None], y[None, :]) / n
    P, _ = poly_table(model, np.concatenate([x, y]), n - 1, n)
    assert np.all(np.abs(grid.values - ref) <= gram_bound(P[:, :9], P[:, 9:], n))


def test_scaled_grid_memory_holds_no_table():
    vals = np.linspace(-5.0, 5.0, 51)
    tracemalloc.start()
    try:
        grid = scaled_grid(FREE, 40000, 0.0, vals, vals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the p table alone would take 40000 * 51 * 8 B = 15.6 MiB
    assert peak < 4 * 2 ** 20
    assert grid.values[25, 25] == pytest.approx(0.5, rel=1e-3)


def test_scaled_grid_free_matches_sine():
    vals = np.linspace(-5, 5, 51)
    grid = scaled_grid(FREE, 4000, 0.0, vals, vals)
    err = sine_compare(grid, BulkPointData(0.0, 1.0 / math.pi, 1.0 / (2.0 * math.pi)))
    assert err <= 0.02


def test_sine_compare_exact_grid_is_zero():
    rho, w = 0.2, 0.45
    # the sine kernel is entire in a and b, so complex grids compare too
    for a_vals, b_vals in [(np.linspace(-5, 5, 21),) * 2,
                           (np.linspace(-2, 2, 5) + 0.5j, np.linspace(-2, 2, 5) - 0.5j)]:
        ref = sine_kernel(a_vals[:, None], b_vals[None, :], rho, w)
        grid = KernelGrid(x0=0.0, n=10, a_values=a_vals, b_values=b_vals, values=ref)
        assert sine_compare(grid, BulkPointData(0.0, w, rho)) == 0.0


def test_sine_kernel_diagonal_value():
    assert sine_kernel(0.7, 0.7, 0.2, 0.5) == 0.4


def test_alternating_grid_far_from_sine():
    vals = np.linspace(-5, 5, 26)
    grid = scaled_grid(AlternatingSignModel(1.0), 2000, 0.0, vals, vals)
    err = sine_compare(grid, BulkPointData(0.0, 1.0 / math.pi, 1.0 / (2.0 * math.pi)))
    assert err >= 0.05


def test_reproducing_property_gauss_quadrature():
    model = bulk_model(37)
    n = 24
    m = 4 * n
    nodes, weights = gauss_quadrature(model, m)
    rng = np.random.default_rng(38)
    for _ in range(3):
        x, y = rng.uniform(-0.6, 0.6, 2)
        kxz = np.array([kernel_sum(model, n, x, float(z)) for z in nodes])
        kzy = np.array([kernel_sum(model, n, float(z), y) for z in nodes])
        integral = float(np.dot(weights, kxz * kzy))
        direct = kernel_sum(model, n, x, y)
        assert abs(integral - direct) <= 1e-8 * max(1.0, abs(direct))


def test_grid_csv_and_manifest_round_trip(tmp_path):
    vals = np.linspace(-1, 1, 3)
    grid = scaled_grid(FREE, 100, 0.0, vals, vals)
    csv_path = tmp_path / "kernel.csv"
    grid.to_csv(csv_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    # exact round trip through repr
    for row in rows:
        i = list(vals).index(float(row["a"]))
        j = list(vals).index(float(row["b"]))
        assert float(row["re"]) == grid.values[i, j].real
        assert float(row["im"]) == 0.0
    man = json.loads(json.dumps(grid.manifest_dict({"kind": "free"}, reference="sine",
                                                   sup_error=0.01)))
    assert man["n"] == 100 and man["reference"] == "sine"
    assert man["grid"]["a"] == list(vals)


@pytest.mark.parametrize("kind", ["real", "complex values", "complex labels", "wide values"])
def test_grid_csv_matches_per_cell_writer(tmp_path, kind):
    rng = np.random.default_rng(41)
    a, b = np.linspace(-2, 2, 7), rng.uniform(-3, 3, 5)
    values = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-20, 20, (7, 5))
    values[0, 0] = -0.0
    if kind == "wide values":  # repr's positional range and both sides of it
        values = rng.choice([-1.0, 1.0], (7, 5)) * 10.0 ** rng.uniform(-6, 17, (7, 5))
    elif kind == "complex values":
        values = values + 1j * rng.standard_normal((7, 5))
        values[0, :3] = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-1.5, 0.0)]
    elif kind == "complex labels":
        a = a + 1j * rng.uniform(-1, 1, 7)
        a[1] = complex(0.25, -0.0)
        values = values + 1j * rng.standard_normal((7, 5))
    grid = KernelGrid(x0=0.0, n=10, a_values=a, b_values=b, values=values)
    grid.to_csv(tmp_path / "new.csv")
    kernel_csv_per_cell(grid, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_grid_csv_memory_is_bounded_by_its_chunks(tmp_path):
    a = np.linspace(-20, 20, 401)
    rng = np.random.default_rng(43)
    values = rng.standard_normal((401, 401)) * 10.0 ** rng.uniform(-6, 2, (401, 401))
    # a complex grid has two float fields a line, so more values a chunk
    for grid_values in (values, values + 1j * values[::-1]):
        grid = KernelGrid(x0=0.0, n=1000, a_values=a, b_values=a + 0.05, values=grid_values)
        tracemalloc.start()
        try:
            grid.to_csv(tmp_path / "kernel.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the grid's text alone is about 9 MiB
        assert peak < 2 * 2 ** 20
        assert (tmp_path / "kernel.csv").stat().st_size > 8 * 2 ** 20


def test_complex_labels_are_shortest_with_a_sign():
    assert cdkernel._num(0.1j) == "0.0+0.1j"
    assert cdkernel._num(complex(0.25, -1e-20)) == "0.25-1e-20j"
    assert cdkernel._num(complex(-0.5, -0.0)) == "-0.5"
    for v in (complex(1 / 3, 2 / 3), complex(-7.0, 1e16), complex(0.0, -math.pi)):
        assert complex(cdkernel._num(v)) == v


def test_scaled_grid_consistency_guard():
    # the built-in determinant spot check passes on a healthy pipeline
    scaled_grid(FREE, 50, 0.0, np.array([1.0, 2.0]), np.array([0.0]))


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        scaled_grid(FREE, 10, 0.0, np.array([]), np.array([0.0]))
