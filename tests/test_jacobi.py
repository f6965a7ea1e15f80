import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cdscale import jacobi
from cdscale.errors import IndexOutOfRange, InvalidCoefficient
from cdscale.jacobi import (AlternatingSignModel, ConstantModel, PeriodicModel,
                            TableModel, gauss_quadrature, poly_table,
                            scaled_zeros, sturm_count, truncated_tridiagonal)
from references import CustomModel, all_scaled_zeros, poly_table_loop, sturm_count_loop

FREE = ConstantModel(1.0, 0.0)
# lengths around the block edges of the scan (blocks of isqrt(L) steps)
SCAN_LENGTHS = [0, 1, 2, 3, 15, 16, 17, 997, 4096]


def decaying_model(seed, strength=0.3, size=4000):
    """Trace-class perturbation of the free model; keeps 0 a bulk point."""
    rng = np.random.default_rng(seed)
    j = np.arange(1, size + 1)
    a = 1.0 + strength * rng.uniform(-1, 1, size) / j
    b = strength * rng.uniform(-1, 1, size) / j
    return TableModel(a, b)


def test_free_poly_pattern_at_zero():
    P, Q = poly_table(FREE, [0.0], 4)
    assert P[:, 0].tolist() == [1.0, 0.0, -1.0, 0.0, 1.0]
    assert Q[:, 0].tolist() == [0.0, 1.0, 0.0, -1.0, 0.0]


def test_initial_data_any_model():
    model = PeriodicModel([1.5, 0.7], [0.3, -0.4])
    P, Q = poly_table(model, [0.123], 0)
    assert P.shape == Q.shape == (1, 1)
    assert (P[0, 0], Q[0, 0]) == (1.0, 0.0)


def test_free_degree_one_values():
    for x in (0.0, 0.5, -1.3, 2.0 + 0.5j):
        P, Q = poly_table(FREE, [x], 1)
        assert P[1, 0] == x
        assert Q[1, 0] == 1.0


def test_q_initialization_general_a1():
    model = ConstantModel(2.5, 0.0)
    P, Q = poly_table(model, [0.9], 1)
    assert Q[1, 0] == 1.0 / 2.5
    assert P[1, 0] == 0.9 / 2.5


def test_real_input_gives_exactly_real_values():
    model = PeriodicModel([1.1, 0.9], [0.2, -0.1])
    P, Q = poly_table(model, [0.37], 50)
    assert P.dtype == Q.dtype == np.float64


def test_recurrence_invalid_coefficient():
    with pytest.raises(InvalidCoefficient):
        ConstantModel(-1.0, 0.0)
    with pytest.raises(InvalidCoefficient):
        ConstantModel(1.0, math.inf)
    bad = CustomModel(lambda j: (1.0 if j < 3 else -1.0, 0.0), "bad tail")
    with pytest.raises(InvalidCoefficient, match=r"^a_3 = -1\.0 must be positive and finite$"):
        poly_table(bad, [0.0], 5)


@pytest.mark.parametrize("make, message", [
    (lambda: ConstantModel(1.0, math.nan), "b_1 = nan must be finite"),
    (lambda: PeriodicModel([1.0, -1.0, math.nan], [0.0, math.inf, 0.0]),
     "a_2 = -1.0 must be positive and finite"),
    (lambda: TableModel([1.0, 1.0, 0.0, math.inf], [0.0, -math.inf, math.nan, 0.0]),
     "b_2 = -inf must be finite"),
    (lambda: TableModel([2.0, math.nan], [0.5, math.nan]), "a_2 = nan must be positive and finite"),
    # computed coefficients: b_4 is NaN past the first bad a_3
    (lambda: poly_table(CustomModel(lambda j: (1.0 if j != 3 else 0.0, 0.0 if j < 4 else math.nan),
                                    "bad tail"), [0.0], 6),
     "a_3 = 0.0 must be positive and finite"),
])
def test_coefficient_check_names_the_first_bad_entry(make, message):
    # several bad entries: the first index is named, a_j before b_j
    with pytest.raises(InvalidCoefficient) as info:
        make()
    assert str(info.value) == message


def test_alternating_model_signs_and_context():
    model = AlternatingSignModel(2.0)
    a1, b1 = model.coeff(1, n=10)
    a2, b2 = model.coeff(2, n=10)
    assert (a1, b1) == (1.0, 0.2)
    assert (a2, b2) == (1.0, -0.2)
    with pytest.raises(InvalidCoefficient):
        model.coeff(1)  # order context required
    a_arr, b_arr = model.coeff_arrays(4, n=10)
    np.testing.assert_array_equal(b_arr, [0.2, -0.2, 0.2, -0.2])
    np.testing.assert_array_equal(a_arr, np.ones(4))


def test_table_model_no_implicit_extension():
    model = TableModel([1.0, 1.0], [0.0, 0.1])
    model.coeff(2)
    with pytest.raises(IndexOutOfRange):
        model.coeff(3)
    with pytest.raises(IndexOutOfRange):
        model.coeff_arrays(3)


def test_table_csv_round_trip(tmp_path):
    path = tmp_path / "coeffs.csv"
    path.write_text("j,a,b\n0,1.5,0.25\n1,0.75,-0.5\n")
    model = TableModel.from_csv(path)
    assert model.coeff(1) == (1.5, 0.25)
    assert model.coeff(2) == (0.75, -0.5)


@pytest.mark.parametrize("body,fragment", [
    ("x,a,b\n0,1,0\n", "header"),
    ("j,a,b\n1,1,0\n", "line 2"),
    ("j,a,b\n0,1,0\n0,1,0\n", "line 3"),
    ("j,a,b\n0,oops,0\n", "line 2"),
    ("j,a,b\n0,-1,0\n", "line 2"),
    ("j,a,b\n0,1\n", "line 2"),
])
def test_table_csv_malformed(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(InvalidCoefficient, match=fragment):
        TableModel.from_csv(path)


@pytest.mark.parametrize("row, message", [
    ("1,inf,0", "a = inf must be positive and finite"),
    ("1,-inf,0", "a = -inf must be positive and finite"),
    ("1,nan,0", "a = nan must be positive and finite"),
    ("1,1,nan", "b = nan must be finite"),
    ("1,1,inf", "b = inf must be finite"),
    ("1,1,-inf", "b = -inf must be finite"),
])
def test_table_csv_names_the_line_of_a_non_finite_coefficient(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"j,a,b\n0,1,0\n{row}\n")
    with pytest.raises(InvalidCoefficient) as info:
        TableModel.from_csv(path)
    assert str(info.value) == f"{path}: line 3: {message}"


def test_periodic_model_takes_arrays():
    model = PeriodicModel(np.array([1.0, 1.1]), np.array([0.0, 0.1]))
    assert model.coeff(3) == (1.0, 0.0) and model.coeff(4) == (1.1, 0.1)
    assert model.describe() == PeriodicModel([1.0, 1.1], [0.0, 0.1]).describe()
    for a, b in ((np.array([]), np.array([])), ([], [])):
        with pytest.raises(InvalidCoefficient, match="period lists must be nonempty"):
            PeriodicModel(a, b)


def test_scaled_zeros_three_by_three():
    # characteristic polynomial of the 3x3 free truncation is l^3 - 2l
    sl = scaled_zeros(FREE, 3, 0.0, 10.0)
    np.testing.assert_allclose(
        sl.scaled_zeros, [-3.0 * math.sqrt(2.0), 0.0, 3.0 * math.sqrt(2.0)], atol=1e-10)


def test_scaled_zeros_order_one():
    sl = scaled_zeros(ConstantModel(1.0, 0.0), 1, 0.0, 5.0)
    np.testing.assert_allclose(sl.scaled_zeros, [0.0], atol=1e-12)


def test_scaled_zeros_against_dense_eigensolver():
    model = decaying_model(11)
    n = 180
    diag, off = truncated_tridiagonal(model, n)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    ref = np.sort(np.linalg.eigvalsh(dense))
    got = all_scaled_zeros(model, n).scaled_zeros / n
    assert got.size == n
    np.testing.assert_allclose(got, ref, atol=1e-10)


def test_sturm_count_matches_dense_eigensolver():
    rng = np.random.default_rng(12)
    diag = rng.uniform(-1, 1, 25)
    off = rng.uniform(0.2, 1.5, 24)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    eigs = np.linalg.eigvalsh(dense)
    shifts = np.concatenate([rng.uniform(-4, 4, 30), eigs + 1e-9])
    counts = sturm_count(diag, off, shifts)
    for s, c in zip(shifts, counts):
        assert c == int(np.sum(eigs < s))


# small integers make ties: zero pivots and shifts on diagonal entries
STURM_ENTRIES = st.one_of(st.integers(-2, 2).map(float), st.floats(-4.0, 4.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(STURM_ENTRIES, STURM_ENTRIES), min_size=1, max_size=30),
       extra=st.lists(STURM_ENTRIES, max_size=5))
def test_sturm_count_bit_identical_to_row_loop(rows, extra):
    diag = np.array([d for d, _ in rows])
    off = np.array([e for _, e in rows[1:]])  # empty for n = 1
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    shifts = np.concatenate([extra, diag, np.linalg.eigvalsh(dense),
                             [0.0, -0.0, np.inf, -np.inf, np.nan]])
    got = sturm_count(diag, off, shifts)
    assert got.dtype == np.int64 and got.shape == shifts.shape
    assert np.array_equal(got, sturm_count_loop(diag, off, shifts))


def test_sturm_count_zero_pivots():
    # zero diagonal at shift 0: the first pivot vanishes and is nudged negative,
    # so the eigenvalue 0 itself counts as below (eigenvalues 0, +-1, +-sqrt 3)
    diag, off = np.zeros(5), np.ones(4)
    shifts = [0.0, -1.5, 1.5, -np.inf, np.inf]
    assert sturm_count(diag, off, shifts).tolist() == [3, 1, 4, 0, 5]
    assert np.array_equal(sturm_count(diag, off, shifts), sturm_count_loop(diag, off, shifts))
    assert sturm_count(np.array([0.5]), np.empty(0), 0.5).tolist() == [1]
    with pytest.raises(ValueError, match="len\\(diag\\) - 1"):
        sturm_count(np.zeros(3), np.ones(1), 0.0)


@pytest.mark.parametrize("model", [FREE, PeriodicModel([1.1, 0.9, 1.0], [0.2, -0.1, 0.0]),
                                   AlternatingSignModel(1.5)])
def test_scaled_zeros_unchanged_from_row_loop(monkeypatch, model):
    n = 512  # a power of two: n * e / n is exactly e, so a window edge can sit on a zero
    eigs = all_scaled_zeros(model, n).scaled_zeros / n
    k = int(np.searchsorted(eigs, 0.0))
    lo_edge, hi_edge = float(eigs[k - 1]), float(eigs[k])
    cases = [(0.0, 20.0), (0.3, 30.0), (0.0, n * hi_edge), (0.0, -n * lo_edge)]
    assert 0.0 + n * hi_edge / n == hi_edge and 0.0 - (-n * lo_edge) / n == lo_edge
    got = [scaled_zeros(model, n, x0, window).scaled_zeros for x0, window in cases]
    monkeypatch.setattr(jacobi, "sturm_count", sturm_count_loop)
    for (x0, window), new in zip(cases, got):
        old = scaled_zeros(model, n, x0, window).scaled_zeros
        assert new.tobytes() == old.tobytes()


def test_scaled_zeros_names_zeros_that_coincide_in_floating_point():
    # distinct eigenvalues near +-1.43e199, equal in floating point
    with pytest.raises(ArithmeticError, match=r"coincide at .* \(n = 7, x0 = 0.0\)"):
        scaled_zeros(AlternatingSignModel(1e200), 7, 0.0, 1e300)


def test_zero_count_equals_degree():
    model = decaying_model(13)
    for n in (5, 40, 111):
        assert all_scaled_zeros(model, n).scaled_zeros.size == n


def test_interlacing():
    model = decaying_model(14)
    n = 120
    zn = all_scaled_zeros(model, n).scaled_zeros / n
    zm = all_scaled_zeros(model, n - 1).scaled_zeros / (n - 1)
    for k in range(n - 1):
        assert zn[k] < zm[k] < zn[k + 1]


def sign_change_zeros(model, n, x0, window):
    """Independent oracle: bisect sign changes of p_n on a fine grid."""
    grid = np.linspace(x0 - window / n, x0 + window / n, 4001)
    vals = poly_table(model, grid, n)[0][n]
    change = vals[:-1] * vals[1:] < 0
    los, his = grid[:-1][change], grid[1:][change]
    flos = vals[:-1][change]
    for _ in range(60):
        mids = 0.5 * (los + his)
        fmids = poly_table(model, mids, n)[0][n]
        left = flos * fmids <= 0
        his = np.where(left, mids, his)
        los = np.where(left, los, mids)
        flos = np.where(left, flos, fmids)
    return n * (0.5 * (los + his) - x0)


def test_sturm_zeros_match_sign_changes():
    model = decaying_model(15)
    n = 400
    window = 25.0
    sturm = scaled_zeros(model, n, 0.0, window).scaled_zeros
    oracle = sign_change_zeros(model, n, 0.0, window)
    assert sturm.size == oracle.size
    np.testing.assert_allclose(sturm, oracle, atol=1e-8)


def test_mean_gap_free_model():
    sl = scaled_zeros(FREE, 5000, 0.0, 40.0)
    gaps = sl.nearest_neighbor_gaps()
    assert abs(gaps.mean() - 2.0 * math.pi) <= 0.02 * 2.0 * math.pi


def test_free_zero_positions_chebyshev_oracle():
    # zeros of the degree-n second kind Chebyshev polynomial: 2 cos(k pi / (n+1))
    n = 500
    sl = scaled_zeros(FREE, n, 0.0, 30.0)
    k = np.arange(1, n + 1)
    cheb = 2.0 * np.cos(k * math.pi / (n + 1))
    expected = np.sort(n * cheb[np.abs(n * cheb) <= 30.0])
    np.testing.assert_allclose(sl.scaled_zeros, expected, atol=1e-8)


def test_gauss_quadrature_orthonormality():
    model = decaying_model(16)
    m = 60
    nodes, weights = gauss_quadrature(model, m)
    assert abs(weights.sum() - 1.0) < 1e-12
    P, _ = poly_table(model, nodes, 12)
    gram = (P * weights) @ P.T
    np.testing.assert_allclose(gram, np.eye(13), atol=1e-10)


@pytest.mark.parametrize("m", [1, 2, 7, 40, 160, 400])
@pytest.mark.parametrize("model, n_ctx", [(FREE, None), (PeriodicModel([1.0, 1.05], [0.2, 0.2]), None),
                                          (AlternatingSignModel(1.0), 40)])
def test_gauss_quadrature_matches_tridiagonal_solver(model, n_ctx, m):
    # the dense solve against LAPACK's tridiagonal one
    diag, off = truncated_tridiagonal(model, m, n_ctx)
    ref_nodes, vectors = scipy.linalg.eigh_tridiagonal(diag, off)
    nodes, weights = gauss_quadrature(model, m, n_ctx)
    assert np.max(np.abs(nodes - ref_nodes)) <= 4 * np.spacing(np.max(np.abs(ref_nodes)))
    assert np.max(np.abs(weights - vectors[0] ** 2)) <= 4 * np.spacing(1.0)


def test_invalid_scaled_zero_arguments():
    with pytest.raises(ValueError):
        scaled_zeros(FREE, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        scaled_zeros(FREE, 5, 0.0, -1.0)


@pytest.mark.parametrize("up_to", SCAN_LENGTHS)
@pytest.mark.parametrize("points", [[-1.9, -0.4, 0.0, 0.3, 1.7], [0.3 + 1e-3j, -1.2 - 2e-4j]])
def test_poly_table_matches_step_loop(up_to, points):
    models = [FREE, PeriodicModel([1.1, 0.9, 1.0], [0.2, -0.1, 0.0]), decaying_model(3, size=4096),
              AlternatingSignModel(1.0)]
    for model in models:
        n = max(up_to, 1) if model.n_dependent else None
        P, Q = poly_table(model, points, up_to, n)
        P_ref, Q_ref = poly_table_loop(model, points, up_to, n)
        assert P.shape == Q.shape == P_ref.shape and P.dtype == P_ref.dtype
        for got, ref in ((P, P_ref), (Q, Q_ref)):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
            # the first block reruns from the exact initial data with the loop's arithmetic
            block = max(1, math.isqrt(up_to))
            assert np.array_equal(got[:block + 1], ref[:block + 1])
        # a consumer sees the same rows as the table, each exactly once, p_0 first
        blocks = []
        assert poly_table(model, points, up_to, n, consume=lambda rows: blocks.append(rows.copy())) is None
        assert np.array_equal(blocks[0], P[:1])
        rows = np.concatenate(blocks)
        assert rows.dtype == P.dtype
        assert sorted(r.tobytes() for r in rows) == sorted(r.tobytes() for r in P)


def test_poly_table_memory_bounded():
    xs = 0.3 + np.linspace(-5.0, 5.0, 51) / 64000
    tracemalloc.start()
    try:
        P, Q = poly_table(FREE, xs, 64000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (P.nbytes + Q.nbytes) + 2 ** 20


def test_one_point_poly_table_memory_bounded():
    # beyond its two tables: the coefficients b and (1, a_1, .., a_n), and while the
    # model forms them, its index array; a padded or shifted copy of one is 8 more bytes per n
    n = 64000
    tracemalloc.start()
    try:
        P, Q = poly_table(FREE, [0.3], n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= P.nbytes + Q.nbytes + 32 * n
