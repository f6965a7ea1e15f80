import math

import numpy as np
import pytest

from cdscale.scan import blocked_scan

# lengths around the block edges of the scan (blocks of isqrt(L) steps)
SCAN_LENGTHS = [0, 1, 2, 3, 15, 16, 17, 997, 4096]
POINTS = np.array([-1.3, 0.2 + 1e-3j, 1.1 - 2e-4j])


def coefficients(length, seed=5):
    """Per-step arrays (a, b) near the free model, so that products stay moderate."""
    rng = np.random.default_rng(seed)
    return 1.0 + 0.05 * rng.uniform(-1, 1, length), 0.05 * rng.uniform(-1, 1, length)


def transfer_step(x, a, b):
    """F x for F = (((POINTS - b)/a, -1/a), (a, 0)), leaving x intact."""
    return np.stack(((POINTS - b) / a * x[0] + (-1.0 / a) * x[1], a * x[0]))


def increment_step(x, a, b):
    """(F - I) x for the small rank-one increment F - I = z (b, a - 1)^T (1, -b)."""
    r = POINTS / 64 * (x[0] - b * x[1])
    return np.stack((b * r, (a - 1.0) * r))


STEPS = {False: transfer_step, True: increment_step}


def start_matrix():
    return np.array([[1.0, 0.5], [-0.25, 2.0]], dtype=complex)[:, :, None].repeat(POINTS.size, 2)


def scan_snapshots(length):
    """Steps 0 and length, the first and last step of blocks, and a repeat."""
    size = max(1, math.isqrt(length))
    edges = [size * k + d for k in (0, 1, length // size - 1) for d in (0, 1)]
    return sorted({min(max(s, 0), length) for s in edges} | {length}) + [length, 0]


def step_loop(length, start, increment):
    """States X_0..X_length, one step per iteration, shape (length + 1, 2, c, points)."""
    step, coeffs = STEPS[increment], coefficients(length)
    x, states = start[:, :, None], [start]
    for i in range(length):
        d = step(x, *(t[i:i + 1, None] for t in coeffs))
        x = x + d if increment else d
        states.append(x[:, :, 0])
    return np.array(states)


def run(length, start, increment, snapshots, visit=None):
    return blocked_scan(length, start, STEPS[increment], coefficients(length), snapshots,
                        visit=visit, increment=increment)


@pytest.mark.parametrize("length", SCAN_LENGTHS)
@pytest.mark.parametrize("increment", [False, True])
def test_one_column_start_is_column_zero(length, increment):
    # the rerun carries the kept columns only; every element sees the same operations
    snaps = scan_snapshots(length)
    start = start_matrix()
    for visiting in (False, True):
        seen = {1: [], 2: []}
        outs = {c: run(length, start[:, :c].copy(), increment, snaps,
                       (lambda x, steps, c=c: seen[c].append(x[:, :1].copy())) if visiting else None)
                for c in (1, 2)}
        assert outs[1].shape == (len(snaps), POINTS.size, 2, 1)
        assert np.array_equal(outs[1][..., 0], outs[2][..., 0])
        assert len(seen[1]) == len(seen[2]) == (max(1, math.isqrt(length)) if visiting and length else 0)
        assert all(np.array_equal(u, v) for u, v in zip(seen[1], seen[2]))


@pytest.mark.parametrize("length", SCAN_LENGTHS)
def test_visit_sees_every_step_once_in_block_order(length):
    size = max(1, math.isqrt(length))
    ref = step_loop(length, start_matrix(), False)
    calls = []

    def visit(x, steps):
        steps = range(length + 1)[steps]
        assert x.shape == (2, 2, len(steps), POINTS.size)
        # step j of every block, in block order, and no padding past the last step
        assert steps == range(len(calls) + 1, length + 1, size)
        for k, s in enumerate(steps):
            np.testing.assert_allclose(x[:, :, k], ref[s], rtol=0,
                                       atol=1e-12 * np.max(np.abs(ref)))
        calls.append(steps)

    run(length, start_matrix(), False, [], visit)
    seen = [s for steps in calls for s in steps]
    assert sorted(seen) == list(range(1, length + 1)) and len(seen) == length


@pytest.mark.parametrize("length", SCAN_LENGTHS)
@pytest.mark.parametrize("increment", [False, True])
def test_snapshots_match_step_loop(length, increment):
    snaps = scan_snapshots(length)
    ref = step_loop(length, start_matrix(), increment)
    got = run(length, start_matrix(), increment, snaps)
    assert got.shape == (len(snaps), POINTS.size, 2, 2)
    size = max(1, math.isqrt(length))
    for k, s in enumerate(snaps):
        want = ref[s].transpose(2, 0, 1)
        np.testing.assert_allclose(got[k], want, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
        if s <= size:  # the first block reruns from the exact start with the loop's arithmetic
            assert np.array_equal(got[k], want)


@pytest.mark.parametrize("length", SCAN_LENGTHS)
@pytest.mark.parametrize("increment", [False, True])
def test_coefficients_with_trailing_axes(length, increment):
    # a step reads (rows, 1, ...) views of arrays indexed by step along their
    # first axis, as the RK4 steps read their (steps, 4, 4) coefficients
    a, b = coefficients(length)
    table = np.stack([np.stack([a, b], -1), np.stack([b, a], -1)], -2)  # (length, 2, 2)

    def step(x, t):
        assert t.shape[1:] == (1, 2, 2)
        return STEPS[increment](x, t[..., 0, 0], t[..., 0, 1])

    snaps = scan_snapshots(length)
    for visit in (None, lambda x, steps: None):
        got = blocked_scan(length, start_matrix(), step, (table,), snaps, visit=visit,
                           increment=increment)
        assert np.array_equal(got, run(length, start_matrix(), increment, snaps, visit))
