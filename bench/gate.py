"""Correctness gate: decides whether one CLI invocation succeeded.

An invocation fails when its exit code is not 0, when any number in its CSV
or JSON outputs is non-finite, when a verify check or ``kernel_vs_*``
comparison in its manifest fails, or when a key output differs from its
reference by more than the tolerance below. References are either closed
forms of the free model (computed here, for any seed) or values stored in
``reference.json`` for the commands that do not depend on the seed.

Comparison is numeric, never byte for byte: a change of summation order
moves results at the 1e-12 level, far inside every tolerance here.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# (atol, rtol) per key output: |got - ref| <= atol + rtol * |ref|.
TOLERANCES = {
    "kernel_cells": (1e-9, 1e-9),      # scaled kernel values, O(1)
    "zeros": (1e-6, 0.0),              # scaled zeros; bisection is 1e-12 before scaling
    "diagnostics": (1e-12, 1e-9),
    "solution": (1e-12, 1e-9),
    "verify_stats": (1e-12, 1e-6),     # sup statistics of verify thm25
}
# Against the closed forms, which sum in another order than the recurrences.
ORACLE_TOLERANCES = {"kernel_cells": (1e-8, 1e-8), "zeros": (1e-6, 0.0)}
SAMPLES_PER_AXIS = 5
SOLUTION_SAMPLES = 11
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_references(path: str = REFERENCE_FILE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _axis_samples(m: int) -> list[int]:
    return sorted({round(k * (m - 1) / (SAMPLES_PER_AXIS - 1)) for k in range(SAMPLES_PER_AXIS)})


def _read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _json_numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _json_numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _json_numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield float(obj)


def non_finite_outputs(out_dir: str) -> list[str]:
    """Problems with the output files: unparsable or non-finite numbers."""
    problems = []
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        try:
            if name.endswith(".csv"):
                finite = bool(np.all(np.isfinite(_read_csv(path))))
            elif name.endswith(".json"):
                with open(path) as fh:
                    finite = all(math.isfinite(x) for x in _json_numbers(json.load(fh)))
            else:
                continue
        except ValueError as exc:
            problems.append(f"{name}: unparsable ({exc})")
            continue
        if not finite:
            problems.append(f"{name}: non-finite number")
    return problems


def failed_checks(manifest: dict) -> list[str]:
    """Names of failed verify checks and failed reference comparisons."""
    bad = [c["name"] for c in manifest.get("checks", []) if not c.get("pass")]
    if manifest.get("command") == "kernel" and manifest.get("pass") is False:
        bad.append(f"kernel_vs_{manifest.get('reference')}")
    return bad


def key_outputs(cmd, out_dir: str) -> dict:
    """The values of one invocation that are compared against references."""
    kind = cmd.kind
    if kind == "kernel":
        rows = _read_csv(os.path.join(out_dir, "kernel.csv"))
        na, nb = np.unique(rows[:, 0]).size, np.unique(rows[:, 1]).size
        return {"kernel_cells": [rows[i * nb + j].tolist()
                                 for i in _axis_samples(na) for j in _axis_samples(nb)]}
    if kind == "zeros":
        return {"zeros": _read_csv(os.path.join(out_dir, "zeros.csv"))[:, 0].tolist()}
    if kind == "diagnostics":
        with open(os.path.join(out_dir, "diagnostics.json")) as fh:
            d = json.load(fh)
        keys = ("avg_norm", "max_over_n", "sup_norm", "matrix_conv")
        return {"diagnostics": [d[k] for k in keys]
                + [w for _, w in d["decay_profile"]]}
    if kind == "canonical-solve":
        rows = _read_csv(os.path.join(out_dir, "solution.csv"))
        step = max(1, (rows.shape[0] - 1) // (SOLUTION_SAMPLES - 1))
        return {"solution": rows[::step].tolist()}
    if kind == "verify":
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            m = json.load(fh)
        stats = []
        for c in m["checks"]:
            stats += c.get("kernel_stat", []) + c.get("flow_stat", [])
        return {"verify_stats": stats} if stats else {}
    return {}


def free_kernel(n: int, x, y) -> np.ndarray:
    """K_n(x, y) / n of the free model from p_k(2 cos t) = sin((k+1) t) / sin t."""
    k = np.arange(1, n + 1, dtype=float)
    tx = np.arccos(np.asarray(x, dtype=float) / 2.0)
    ty = np.arccos(np.asarray(y, dtype=float) / 2.0)
    out = np.empty(tx.shape)
    for i, (s, t) in enumerate(zip(tx.ravel(), ty.ravel())):
        out.flat[i] = np.dot(np.sin(k * s), np.sin(k * t)) / (math.sin(s) * math.sin(t))
    return out / n


def free_zeros(n: int, x0: float, window: float) -> np.ndarray:
    """Scaled zeros of the free model: p_n(x) = 0 at x = 2 cos(k pi / (n + 1))."""
    x = 2.0 * np.cos(np.arange(n, 0, -1) * math.pi / (n + 1))
    inside = np.abs(n * (x - x0)) <= window
    return n * (x[inside] - x0)


def oracle(cmd, got: dict) -> dict | None:
    """Closed-form key outputs of a free-model command, or None if there is none."""
    if cmd.flag("--model") != "free" or cmd.kind not in ("kernel", "zeros"):
        return None
    n = int(cmd.flag("--n"))
    x0 = float(cmd.flag("--x0", "0"))
    if cmd.kind == "zeros":
        return {"zeros": free_zeros(n, x0, float(cmd.flag("--window"))).tolist()}
    cells = np.asarray(got["kernel_cells"])
    vals = free_kernel(n, x0 + cells[:, 0] / n, x0 + cells[:, 1] / n)
    return {"kernel_cells": np.column_stack(
        [cells[:, :2], vals, np.zeros_like(vals)]).tolist()}


def _compare(name: str, got, ref, atol: float, rtol: float) -> str | None:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return f"{name}: shape {got.shape} != reference {ref.shape}"
    err = np.abs(got - ref)
    bad = err > atol + rtol * np.abs(ref)
    if np.any(bad):
        return f"{name}: max deviation {float(np.max(err)):.3g} beyond atol={atol:g} rtol={rtol:g}"
    return None


def check(cmd, rc: int, out_dir: str, references: dict) -> tuple[list[str], bool]:
    """(problems, silent): what failed, and whether the exit code hid it.

    ``silent`` is true when the invocation exited 0 although its outputs are
    wrong; a failure the program reports itself through its exit code is
    counted as failed but is not a silent wrong answer.
    """
    problems = [] if rc == 0 else [f"exit code {rc}"]
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return problems + [f"manifest.json unreadable ({exc})"], rc == 0
    problems += non_finite_outputs(out_dir)
    problems += [f"check failed: {c}" for c in failed_checks(manifest)]
    if rc == 0 and not problems:
        problems += reference_deviations(cmd, out_dir, references)
    return problems, rc == 0 and bool(problems)


def reference_deviations(cmd, out_dir: str, references: dict) -> list[str]:
    """Key outputs that differ from the closed form or the stored reference."""
    try:
        got = key_outputs(cmd, out_dir)
    except (OSError, ValueError, LookupError) as exc:
        return [f"key outputs unreadable ({exc!r})"]
    expected, tolerances = oracle(cmd, got), ORACLE_TOLERANCES
    if expected is None and not cmd.seeded:
        expected, tolerances = references.get(cmd.key), TOLERANCES
        if expected is None:
            return ["no stored reference"]
    deviations = (_compare(name, got.get(name, []), ref, *tolerances[name])
                  for name, ref in (expected or {}).items())
    return [msg for msg in deviations if msg]
