"""Command-line interface: kernels, trajectories, diagnostics, verification suites.

Commands write their artifacts (CSV data, a JSON manifest) into --out and
use stable exit codes: 0 success, 1 a numerical check failed, 2 usage error.
Outputs are byte-identical across runs with identical inputs: fixed-step
numerics, no timestamps, shortest round-trip decimal formatting.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, canonical, cdkernel, jacobi, limits, models, transfer
from . import errors
from .errors import IndexOutOfRange, InvalidCoefficient
from .mat2 import Mat2, inverse_unimodular, operator_norm, operator_norm_array

DEFAULTS = {
    "out": ".",
    "tol": 0.02,
    "x0": 0.0,
    "grid": "-5:5:51",
    "t_grid": "0:1:101",
    "n": 1000,
    "bins": 50,
    "window": 40.0,
    "seed": 0,
    "max_step": 1e-3,
    "n_list": "500,1000,2000,4000",
}


# Options whose value must be positive.
POSITIVE = {"n", "window", "bins"}


class UsageError(Exception):
    pass


def _load_config(path):
    cfg = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}: line {lineno}: expected key=value")
            key, val = line.split("=", 1)
            cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


class Options:
    """Resolved option values: flags beat the config file, which beats defaults."""

    def __init__(self, args):
        self.args = vars(args)
        self.cfg = _load_config(args.config) if getattr(args, "config", None) else {}
        max_step = self.get("max_step", float)  # checked before any command starts work
        if not 0 < max_step <= canonical.DEFAULT_MAX_STEP:
            raise UsageError(f"--max-step {max_step!r} is outside (0, {canonical.DEFAULT_MAX_STEP:g}]")

    def get(self, name, cast=str, default=None):
        v = self.args.get(name)
        if v is None and name in self.cfg:
            try:
                v = cast(self.cfg[name])
            except ValueError:
                raise UsageError(f"bad config value {name}={self.cfg[name]!r}") from None
        if v is None:
            v = default if default is not None else DEFAULTS.get(name)
        if name in POSITIVE and v is not None and not v > 0:
            raise UsageError(f"--{name} must be positive, got {v!r}")
        return v

    def require(self, name, cast=str):
        v = self.get(name, cast)
        if v is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")
        return v


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, steps = spec.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise UsageError(f"bad grid spec {spec!r}; expected min:max:steps") from None
    if steps < 1 or not (math.isfinite(lo) and math.isfinite(hi)) or (steps > 1 and hi <= lo):
        raise UsageError(f"bad grid spec {spec!r}")
    return np.linspace(lo, hi, steps)


def _parse_t_grid(spec: str) -> np.ndarray:
    ts = _parse_grid(spec)
    if ts[0] < 0.0 or ts[-1] > 1.0:
        raise UsageError(f"t grid {spec!r} must lie in [0, 1]")
    return ts


def _parse_complex(spec: str) -> complex:
    try:
        if "," in spec:
            re, im = spec.split(",")
            return complex(float(re), float(im))
        return complex(float(spec), 0.0)
    except ValueError:
        raise UsageError(f"bad complex value {spec!r}; expected re or re,im") from None


def _out_dir(opt: Options) -> str:
    out = os.environ.get("CDSCALE_OUT") or opt.get("out")
    os.makedirs(out, exist_ok=True)
    return out


def _model_from(opt: Options):
    name = opt.require("model")
    period_a = opt.get("period_a")
    period_b = opt.get("period_b")
    try:
        return models.make_model(
            name,
            v=opt.require("v", float) if name == "alternating-v" else None,
            period_a=[float(x) for x in period_a.split(",")] if period_a else None,
            period_b=[float(x) for x in period_b.split(",")] if period_b else None,
            table_path=opt.get("table"),
        )
    except (ValueError, InvalidCoefficient) as exc:
        raise UsageError(str(exc)) from None


def _write_manifest(out, payload: dict) -> None:
    path = os.path.join(out, "manifest.json")
    payload = dict(payload)
    payload["version"] = __version__
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _reference_values(opt: Options, model, a_vals, b_vals):
    """Reference kernel values and a label, per --reference."""
    ref = opt.get("reference")
    if ref is None:
        return None, None
    if ref == "sine":
        rho = opt.require("rho", float)
        w = opt.require("w", float)
        return ref, cdkernel.sine_kernel(a_vals[:, None], b_vals[None, :], rho, w)
    if ref == "modified-sine":
        if not isinstance(model, jacobi.AlternatingSignModel):
            raise UsageError("--reference modified-sine requires --model alternating-v")
        return ref, models.modified_sine_kernel(model.v, a_vals[:, None], b_vals[None, :])
    if ref == "canonical":
        if isinstance(model, jacobi.AlternatingSignModel):
            system = canonical.CoshSinhHamiltonian(model.v)
        else:
            rho = opt.require("rho", float)
            w = opt.require("w", float)
            re_f = opt.get("re_f", float, 0.0)
            bpd = limits.BulkPointData.from_densities(opt.get("x0", float), w, rho, re_f)
            system = canonical.ConstantHamiltonian(bpd.hamiltonian().to_array().real)
        return ref, canonical.kernel_grid(system, a_vals, b_vals,
                                          max_step=opt.get("max_step", float))
    raise UsageError(f"unknown reference {ref!r}")


def cmd_kernel(opt: Options) -> int:
    model = _model_from(opt)
    n = opt.require("n", int)
    x0 = opt.get("x0", float)
    a_vals = _parse_grid(opt.get("grid"))
    b_vals = _parse_grid(opt.get("bgrid")) if opt.get("bgrid") else a_vals
    tol = opt.get("tol", float)
    grid = cdkernel.scaled_grid(model, n, x0, a_vals, b_vals)
    ref_name, ref_vals = _reference_values(opt, model, a_vals, b_vals)
    out = _out_dir(opt)
    grid.to_csv(os.path.join(out, "kernel.csv"))
    sup_error = None
    ok = True
    if ref_name is not None:
        sup_error = float(np.max(np.abs(grid.values - ref_vals)))
        ok = sup_error <= tol
        print(f"[{'PASS' if ok else 'FAIL'}] kernel_vs_{ref_name}: "
              f"sup_error={sup_error:.6g} tol={tol:g}")
    manifest = grid.manifest_dict(model.describe(), ref_name, sup_error)
    manifest.update({"command": "kernel", "tol": tol,
                     "outputs": ["kernel.csv"],
                     "pass": ok if ref_name is not None else None})
    _write_manifest(out, manifest)
    return 0 if ok else 1


def cmd_diagnostics(opt: Options) -> int:
    model = _model_from(opt)
    n = opt.require("n", int)
    x0 = opt.get("x0", float)
    bins = opt.get("bins", int)
    seq = transfer.h_sequence(model, x0, n, n)
    candidate = None
    cand_name = opt.get("candidate")
    if cand_name == "constant":
        h = np.array([[opt.require("h11", float), opt.get("h12", float, 0.0)],
                      [opt.get("h12", float, 0.0), opt.require("h22", float)]])
        candidate = canonical.ConstantHamiltonian(h)
    elif cand_name == "coshsinh":
        v = model.v if isinstance(model, jacobi.AlternatingSignModel) else opt.require("v", float)
        candidate = canonical.CoshSinhHamiltonian(v)
    elif cand_name:
        with open(cand_name) as fh:
            candidate = canonical.system_from_dict(json.load(fh))
    report = limits.diagnostics(seq, n, candidate=candidate)
    est = limits.piecewise_estimate(seq, n, bins)
    out = _out_dir(opt)
    payload = report.to_dict()
    payload["piecewise_estimate"] = est.to_dict()
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ArithmeticError(f"diagnostics at x0 = {x0}, n = {n} overflow off the bulk") from None
    with open(os.path.join(out, "diagnostics.json"), "w") as fh:
        fh.write(text + "\n")
    print(f"avg_norm={report.avg_norm!r} max_over_n={report.max_over_n!r} "
          f"matrix_conv={report.matrix_conv!r}")
    _write_manifest(out, {"command": "diagnostics", "model": model.describe(),
                          "n": n, "x0": x0, "bins": bins,
                          "candidate": cand_name,
                          "outputs": ["diagnostics.json"]})
    return 0


def cmd_zeros(opt: Options) -> int:
    model = _model_from(opt)
    n = opt.require("n", int)
    x0 = opt.get("x0", float)
    window = opt.get("window", float)
    sl = jacobi.scaled_zeros(model, n, x0, window)
    out = _out_dir(opt)
    with open(os.path.join(out, "zeros.csv"), "w", newline="") as fh:
        fh.write("scaled_zero\n")
        for z in sl.scaled_zeros:
            fh.write(f"{float(z)!r}\n")
    gaps = sl.nearest_neighbor_gaps()
    mean_gap = float(np.mean(gaps)) if gaps.size else None
    print(f"zeros={len(sl.scaled_zeros)} mean_gap={mean_gap!r}")
    _write_manifest(out, {"command": "zeros", "model": model.describe(),
                          "n": n, "x0": x0, "window": window,
                          "count": int(len(sl.scaled_zeros)),
                          "mean_gap": mean_gap, "outputs": ["zeros.csv"]})
    return 0


class CheckList:
    def __init__(self):
        self.checks = []

    def add(self, name: str, measured: float, bound: float, ok=None):
        if ok is None:
            ok = bool(measured <= bound)
        self.checks.append({"name": name, "measured": float(measured),
                            "bound": float(bound), "pass": bool(ok)})
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: measured={measured:.6g} bound={bound:g}")

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.checks)


def _suite_transfer(opt: Options, checks: CheckList):
    model = _model_from(opt)
    n = opt.require("n", int)
    x0 = opt.get("x0", float)
    x = x0 + 0.7 / n + 0.3j / n
    P, Q = jacobi.poly_table(model, np.array([complex(x)]), n, n)
    a_arr, _ = model.coeff_arrays(n, n)
    T = transfer.transfer_matrices(model, [x], range(1, n + 1), n)[:, 0]
    det = T[:, 0, 0] * T[:, 1, 1] - T[:, 0, 1] * T[:, 1, 0]
    checks.add("det_transfer", float(np.max(np.abs(det - 1.0))), 1e-8)
    ref = np.empty_like(T)
    ref[:, 0, 0], ref[:, 0, 1] = P[1:, 0], -Q[1:, 0]
    ref[:, 1, 0], ref[:, 1, 1] = a_arr * P[:-1, 0], -a_arr * Q[:-1, 0]
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=(1, 2)))
    checks.add("column_form", float(np.max(np.max(np.abs(T - ref), axis=(1, 2)) / scale)), 1e-9)

    seq = transfer.h_sequence(model, x0, n, n)
    tgrid = np.linspace(0.0, 1.0, 11)
    offsets = (2.0 + 0.0j, -3.0 + 1.0j)
    recursive = transfer.q_snapshots(seq, n, offsets, tgrid)
    direct = transfer.q_trajectory_direct(model, n, x0, offsets, tgrid)
    worst = float(np.max(operator_norm_array(direct - recursive)))
    checks.add("q_direct_vs_recursive", worst, 1e-8)

    conj_worst = 0.0
    xs = x0 + 0.3
    for ell in range(1, min(n, 200) + 1):
        s0 = transfer.one_step(model, ell, x0, n)
        sx = transfer.one_step(model, ell, xs, n)
        got = inverse_unimodular(s0) @ sx
        ref = np.array([[1.0, 0.0], [x0 - xs, 1.0]])
        conj_worst = max(conj_worst, float(np.max(np.abs(got.to_array() - ref))))
    checks.add("one_step_conjugation", conj_worst, 1e-12)


def _suite_kernel(opt: Options, checks: CheckList):
    model = _model_from(opt)
    n = opt.require("n", int)
    x0 = opt.get("x0", float)
    rng = np.random.default_rng(opt.get("seed", int))
    a, b = np.array([rng.uniform(-5, 5, 2) + 1j * rng.uniform(-1, 1, 2)
                     for _ in range(20)]).T
    ks = cdkernel.kernel_sum(model, n, x0 + a / n, x0 + b / n, n)
    kc = cdkernel.kernel_cd(model, n, x0 + a / n, x0 + b / n, n)
    q = transfer.q_trajectory_direct(model, n, x0, np.concatenate([a, b]), [1.0])[0]
    kd = cdkernel.kernel_det_q(q[:len(a)], q[len(a):], a, b)
    checks.add("sum_vs_cd", float(np.max(np.abs(ks - kc) / np.maximum(1.0, np.abs(ks)))), 1e-8)
    checks.add("sum_vs_det",
               float(np.max(np.abs(ks / n - kd) / np.maximum(1.0, np.abs(ks / n)))), 1e-8)

    nk = min(n, 40)
    nodes, weights = jacobi.gauss_quadrature(model, 4 * nk, 4 * nk)
    worst_rep = 0.0
    for _ in range(3):
        x, y = x0 + rng.uniform(-0.5, 0.5, 2)
        kxz, kyz = cdkernel.kernel_sum(model, nk, np.array([[x], [y]]), nodes, nk)
        integral = float(np.dot(weights, kxz * kyz))
        direct = float(cdkernel.kernel_sum(model, nk, x, y, nk))
        worst_rep = max(worst_rep, abs(integral - direct) / max(1.0, abs(direct)))
    checks.add("reproducing_property", worst_rep, 1e-8)


def _suite_section5(opt: Options, checks: CheckList):
    v = opt.get("v", float, 1.0)
    n = opt.require("n", int)
    tol = opt.get("tol", float)
    lam_p, lam_m = models.lambda_pm(v, n)
    checks.add("lambda_product", abs(lam_p * lam_m - 1.0), 1e-14)

    free = models.free_model()
    alt = models.alternating_model(v)
    ells = range(0, min(n, 500) + 1)
    t0 = transfer.transfer_matrices(free, [0.0], ells)[:, 0]
    tn = transfer.transfer_matrices(alt, [0.0], ells, n)[:, 0]
    worst = 0.0
    for ell in ells:
        prod = inverse_unimodular(Mat2.from_array(t0[ell])) @ Mat2.from_array(tn[ell])
        worst = max(worst, operator_norm(prod - models.qhat_closed(v, n, ell)))
    checks.add("qhat_closed_vs_product", worst, 1e-9)

    dev = models.alternating_coefficient_deviation(v, n)
    checks.add("coefficient_deviation", dev, max(5e-3, 2.0 / n))

    bins = opt.get("bins", int)
    seq = transfer.h_sequence(alt, 0.0, n, n)
    est = limits.piecewise_estimate(seq, n, bins)
    sysv = canonical.CoshSinhHamiltonian(v)
    centers = (np.arange(bins) + 0.5) / bins
    hw = max(float(np.max(np.abs(est.H(t) - sysv.H(t)))) for t in centers)
    checks.add("piecewise_vs_coshsinh", hw, tol)

    grid_vals = _parse_grid(opt.get("grid"))
    grid = cdkernel.scaled_grid(alt, n, 0.0, grid_vals, grid_vals)
    canon = canonical.kernel_grid(sysv, grid_vals, grid_vals,
                                  max_step=opt.get("max_step", float))
    checks.add("cross_pipeline_kernel", float(np.max(np.abs(grid.values - canon))), tol)

    msk = models.modified_sine_kernel(v, grid_vals[:, None], grid_vals[None, :])
    err_div = float(np.max(np.abs(grid.values - msk)))
    offdiag = np.abs(grid_vals[:, None] - grid_vals[None, :]) > 1e-9
    raw = models.raw_limit_formula(v, grid_vals[:, None], grid_vals[None, :])
    err_raw = float(np.max(np.abs(grid.values - raw)[offdiag]))
    exactly_one = (err_div <= tol) != (err_raw <= tol)
    checks.add("exactly_one_variant_matches",
               min(err_div, err_raw), tol, ok=exactly_one)
    checks.checks[-1]["matched_variant"] = (
        "divided" if err_div <= err_raw else "raw")

    a_col = grid_vals[:, None]
    b_row = grid_vals[None, :]
    sine = np.sin((a_col - b_row) / 2.0) / np.where(offdiag, a_col - b_row, 1.0)
    sine = np.where(offdiag, sine, 0.5)
    v0 = models.modified_sine_kernel(0.0, a_col, b_row)
    checks.add("v0_reduction", float(np.max(np.abs(v0 - sine))), 1e-12)


def _suite_appendix(opt: Options, checks: CheckList):
    # table length has its own default: the identity residuals scale with the
    # polynomial growth of the random draws, so very long tables exceed the
    # absolute tolerances for conditioning reasons alone
    n = opt.get("n", int, 50)
    seed = opt.get("seed", int)
    worst_wr = 0.0
    worst_b = 0.0
    worst_p = 0.0
    for k in range(20):
        rng = np.random.default_rng(seed + k)
        a = rng.uniform(0.8, 1.25, n)
        b = rng.uniform(-0.3, 0.3, n)
        model = jacobi.TableModel(a, b)
        rs = canonical.rs_from_model(model, n)
        worst_wr = max(worst_wr, rs.wronskian_residual())
        rec = canonical.discrete_to_jacobi(rs)
        worst_b = max(worst_b, float(np.max(np.abs(rec.b_list - b))))
        x = rng.uniform(-0.5, 0.5)
        ps = canonical.polys_from_rs(rs, x)
        truth = jacobi.poly_table(model, np.array([x]), n)[0][:, 0]
        worst_p = max(worst_p, float(np.max(np.abs(ps - truth))))
    checks.add("wronskian_identity", worst_wr, 1e-10)
    checks.add("b_recovery", worst_b, 1e-9)
    checks.add("poly_reconstruction", worst_p, 1e-9)


def _suite_thm25(opt: Options, checks: CheckList):
    model = _model_from(opt) if opt.get("model") else models.free_model()
    x0 = opt.get("x0", float)
    tol = opt.get("tol", float)
    try:
        n_list = [int(s) for s in opt.get("n_list").split(",")]
    except ValueError:
        raise UsageError(f"bad --n-list {opt.get('n_list')!r}") from None
    if min(n_list) < 1:
        raise UsageError("--n-list entries must be positive")
    rho = opt.get("rho", float)
    w = opt.get("w", float)
    try:
        if rho is None or w is None:
            bpd = models.free_bulk_data(x0)
        else:
            bpd = limits.BulkPointData.from_densities(x0, w, rho, opt.get("re_f", float, 0.0))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = limits.check_equivalence(model, n_list, x0, bpd, _parse_grid(opt.get("grid")),
                                      _parse_t_grid(opt.get("t_grid")))
    checks.add("kernel_stat_final", report.kernel_stat[-1], tol)
    checks.add("kernel_stat_decreasing", 0.0, 1.0, ok=report.kernel_decreasing)
    checks.add("flow_stat_final", report.flow_stat[-1], tol)
    checks.add("flow_stat_decreasing", 0.0, 1.0, ok=report.flow_decreasing)
    checks.checks[-1]["flow_stat"] = report.flow_stat
    checks.checks[-2]["kernel_stat"] = report.kernel_stat


SUITES = {
    "transfer-identities": _suite_transfer,
    "kernel-identities": _suite_kernel,
    "section5": _suite_section5,
    "appendix-roundtrip": _suite_appendix,
    "thm25": _suite_thm25,
}


def cmd_verify(opt: Options) -> int:
    suite = opt.args.get("suite")
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}")
    checks = CheckList()
    SUITES[suite](opt, checks)
    out = _out_dir(opt)
    _write_manifest(out, {"command": "verify", "suite": suite,
                          "checks": checks.checks,
                          "pass": checks.all_pass})
    print(f"{'all checks passed' if checks.all_pass else 'CHECKS FAILED'} ({suite})")
    return 0 if checks.all_pass else 1


def cmd_canonical_solve(opt: Options) -> int:
    kind = opt.require("system")
    if kind == "constant":
        h = np.array([[opt.require("h11", float), opt.get("h12", float, 0.0)],
                      [opt.get("h12", float, 0.0), opt.require("h22", float)]])
        system = canonical.ConstantHamiltonian(h)
    elif kind == "coshsinh":
        system = canonical.CoshSinhHamiltonian(opt.require("v", float))
    else:
        with open(kind) as fh:
            system = canonical.system_from_dict(json.load(fh))
    z = _parse_complex(opt.require("z"))
    t_grid = _parse_t_grid(opt.get("t_grid"))
    qs = canonical.solve_ode_batch(system, [z], t_grid, max_step=opt.get("max_step", float))[:, 0]
    out = _out_dir(opt)
    with open(os.path.join(out, "solution.csv"), "w", newline="") as fh:
        fh.write("t,q11_re,q11_im,q12_re,q12_im,q21_re,q21_im,q22_re,q22_im\n")
        for t, q in zip(t_grid, qs):
            cells = [t] + [part for c in q.ravel() for part in (c.real, c.imag)]
            fh.write(",".join(repr(float(c)) for c in cells) + "\n")
    _write_manifest(out, {"command": "canonical-solve", "system": system.to_dict(),
                          "z": [z.real, z.imag], "t_grid": opt.get("t_grid"),
                          "max_step": opt.get("max_step", float),
                          "outputs": ["solution.csv"]})
    return 0


def _add_common(p):
    p.add_argument("--out", help="output directory (env CDSCALE_OUT overrides)")
    p.add_argument("--tol", type=float, help="tolerance for pass/fail comparisons")
    p.add_argument("--config", help="key=value config file (flags take precedence)")


def _add_model(p):
    p.add_argument("--model", choices=models.MODEL_NAMES)
    p.add_argument("--v", type=float, help="coupling for alternating-v")
    p.add_argument("--period-a", dest="period_a", help="comma list for periodic a")
    p.add_argument("--period-b", dest="period_b", help="comma list for periodic b")
    p.add_argument("--table", help="CSV path (header j,a,b) for the table model")
    p.add_argument("--n", type=int)
    p.add_argument("--x0", type=float)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cdscale", description=__doc__)
    ap.add_argument("--version", action="version", version=f"cdscale {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="scaled CD kernel grid, optional reference comparison")
    _add_model(p)
    _add_common(p)
    p.add_argument("--grid", help="a grid as min:max:steps")
    p.add_argument("--bgrid", help="b grid (defaults to --grid)")
    p.add_argument("--reference", choices=("sine", "modified-sine", "canonical"))
    p.add_argument("--rho", type=float)
    p.add_argument("--w", type=float)
    p.add_argument("--re-f", dest="re_f", type=float)
    p.add_argument("--max-step", dest="max_step", type=float)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("diagnostics", help="convergence statistics of the coefficient sequence")
    _add_model(p)
    _add_common(p)
    p.add_argument("--bins", type=int)
    p.add_argument("--candidate", help="constant | coshsinh | JSON file")
    p.add_argument("--h11", type=float)
    p.add_argument("--h12", type=float)
    p.add_argument("--h22", type=float)
    p.set_defaults(func=cmd_diagnostics)

    p = sub.add_parser("zeros", help="scaled zeros near x0 by Sturm bisection")
    _add_model(p)
    _add_common(p)
    p.add_argument("--window", type=float)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    _add_model(p)
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--bins", type=int)
    p.add_argument("--grid")
    p.add_argument("--t-grid", dest="t_grid")
    p.add_argument("--n-list", dest="n_list")
    p.add_argument("--rho", type=float)
    p.add_argument("--w", type=float)
    p.add_argument("--re-f", dest="re_f", type=float)
    p.add_argument("--max-step", dest="max_step", type=float)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("canonical-solve", help="integrate a canonical system")
    _add_common(p)
    p.add_argument("--system", help="constant | coshsinh | JSON file")
    p.add_argument("--h11", type=float)
    p.add_argument("--h12", type=float)
    p.add_argument("--h22", type=float)
    p.add_argument("--v", type=float)
    p.add_argument("--z", help="spectral value re or re,im")
    p.add_argument("--t-grid", dest="t_grid")
    p.add_argument("--max-step", dest="max_step", type=float)
    p.set_defaults(func=cmd_canonical_solve)
    return ap


# Flags whose values may start with '-' (grids, complex numbers); joined into
# --flag=value form so argparse does not mistake the value for an option.
_VALUE_FLAGS = {"--grid", "--bgrid", "--t-grid", "--z"}


def _join_value_flags(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = ap.parse_args(_join_value_flags(list(argv)))
    try:
        opt = Options(args)
        return args.func(opt)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidCoefficient, IndexOutOfRange, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, errors.CoincidentArguments, errors.NotPSD,
            errors.WronskianViolation) as exc:
        # a numerical contract was violated mid-computation
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
