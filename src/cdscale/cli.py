"""Command-line interface: kernels, trajectories, diagnostics, verification suites.

Commands write their artifacts (CSV data, a JSON manifest) into --out and
use stable exit codes: 0 success, 1 a numerical check failed, 2 usage error.
Outputs are byte-identical across runs with identical inputs: fixed-step
numerics, no timestamps, shortest round-trip decimal formatting.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, canonical, cdkernel, decimals, jacobi, limits, models, transfer
from . import errors
from .errors import IndexOutOfRange, InvalidCoefficient
from .mat2 import inverse_unimodular, operator_norm

# name: (type, default, help). The type casts flags and config-file values
# alike; a tuple type lists the allowed values.
OPTIONS = {
    "out": (str, ".", "output directory (env CDSCALE_OUT overrides)"),
    "tol": (float, 0.02, "tolerance for pass/fail comparisons"),
    "config": (str, None, "key=value config file (flags take precedence)"),
    "model": (models.MODEL_NAMES, None, "coefficient model"),
    "v": (float, None, "coupling V of alternating-v and coshsinh"),
    "period_a": (str, None, "comma list for periodic a"),
    "period_b": (str, None, "comma list for periodic b"),
    "table": (str, None, "CSV path (header j,a,b) for the table model"),
    "n": (int, 1000, "truncation order n"),
    "x0": (float, 0.0, "spectral base point"),
    "grid": (str, "-5:5:51", "a grid as min:max:steps"),
    "bgrid": (str, None, "b grid (defaults to --grid)"),
    "t_grid": (str, "0:1:101", "t grid in [0, 1] as min:max:steps"),
    "reference": (("sine", "modified-sine", "canonical"), None, "limit kernel to compare with"),
    "rho": (float, None, "zero density at x0"),
    "w": (float, None, "density of the orthogonality measure at x0"),
    "re_f": (float, 0.0, "real part of the boundary Stieltjes transform at x0"),
    "max_step": (float, canonical.DEFAULT_MAX_STEP,
                 "RK4 step bound, 1e-6..1e-3; checked, but no built-in system takes RK4 steps"),
    "bins": (int, 50, "bins of the piecewise Hamiltonian estimate"),
    "candidate": (str, None, "constant | coshsinh | JSON file"),
    "system": (str, None, "constant | coshsinh | JSON file"),
    "h11": (float, None, "entry of a constant Hamiltonian"),
    "h12": (float, 0.0, "off-diagonal entry of a constant Hamiltonian"),
    "h22": (float, None, "entry of a constant Hamiltonian"),
    "z": (str, None, "spectral value re or re,im"),
    "window": (float, 40.0, "half-width of the window of scaled zeros"),
    "seed": (int, 0, "random seed"),
    "n_list": (str, "500,1000,2000,4000", "comma list of orders n"),
}

_MODEL = ("model", "v", "period_a", "period_b", "table", "n", "x0")
_COMMON = ("out", "tol", "config")
_REFERENCE = ("rho", "w", "re_f", "max_step")

# command: (help, the options it accepts)
COMMANDS = {
    "kernel": ("scaled CD kernel grid, optional reference comparison",
               _MODEL + _COMMON + ("grid", "bgrid", "reference") + _REFERENCE),
    "diagnostics": ("convergence statistics of the coefficient sequence",
                    _MODEL + _COMMON + ("bins", "candidate", "h11", "h12", "h22")),
    "zeros": ("scaled zeros near x0 by Sturm bisection", _MODEL + _COMMON + ("window",)),
    "verify": ("run a named verification suite",
               _MODEL + _COMMON + ("seed", "bins", "grid", "t_grid", "n_list") + _REFERENCE),
    "canonical-solve": ("integrate a canonical system",
                        _COMMON + ("system", "h11", "h12", "h22", "v", "z", "t_grid",
                                   "max_step")),
}

# Options whose value must be positive, and those that must not be negative.
POSITIVE = {"n", "window", "bins"}
NON_NEGATIVE = {"seed"}


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


def _from_config(name, raw):
    kind = OPTIONS[name][0]
    if isinstance(kind, tuple):
        if raw in kind:
            return raw
    else:
        try:
            return kind(raw)
        except ValueError:
            pass
    raise UsageError(f"bad config value {name}={raw!r}")


class Options:
    """Resolved option values: flags beat the config file, which beats OPTIONS.

    Every value given by flag or config file is checked here, before any
    command starts work: numbers must be finite, POSITIVE ones above zero
    and NON_NEGATIVE ones at or above zero.
    """

    def __init__(self, args):
        flags = vars(args)
        cfg = _load_config(args.config) if args.config else {}
        self.suite = flags.get("suite")
        self.values = {}
        for name in OPTIONS:
            v = flags.get(name)
            if v is None and name in cfg:
                v = _from_config(name, cfg[name])
            flag = "--" + name.replace("_", "-")
            if isinstance(v, float) and not math.isfinite(v):
                raise UsageError(f"{flag} must be finite, got {v!r}")
            if name in POSITIVE and v is not None and not v > 0:
                raise UsageError(f"{flag} must be positive, got {v!r}")
            if name in NON_NEGATIVE and v is not None and v < 0:
                raise UsageError(f"{flag} must not be negative, got {v!r}")
            self.values[name] = v
        max_step = self.get("max_step")
        if not canonical.MIN_MAX_STEP <= max_step <= canonical.DEFAULT_MAX_STEP:
            raise UsageError(f"--max-step {max_step!r} is outside "
                             f"[{canonical.MIN_MAX_STEP:g}, {canonical.DEFAULT_MAX_STEP:g}]")

    def get(self, name, default=None):
        """The resolved value; ``default``, if given, replaces the one in OPTIONS."""
        v = self.values[name]
        if v is None:
            v = OPTIONS[name][1] if default is None else default
        return v

    def require(self, name):
        v = self.get(name)
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


def _pair_grid(opt: Options, suite: str) -> np.ndarray:
    """--grid of a verify suite whose checks compare distinct grid points."""
    vals = _parse_grid(opt.get("grid"))
    if len(vals) < 2:
        raise UsageError(f"verify {suite} needs at least two grid points, "
                         f"got --grid {opt.get('grid')!r}")
    return vals


def _parse_t_grid(spec: str) -> np.ndarray:
    ts = _parse_grid(spec)
    if ts[0] < 0.0 or ts[-1] > 1.0:
        raise UsageError(f"t grid {spec!r} must lie in [0, 1]")
    return ts


def _parse_complex(spec: str) -> complex:
    try:
        re, im = spec.split(",") if "," in spec else (spec, 0.0)
        z = complex(float(re), float(im))
    except ValueError:
        raise UsageError(f"bad complex value {spec!r}; expected re or re,im") from None
    if not cmath.isfinite(z):
        raise UsageError(f"complex value {spec!r} is not finite")
    return z


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
            v=opt.require("v") if name == "alternating-v" else None,
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


def _bulk_data(opt: Options, rho, w) -> limits.BulkPointData:
    """Bulk data at --x0 from rho, w and --re-f; the free model's if rho or w is None."""
    x0 = opt.get("x0")
    try:
        if rho is None or w is None:
            return models.free_bulk_data(x0)
        return limits.BulkPointData(x0, w, rho, opt.get("re_f"))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _system_from(opt: Options, spec: str) -> canonical.CanonicalSystem:
    """A canonical system from 'constant' (--h11/--h12/--h22), 'coshsinh' (--v) or a JSON file."""
    try:
        if spec == "constant":
            h12 = opt.get("h12")
            return canonical.ConstantHamiltonian(
                np.array([[opt.require("h11"), h12], [h12, opt.require("h22")]]))
        if spec == "coshsinh":
            return canonical.CoshSinhHamiltonian(opt.require("v"))
        with open(spec) as fh:
            return canonical.system_from_dict(json.load(fh))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _reference(opt: Options, model):
    """--reference and a function of the a, b grids giving its values; refusals come first."""
    ref = opt.get("reference")
    if ref is None:
        return None, None
    if ref == "modified-sine":
        if not isinstance(model, jacobi.AlternatingSignModel):
            raise UsageError("--reference modified-sine requires --model alternating-v")
        return ref, lambda a, b: models.modified_sine_kernel(model.v, a[:, None], b[None, :])
    # OPTIONS admits two more values: "sine" and "canonical"
    max_step = opt.get("max_step")
    if ref == "canonical" and isinstance(model, jacobi.AlternatingSignModel):
        return ref, lambda a, b: canonical.kernel_grid(canonical.CoshSinhHamiltonian(model.v),
                                                       a, b, max_step=max_step)
    bpd = _bulk_data(opt, opt.require("rho"), opt.require("w"))
    if ref == "sine":
        return ref, lambda a, b: cdkernel.sine_kernel(a[:, None], b[None, :], bpd.rho, bpd.w)
    return ref, lambda a, b: canonical.kernel_grid(canonical.ConstantHamiltonian(bpd.hamiltonian()),
                                                   a, b, max_step=max_step)


def cmd_kernel(opt: Options) -> int:
    model = _model_from(opt)
    n = opt.require("n")
    x0 = opt.get("x0")
    a_vals = _parse_grid(opt.get("grid"))
    b_vals = _parse_grid(opt.get("bgrid")) if opt.get("bgrid") else a_vals
    tol = opt.get("tol")
    ref_name, reference = _reference(opt, model)
    grid = cdkernel.scaled_grid(model, n, x0, a_vals, b_vals)
    # formed after the grid, so that the two grids are not held at once while it runs
    ref_vals = reference(a_vals, b_vals) if reference is not None else None
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
    n = opt.require("n")
    x0 = opt.get("x0")
    bins = opt.get("bins")
    with np.errstate(over="ignore", invalid="ignore"):  # off the bulk; named below
        seq = transfer.h_sequence(model, x0, n, n)
        cand_name = opt.get("candidate")
        candidate = _system_from(opt, cand_name) if cand_name else None
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
    n = opt.require("n")
    x0 = opt.get("x0")
    window = opt.get("window")
    sl = jacobi.scaled_zeros(model, n, x0, window)
    out = _out_dir(opt)
    with open(os.path.join(out, "zeros.csv"), "wb") as fh:
        fh.write(b"scaled_zero\n")
        decimals.write_lines(fh, sl.scaled_zeros, decimals.text(["\n"]))
    gaps = sl.nearest_neighbor_gaps()
    mean_gap = float(np.mean(gaps)) if gaps.size else None
    print(f"zeros={len(sl.scaled_zeros)} mean_gap={mean_gap!r}")
    _write_manifest(out, {"command": "zeros", "model": model.describe(),
                          "n": n, "x0": x0, "window": window,
                          "count": int(len(sl.scaled_zeros)),
                          "mean_gap": mean_gap, "outputs": ["zeros.csv"]})
    return 0


class CheckList:
    """A suite's checks, printed once all are formed; a non-finite one is a numerical failure."""

    def __init__(self):
        self.checks = []

    def add(self, name: str, measured: float, bound: float, ok=None):
        if not math.isfinite(measured):
            raise ArithmeticError(f"check {name} measured {float(measured)!r}")
        if ok is None:
            ok = bool(measured <= bound)
        self.checks.append({"name": name, "measured": float(measured),
                            "bound": float(bound), "pass": bool(ok)})

    def report(self) -> None:
        for c in self.checks:
            print(f"[{'PASS' if c['pass'] else 'FAIL'}] {c['name']}: "
                  f"measured={c['measured']:.6g} bound={c['bound']:g}")

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.checks)


def _suite_transfer(opt: Options, checks: CheckList):
    model = _model_from(opt)
    n = opt.require("n")
    x0 = opt.get("x0")
    x = x0 + 0.7 / n + 0.3j / n
    tgrid = np.linspace(0.0, 1.0, 11)
    offsets = (2.0 + 0.0j, -3.0 + 1.0j)
    # every product is formed before the first check, so an overflow is named, not failed
    with np.errstate(over="ignore", invalid="ignore"):
        P, Q = jacobi.poly_table(model, np.array([complex(x)]), n, n)
        a_arr, _ = model.coeff_arrays(n, n)
        T = transfer.transfer_matrices(model, [x], range(1, n + 1), n)[:, 0]
        seq = transfer.h_sequence(model, x0, n, n)
        recursive = transfer.q_snapshots(seq, n, offsets, tgrid)
        direct = transfer.q_trajectory_direct(model, n, x0, offsets, tgrid)
        det = T[:, 0, 0] * T[:, 1, 1] - T[:, 0, 1] * T[:, 1, 0]
    finite = np.isfinite(det)
    if not finite.all():
        raise ArithmeticError(f"transfer products at step {int(np.argmin(finite)) + 1} overflow "
                              f"(x = {x}, n = {n})")
    finite = np.isfinite(recursive).all(axis=(1, 2, 3))
    if not finite.all():
        t = float(tgrid[np.argmin(finite)])
        raise ArithmeticError(f"recursive trajectory at t = {t:.6g} (step {math.floor(t * n)}) "
                              f"overflows (x0 = {x0}, n = {n})")

    checks.add("det_transfer", float(np.max(np.abs(det - 1.0))), 1e-8)
    ref = np.empty_like(T)
    ref[:, 0, 0], ref[:, 0, 1] = P[1:, 0], -Q[1:, 0]
    ref[:, 1, 0], ref[:, 1, 1] = a_arr * P[:-1, 0], -a_arr * Q[:-1, 0]
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=(1, 2)))
    checks.add("column_form", float(np.max(np.max(np.abs(T - ref), axis=(1, 2)) / scale)), 1e-9)
    worst = float(np.max(operator_norm(direct - recursive)))
    checks.add("q_direct_vs_recursive", worst, 1e-8)

    xs = x0 + 0.3
    ells = range(1, min(n, 200) + 1)
    s0 = np.array([transfer.one_step(model, ell, x0, n) for ell in ells])
    sx = np.array([transfer.one_step(model, ell, xs, n) for ell in ells])
    got = inverse_unimodular(s0) @ sx
    ref = np.array([[1.0, 0.0], [x0 - xs, 1.0]])
    checks.add("one_step_conjugation", float(np.max(np.abs(got - ref))), 1e-12)


def _suite_kernel(opt: Options, checks: CheckList):
    model = _model_from(opt)
    n = opt.require("n")
    x0 = opt.get("x0")
    rng = np.random.default_rng(opt.get("seed"))
    a, b = np.array([rng.uniform(-5, 5, 2) + 1j * rng.uniform(-1, 1, 2)
                     for _ in range(20)]).T
    with np.errstate(over="ignore", invalid="ignore"):  # off the bulk; named below
        ks = cdkernel.kernel_sum(model, n, x0 + a / n, x0 + b / n)
        kc = cdkernel.kernel_cd(model, n, x0 + a / n, x0 + b / n)
    q = transfer.q_trajectory_direct(model, n, x0, np.concatenate([a, b]), [1.0])[0]
    kd = cdkernel.kernel_det_q(q[:len(a)], q[len(a):], a, b)
    checks.add("sum_vs_cd", float(np.max(np.abs(ks - kc) / np.maximum(1.0, np.abs(ks)))), 1e-8)
    checks.add("sum_vs_det",
               float(np.max(np.abs(ks / n - kd) / np.maximum(1.0, np.abs(ks / n)))), 1e-8)

    nk = min(n, 40)
    # the Gauss rule of the measure of coefficient family nk, the family the kernel uses
    nodes, weights = jacobi.gauss_quadrature(model, 4 * nk, nk)
    xy = x0 + rng.uniform(-0.5, 0.5, (3, 2))
    at_nodes = cdkernel.kernel_sum(model, nk, xy.reshape(-1, 1), nodes).reshape(3, 2, -1)
    worst_rep = 0.0
    for (x, y), (kxz, kyz) in zip(xy.tolist(), at_nodes):
        integral = float(np.dot(weights, kxz * kyz))
        direct = float(cdkernel.kernel_sum(model, nk, x, y))
        worst_rep = max(worst_rep, abs(integral - direct) / max(1.0, abs(direct)))
    checks.add("reproducing_property", worst_rep, 1e-8)


def _suite_section5(opt: Options, checks: CheckList):
    v = opt.get("v", 1.0)
    n = opt.require("n")
    tol = opt.get("tol")
    grid_vals = _pair_grid(opt, "section5")
    alt = models.alternating_model(v)  # rejects a bad coupling before the first check
    try:  # coefficient_deviation forms the limit coefficient exp(V t)/2 for t up to 1
        math.exp(v)
    except OverflowError:
        raise UsageError(f"verify section5 needs a finite exp(V), got --v {v!r}") from None
    lam_p, lam_m = models.lambda_pm(v, n)
    checks.add("lambda_product", abs(lam_p * lam_m - 1.0), 1e-14)

    ells = np.arange(0, min(n, 500) + 1)
    t0 = transfer.transfer_matrices(models.free_model(), [0.0], ells)[:, 0]
    tn = transfer.transfer_matrices(alt, [0.0], ells, n)[:, 0]
    prod = inverse_unimodular(t0) @ tn
    worst = float(np.max(operator_norm(prod - models.qhat_closed(v, n, ells))))
    checks.add("qhat_closed_vs_product", worst, 1e-9)

    dev = models.alternating_coefficient_deviation(v, n)
    checks.add("coefficient_deviation", dev, max(5e-3, 2.0 / n))

    bins = opt.get("bins")
    seq = transfer.h_sequence(alt, 0.0, n, n)
    est = limits.piecewise_estimate(seq, n, bins)
    sysv = canonical.CoshSinhHamiltonian(v)
    centers = (np.arange(bins) + 0.5) / bins
    hw = float(np.max(np.abs(est.H(centers) - sysv.H(centers))))
    checks.add("piecewise_vs_coshsinh", hw, tol)

    grid = cdkernel.scaled_grid(alt, n, 0.0, grid_vals, grid_vals)
    canon = canonical.kernel_grid(sysv, grid_vals, grid_vals,
                                  max_step=opt.get("max_step"))
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

    # at V = 0 the limit is the sine kernel of rho = 1/(2 pi), w = 1/pi: sin((a-b)/2)/(a-b)
    a_col, b_row = grid_vals[:, None], grid_vals[None, :]
    sine = cdkernel.sine_kernel(a_col, b_row, 1.0 / (2.0 * math.pi), 1.0 / math.pi)
    v0 = models.modified_sine_kernel(0.0, a_col, b_row)
    checks.add("v0_reduction", float(np.max(np.abs(v0 - sine))), 1e-12)


def _suite_appendix(opt: Options, checks: CheckList):
    # table length has its own default: the identity residuals scale with the
    # polynomial growth of the random draws, so very long tables exceed the
    # absolute tolerances for conditioning reasons alone
    n = opt.get("n", 50)
    seed = opt.get("seed")
    worst_wr = 0.0
    worst_b = 0.0
    worst_p = 0.0
    for k in range(20):
        rng = np.random.default_rng(seed + k)
        a = rng.uniform(0.8, 1.25, n)
        b = rng.uniform(-0.3, 0.3, n)
        x = rng.uniform(-0.5, 0.5)
        # point by point, so each column has the bits of its own run
        P, Q = jacobi.poly_table(jacobi.TableModel(a, b), np.array([0.0, x]), n)
        h_seq = transfer.DiscreteHSequence(0.0, P[:, 0], Q[:, 0])
        worst_wr = max(worst_wr, h_seq.wronskian_residual(a))
        rec = transfer.discrete_to_jacobi(h_seq, a)
        worst_b = max(worst_b, float(np.max(np.abs(rec.b_list - b))))
        ps = transfer.polys_from_h(h_seq, x)[:, 0]
        worst_p = max(worst_p, float(np.max(np.abs(ps - P[:, 1]))))
    checks.add("wronskian_identity", worst_wr, 1e-10)
    checks.add("b_recovery", worst_b, 1e-9)
    checks.add("poly_reconstruction", worst_p, 1e-9)


def _suite_thm25(opt: Options, checks: CheckList):
    model = _model_from(opt) if opt.get("model") else models.free_model()
    x0 = opt.get("x0")
    tol = opt.get("tol")
    try:
        n_list = [int(s) for s in opt.get("n_list").split(",")]
    except ValueError:
        raise UsageError(f"bad --n-list {opt.get('n_list')!r}") from None
    if min(n_list) < 1:
        raise UsageError("--n-list entries must be positive")
    grid_vals = _pair_grid(opt, "thm25")
    bpd = _bulk_data(opt, opt.get("rho"), opt.get("w"))
    kernel_stat, flow_stat = limits.check_equivalence(model, n_list, x0, bpd, grid_vals,
                                                      _parse_t_grid(opt.get("t_grid")))
    for name, stat in (("kernel_stat", kernel_stat), ("flow_stat", flow_stat)):
        checks.add(f"{name}_final", stat[-1], tol)
        checks.add(f"{name}_decreasing", 0.0, 1.0,
                   ok=all(b < a for a, b in zip(stat, stat[1:])))
        checks.checks[-1][name] = stat


SUITES = {
    "transfer-identities": _suite_transfer,
    "kernel-identities": _suite_kernel,
    "section5": _suite_section5,
    "appendix-roundtrip": _suite_appendix,
    "thm25": _suite_thm25,
}


def cmd_verify(opt: Options) -> int:
    suite = opt.suite
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}")
    checks = CheckList()
    SUITES[suite](opt, checks)
    checks.report()
    out = _out_dir(opt)
    _write_manifest(out, {"command": "verify", "suite": suite,
                          "checks": checks.checks,
                          "pass": checks.all_pass})
    print(f"{'all checks passed' if checks.all_pass else 'CHECKS FAILED'} ({suite})")
    return 0 if checks.all_pass else 1


def cmd_canonical_solve(opt: Options) -> int:
    system = _system_from(opt, opt.require("system"))
    z = _parse_complex(opt.require("z"))
    t_grid = _parse_t_grid(opt.get("t_grid"))
    qs = canonical.solve_ode_batch(system, [z], t_grid, max_step=opt.get("max_step"))[:, 0]
    out = _out_dir(opt)
    with open(os.path.join(out, "solution.csv"), "wb") as fh:
        fh.write(b"t,q11_re,q11_im,q12_re,q12_im,q21_re,q21_im,q22_re,q22_im\n")
        # each row is t, then the real and imaginary parts of q11, q12, q21, q22
        rows = np.column_stack([t_grid, qs.astype(complex).reshape(-1, 4).view(float)])
        comma, newline = decimals.text([","]), decimals.text(["\n"])
        cells = [cell for column in rows.T for cell in (column, comma)]
        decimals.write_lines(fh, *cells[:-1], newline)
    _write_manifest(out, {"command": "canonical-solve", "system": system.to_dict(),
                          "z": [z.real, z.imag], "t_grid": opt.get("t_grid"),
                          "max_step": opt.get("max_step"),
                          "outputs": ["solution.csv"]})
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when one is named.

    Either parses that command's argv to the same namespace; building one
    command's options costs a fraction of building them all.
    """
    ap = argparse.ArgumentParser(prog="cdscale", description=__doc__)
    ap.add_argument("--version", action="version", version=f"cdscale {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (summary, names) in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=summary)
        if name == "verify":
            p.add_argument("suite", help=" | ".join(SUITES))
        for option in names:
            kind, _, text = OPTIONS[option]
            choices = kind if isinstance(kind, tuple) else None
            p.add_argument("--" + option.replace("_", "-"), dest=option, help=text,
                           type=None if choices else kind, choices=choices)
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


@functools.cache
def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 4 MiB and its trim threshold at 1 MiB.

    Its dynamic ones put multi-MB arrays on the heap once one is freed. A small
    block left above a freed array then makes the next one grow the heap, and
    peak memory differed by 5.6 MB between runs of the same commands. A lower
    trim threshold would return and fault back the scan's temporaries each step.
    """
    import ctypes
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt is not None:
        mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _fix_malloc_thresholds()
    argv = _join_value_flags(sys.argv[1:] if argv is None else list(argv))
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        opt = Options(args)
        # looked up when called, so a wrapper bound to a cmd_* name later is the one run
        return globals()["cmd_" + args.command.replace("-", "_")](opt)
    except (UsageError, InvalidCoefficient, IndexOutOfRange, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, errors.CoincidentArguments, errors.NotPSD,
            errors.WronskianViolation) as exc:
        # a numerical contract was violated mid-computation
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
