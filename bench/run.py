#!/usr/bin/env python3
"""cdscale benchmark: drives the cdscale CLI in-process over one workload.

    python3 bench/run.py --workload readme --seed 1 --seconds 36 --trace 0

One client in a closed loop: each command starts only after the previous one
has returned and been checked. A pass is one run of the workload's command
list; passes repeat until ``--seconds`` would be exceeded. With ``--trace 0``
nothing is wrapped and the end-to-end metrics are reported; with
``--trace 1`` one untraced pass is followed by traced passes, and the
per-layer metrics are reported. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/README.md for the workloads, metrics and how to compare commits.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import tracer
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
# A fresh interpreter reports the monotonic clock once cdscale, numpy and
# scipy are imported and the CLI parser is built (CLOCK_MONOTONIC is shared
# by all processes, so the parent can subtract its own spawn time).
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import cdscale.cli; "
              "cdscale.cli.build_parser(); print(time.clock_gettime(time.CLOCK_MONOTONIC))")

# The speed of a shared machine drifts by tens of percent within minutes,
# for every process alike. A fixed pure-Python loop, timed before and after
# each pass, measures that drift, and every end-to-end time is scaled to the
# speed at which the loop takes CALIBRATION_REF_S (its median on a 2-core
# Intel Xeon with Python 3.11.7). Unscaled times are printed too.
CALIBRATION_STEPS = 300_000
CALIBRATION_REF_S = 0.185

# End-to-end metrics in the JSON line: name -> unit. Per-command times other
# than kernel_s and verify_s are printed only, since not every workload runs
# those commands and a JSON metric must exist, nonzero, on every workload.
END_TO_END = {"pass_s": "s", "kernel_s": "s", "verify_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}
COMMAND_METRICS = {"kernel": "kernel_s", "zeros": "zeros_s", "diagnostics": "diagnostics_s",
                   "canonical-solve": "canonical_solve_s", "verify": "verify_s"}

# Per-layer metrics in the JSON line of a traced run.
LAYER_TIMES = ["jacobi.self_s", "transfer.self_s", "cdkernel.self_s", "canonical.self_s",
               "models.self_s", "cli.self_s", "jacobi.poly_table.self_s",
               "transfer.q_trajectory_direct.self_s", "cdkernel.scaled_grid.self_s",
               "cdkernel.to_csv.self_s"]
LAYER_CALLS = ["jacobi.sturm_count", "transfer.transfer_product", "models.qhat_closed",
               "transfer.one_step", "mat2.multiply", "mat2.inverse_unimodular",
               "transfer.q_trajectory_direct", "mat2.operator_norm", "transfer.q_snapshots",
               "jacobi.poly_table", "transfer.h_sequence", "canonical.solve_ode_batch",
               "canonical.kernel_grid", "canonical.constant_solution_batch",
               "cdkernel.scaled_grid", "jacobi.eval_poly_sequence", "cdkernel.kernel_sum",
               "cdkernel.kernel_cd", "limits.diagnostics", "limits.piecewise_estimate",
               "limits.flow_deviation", "models.alternating_coefficient_deviation"]
LAYER_WORK = ["jacobi.sturm_count.shift_steps", "jacobi.scaled_zeros.eigs_found",
              "transfer.transfer_product.steps", "transfer.q_trajectory_direct.steps",
              "transfer.q_snapshots.point_steps", "jacobi.poly_table.point_steps",
              "canonical.solve_ode_batch.z_steps", "cdkernel.to_csv.rows"]


def per_layer_units() -> dict:
    """Every per-layer metric of a traced run, with its unit."""
    units = {name: "s" for name in LAYER_TIMES}
    units.update({f"{name}.calls": "count" for name in LAYER_CALLS})
    units.update({name: "count" for name in LAYER_WORK})
    units["canonical.kernel_grid.solves_per_call"] = "solves/call"
    units["cli.bytes_written"] = "B"
    units["cli.conditioning_warnings"] = "count"
    units.update({f"{layer}.errors": "count" for layer in tracer.LAYERS})
    units["trace.overhead_frac"] = "frac"
    return units


@dataclass
class Invocation:
    """One command run: its wall time and the gate's verdict."""

    cmd: object
    seconds: float
    problems: list
    silent: bool


def pin_blas() -> int:
    threads = min(1, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    os.environ.pop("CDSCALE_OUT", None)
    return threads


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads}


def calibrate() -> float:
    """Seconds one fixed loop of complex scalar arithmetic takes right now."""
    a, b, c, d = 1.0 + 0.5j, 0.25 - 0.1j, -0.3 + 0.2j, 0.9 + 0.0j
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        a, b, c, d = (a * 0.999 + b * c, b * 0.999 + a * d * 1e-3,
                      c * 0.999 - d * 1e-3, d * 0.999 + a * 1e-3)
    return time.perf_counter() - t0


def speed(before: float, after: float) -> float:
    """Factor that scales a time measured between two calibrations to reference speed."""
    return 2.0 * CALIBRATION_REF_S / (before + after)


def measure_setup(samples: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it could send a command.

    One unmeasured spawn first lets bytecode caches be written.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, SRC]
    times = []
    for i in range(samples + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"setup interpreter failed:\n{done.stderr}")
        if i:
            times.append(float(done.stdout.split()[-1]) - t0)
    return times


def invoke(cli, cmd, out_dir: str, count_warnings: bool):
    """Run one command through ``cli.main``; (exit code, seconds, log, warnings)."""
    out, err = io.StringIO(), io.StringIO()
    argv = list(cmd.argv) + ["--out", out_dir]
    with warnings.catch_warnings(record=count_warnings) as caught:
        if count_warnings:
            warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 -- the loop must go on; the failure is counted
            rc = 1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
    n_warn = sum(1 for w in caught or () if w.category.__name__ == "ConditioningWarning")
    return rc, seconds, out.getvalue() + err.getvalue(), n_warn


def run_pass(cli, gate, cmds, work_dir, references, tr=None, pass_no=0):
    results = []
    for idx, cmd in enumerate(cmds):
        out = os.path.join(work_dir, str(idx))
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        if tr is not None:
            tr.trace_id = f"{pass_no}:{cmd.key}"
        rc, seconds, _, n_warn = invoke(cli, cmd, out, tr is not None)
        problems, silent = gate.check(cmd, rc, out, references)
        if tr is not None:
            tr.work["cli.bytes_written"] += sum(
                os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
            tr.work["cli.conditioning_warnings"] += n_warn
        results.append(Invocation(cmd, seconds, problems, silent))
    return results


def loop(deadline, body) -> list[float]:
    """Call ``body`` at least once and until the next call would likely pass the
    deadline; return the speed factor of each call."""
    walls, cals = [], [calibrate()]
    while True:
        t0 = time.perf_counter()
        body(len(walls))
        walls.append(time.perf_counter() - t0)
        cals.append(calibrate())
        if time.perf_counter() + statistics.median(walls) > deadline:
            return [speed(c0, c1) for c0, c1 in zip(cals, cals[1:])]


def pass_seconds(passes, kind=None, speeds=None) -> list[float]:
    """Per-pass time of all commands or of one kind, scaled by ``speeds`` if given."""
    speeds = speeds or [1.0] * len(passes)
    return [f * sum(r.seconds for r in p if kind is None or r.cmd.kind == kind)
            for p, f in zip(passes, speeds)]


def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


def tail(xs):
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    if len(xs) < 11:
        return None
    ordered = sorted(xs)
    return ordered[-11], 100.0 * (len(xs) - 10) / len(xs)


def end_to_end(passes, speeds, setup, setup_speed) -> tuple[dict, list[str]]:
    scaled = pass_seconds(passes, speeds=speeds)
    metrics = {"pass_s": statistics.median(scaled)}
    kinds = {r.cmd.kind for p in passes for r in p}
    for kind, name in COMMAND_METRICS.items():
        if kind in kinds:
            metrics[name] = statistics.median(pass_seconds(passes, kind, speeds))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["setup_s"] = statistics.median(setup) * setup_speed
    q = quartiles(scaled)
    lines = [f"speed factors (reference / current) {' '.join(f'{f:.3f}' for f in speeds)}; "
             f"setup {setup_speed:.3f}",
             f"unscaled pass_s {statistics.median(pass_seconds(passes)):.4f} s, "
             f"setup_s {statistics.median(setup):.4f} s",
             f"pass_s quartiles {q[0]:.4f} {q[1]:.4f} {q[2]:.4f} s over {len(passes)} passes: "
             + " ".join(f"{t:.3f}" for t in scaled)]
    t = tail(scaled)
    lines.append(f"pass_tail_s {t[0]:.4f} s at p{t[1]:.1f} over {len(passes)} passes" if t else
                 f"pass_tail_s not reported: {len(passes)} passes, and a percentile with "
                 "ten passes beyond it needs at least 11")
    return metrics, lines


def per_layer(summaries, untraced, untraced_speeds, traced, traced_speeds) -> dict:
    first = summaries[0]
    values = {}
    for name in LAYER_TIMES:
        key = "layer_self_s" if name.count(".") == 1 else "self_s"
        span = name[: -len(".self_s")]
        values[name] = statistics.median(s[key].get(span, 0.0) for s in summaries)
    for name in LAYER_CALLS:
        values[f"{name}.calls"] = first["calls"].get(name, 0)
    for name in LAYER_WORK + ["cli.bytes_written", "cli.conditioning_warnings"]:
        values[name] = first["work"].get(name, 0)
    values["canonical.kernel_grid.solves_per_call"] = first["solves_per_kernel_grid"]
    for layer, n in first["errors"].items():
        values[f"{layer}.errors"] = n
    values["trace.overhead_frac"] = (
        statistics.median(pass_seconds(traced, speeds=traced_speeds))
        / statistics.median(pass_seconds(untraced, speeds=untraced_speeds)) - 1.0)
    return values


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cmds = workloads.commands(args.workload, args.seed)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "cdscale", "cli.py")):
        print(f"error: no cdscale source under {SRC}", file=sys.stderr)
        return 2
    blas_threads = pin_blas()
    before = calibrate()
    setup = measure_setup(SETUP_SAMPLES)
    setup_speed = speed(before, calibrate())

    sys.path.insert(0, SRC)
    import cdscale.cli as cli
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: imported cdscale from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import gate  # imports numpy, so only after BLAS is pinned

    env = environment(blas_threads)
    print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} loop=closed clients=1")
    for cmd in cmds:
        print(f"command {cmd.key}: cdscale {cmd.line()}")
    references = gate.load_references()
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    deadline = time.perf_counter() + args.seconds
    untraced, traced, summaries, spans = [], [], [], []

    def untraced_pass(i):
        untraced.append(run_pass(cli, gate, cmds, work_dir, references))

    try:
        if args.trace:
            untraced_speeds = loop(time.perf_counter(), untraced_pass)  # one pass
            tr = tracer.Tracer()

            def traced_pass(i):
                tr.reset()
                with tr:
                    traced.append(run_pass(cli, gate, cmds, work_dir, references, tr, i))
                summaries.append(tr.summary())
                spans.append(list(tr.spans))
            traced_speeds = loop(deadline, traced_pass)
        else:
            untraced_speeds = loop(deadline, untraced_pass)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    runs = [r for p in untraced + traced for r in p]
    failed = [r for r in runs if r.problems]
    for key in sorted({r.cmd.key for r in failed}):
        first = next(r for r in failed if r.cmd.key == key)
        count = sum(1 for r in failed if r.cmd.key == key)
        print(f"FAILED {key} ({count}x): {'; '.join(first.problems)}")
    print(f"failed_frac {len(failed) / len(runs):.6g} ({len(failed)}/{len(runs)} invocations)")

    if args.trace:
        units = per_layer_units()
        values = per_layer(summaries, untraced, untraced_speeds, traced, traced_speeds)
        for name, t in sorted(summaries[0]["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"span {name}: calls={summaries[0]['calls'].get(name, 0)} self_s={t:.6f}")
        dump = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(dump, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "trace"],
                       "passes": spans}, fh)
        print(f"spans written to {os.path.relpath(dump, ROOT)} "
              f"({sum(map(len, spans))} spans in {len(spans)} traced passes)")
    else:
        units = END_TO_END
        values, lines = end_to_end(untraced, untraced_speeds, setup, setup_speed)
        for line in lines:
            print(line)
        for name in COMMAND_METRICS.values():
            if name in values and name not in units:
                print(f"{name} {values[name]:.6f} s")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not any(r.silent for r in runs), "attempted": len(runs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
