"""Span tracer that wraps the cdscale modules from outside.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper, in every module that holds a reference to it (names rebound by
``from .x import y`` included), and ``uninstall`` puts the originals back.
Most functions become spans; the per-step scalar functions in
``COUNTER_ONLY`` only count calls, because a span per call would cost more
than the call itself. Spans stay in memory until the caller writes them out.

The program has one thread and no queues, so nothing waits: a span's self
time is all busy time, and there is no per-layer wait time to report.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "cdscale"
LAYERS = ("mat2", "jacobi", "transfer", "cdkernel", "canonical", "limits", "models", "cli")
COUNTER_ONLY = frozenset({"transfer.one_step", "mat2.multiply",
                          "mat2.operator_norm", "mat2.inverse_unimodular"})

# Span record fields: [span_id, name, start, end, parent_id, trace_id].
ID, NAME, START, END, PARENT, TRACE = range(6)


def _max_ell(n, t_grid) -> int:
    return max((int(math.floor(float(t) * n)) for t in t_grid), default=0)


def rk4_steps(system, t_grid, max_step) -> int:
    """RK4 steps of one ``solve_ode_batch`` call: uniform steps per path segment."""
    ts = [float(t) for t in t_grid]
    if not ts:
        return 0
    path = sorted({0.0, *ts, *[b for b in system.breakpoints() if b < ts[-1]]})
    return sum(max(1, math.ceil((hi - lo) / max_step - 1e-12))
               for lo, hi in zip(path[:-1], path[1:]))


def _size(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 1


# Work counts computed from call arguments (and results): name -> (key, fn).
WORK = {
    "jacobi.sturm_count": ("shift_steps",
                           lambda a, r: len(a["diag"]) * _size(a["shifts"])),
    "jacobi.scaled_zeros": ("eigs_found", lambda a, r: len(r.scaled_zeros)),
    "jacobi.poly_table": ("point_steps", lambda a, r: a["up_to"] * _size(a["xs"])),
    "transfer.transfer_product": ("steps", lambda a, r: a["ell"]),
    "transfer.q_trajectory_direct": ("steps", lambda a, r: _max_ell(a["n"], a["t_grid"])),
    "transfer.q_snapshots": ("point_steps", lambda a, r: _max_ell(a["n"], a["t_values"])
                             * _size(a["a_values"])),
    "canonical.solve_ode_batch": ("z_steps", lambda a, r: _size(a["zs"]) * rk4_steps(
        a["system"], a["t_grid"], a["max_step"])),
    "cdkernel.to_csv": ("rows", lambda a, r: _size(a["self"].a_values)
                        * _size(a["self"].b_values)),
}


def self_times(spans) -> dict:
    """Self time of each span: its duration minus the part its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        covered, reach = 0.0, lo
        for c_lo, c_hi in sorted(children.get(s[ID], ())):
            c_lo, c_hi = max(c_lo, reach), min(c_hi, hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        out[s[ID]] = (hi - lo) - covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans, call counts, work counts and error counts of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.errors: Counter = Counter()
        self.trace_id = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._last_error = None

    def reset(self):
        for store in (self.spans, self.calls, self.work, self.errors, self._stack):
            store.clear()
        self._last_error = None

    # -- wrapping -----------------------------------------------------------

    @staticmethod
    def targets():
        """(name, owner, attribute, function) of every function to wrap."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    out.append((f"{layer}.{attr}", mod, attr, fn))
        grid_cls = importlib.import_module(f"{PACKAGE}.cdkernel").KernelGrid
        out.append(("cdkernel.to_csv", grid_cls, "to_csv", vars(grid_cls)["to_csv"]))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self.targets()
        modules = _loaded_modules()
        for name, owner, attr, fn in targets:
            wrapper = (self._counter(name, fn) if name in COUNTER_ONLY
                       else self._span(name, fn))
            self._patch(owner, attr, fn, wrapper)
            if owner in modules:
                for mod in modules:
                    for other, val in list(vars(mod).items()):
                        if val is fn and not (mod is owner and other == attr):
                            self._patch(mod, other, fn, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _count_error(self, name, exc):
        # count an exception once, in the layer where it was raised
        if exc is not self._last_error:
            self._last_error = exc
            self.errors[layer_of(name)] += 1

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._count_error(name, exc)
                raise
        return wrapper

    def _span(self, name, fn):
        tracer = self
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            rec = [len(tracer.spans), name, 0.0, 0.0,
                   stack[-1] if stack else None, tracer.trace_id]
            tracer.spans.append(rec)
            tracer.calls[name] += 1
            stack.append(rec[ID])
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._count_error(name, exc)
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key, count = work
                tracer.work[f"{name}.{key}"] += int(count(bound.arguments, result))
            return result
        return wrapper

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls and self time, per-layer self time, work and error counts."""
        own = self_times(self.spans)
        by_name = defaultdict(float)
        for s in self.spans:
            by_name[s[NAME]] += own[s[ID]]
        by_layer = defaultdict(float)
        for name, t in by_name.items():
            by_layer[layer_of(name)] += t
        return {
            "calls": dict(self.calls),
            "self_s": dict(by_name),
            "layer_self_s": dict(by_layer),
            "work": dict(self.work),
            "errors": {layer: self.errors.get(layer, 0) for layer in LAYERS},
            "solves_per_kernel_grid": self._solves_per_kernel_grid(),
        }

    def _solves_per_kernel_grid(self) -> float:
        """Mean number of ``solve_ode_batch`` spans under one ``kernel_grid`` span."""
        spans = self.spans  # a span's id is its index here
        grids = sum(1 for s in spans if s[NAME] == "canonical.kernel_grid")
        solves = 0
        for s in spans:
            if s[NAME] != "canonical.solve_ode_batch":
                continue
            p = s[PARENT]
            while p is not None and spans[p][NAME] != "canonical.kernel_grid":
                p = spans[p][PARENT]
            solves += p is not None
        return solves / grids if grids else 0.0


def _loaded_modules():
    """The package and its loaded submodules, which may hold rebound names."""
    return [mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]
