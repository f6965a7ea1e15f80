"""Tests of the benchmark itself: tracer, workloads, gate and metric layout.

    python3 -m pytest -q bench/tests
"""

import json
import math
import os

import numpy as np
import pytest

import gate
import run
import tracer
import workloads
from conftest import ROOT

import cdscale
from cdscale import canonical, cdkernel, cli, jacobi, limits, mat2, models, transfer


def _span(sid, start, end, parent=None, name="x.y"):
    return [sid, name, start, end, parent, "t"]


def test_self_time_subtracts_children_not_grandchildren():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 4.0, 0), _span(2, 2.0, 3.0, 1),
             _span(3, 5.0, 6.0, 0)]
    own = tracer.self_times(spans)
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 4.0, 0), _span(2, 3.0, 5.0, 0),
             _span(3, 9.0, 12.0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def _namespace_snapshot():
    mods = [cdscale, mat2, jacobi, transfer, cdkernel, canonical, limits, models, cli]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap.update({("KernelGrid", k): v for k, v in vars(cdkernel.KernelGrid).items()})
    return snap


REBOUND = [(transfer, "poly_table", jacobi.poly_table), (cdkernel, "poly_table", jacobi.poly_table),
           (canonical, "poly_table", jacobi.poly_table), (limits, "h_sequence", transfer.h_sequence),
           (limits, "q_snapshots", transfer.q_snapshots),
           (limits, "constant_solution_batch", canonical.constant_solution_batch),
           (transfer, "operator_norm", mat2.operator_norm), (cli, "operator_norm", mat2.operator_norm),
           (transfer, "inverse_unimodular", mat2.inverse_unimodular),
           (cli, "inverse_unimodular", mat2.inverse_unimodular),
           (cdscale, "scaled_grid", cdkernel.scaled_grid)]


def test_install_patches_rebound_names_and_uninstall_restores_all():
    before = _namespace_snapshot()
    to_csv = vars(cdkernel.KernelGrid)["to_csv"]
    t = tracer.Tracer()
    with t:
        for mod, name, original in REBOUND:
            assert getattr(mod, name) is not original
            assert getattr(mod, name).__wrapped__ is original
        assert vars(cdkernel.KernelGrid)["to_csv"].__wrapped__ is to_csv
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_scalar_functions_count_calls_without_spans():
    model = models.free_model()
    t = tracer.Tracer()
    with t:
        m = mat2.Mat2(1.0, 2.0, 3.0, 7.0)
        mat2.operator_norm(m @ m)
        transfer.transfer_product(model, 3, 0.5)
    assert t.calls["mat2.multiply"] == 1 + 3
    assert t.calls["mat2.operator_norm"] == 1 + 3
    assert t.calls["transfer.one_step"] == 3
    assert [s[tracer.NAME] for s in t.spans] == ["transfer.transfer_product"]
    assert t.work["transfer.transfer_product.steps"] == 3


def test_error_counted_once_in_the_raising_layer():
    short = jacobi.TableModel([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    t = tracer.Tracer()
    with t:
        with pytest.raises(IndexError):
            cdkernel.scaled_grid(short, 10, 0.0, [0.0, 1.0], [0.0, 1.0])
    assert t.summary()["errors"] == dict.fromkeys(tracer.LAYERS, 0) | {"jacobi": 1}
    assert [s[tracer.NAME] for s in t.spans] == ["cdkernel.scaled_grid", "jacobi.poly_table"]


def test_solve_count_and_rk4_steps_from_spans():
    t = tracer.Tracer()
    system = canonical.CoshSinhHamiltonian(1.0)
    with t:
        canonical.kernel_grid(system, [0.5, 1.0], [0.5, 2.0], max_step=1e-3)
    s = t.summary()
    assert s["solves_per_kernel_grid"] == 7.0
    assert s["work"]["canonical.solve_ode_batch.z_steps"] == 1000 * (2 + 2 + 5 * 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_commands(name):
    assert workloads.commands(name, 11) == workloads.commands(name, 11)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_only_seed_dependent_arguments(name):
    a, b = workloads.commands(name, 11), workloads.commands(name, 12)
    assert [c.key for c in a] == [c.key for c in b]
    assert any(c.seeded for c in a)
    for ca, cb in zip(a, b):
        assert ca.seeded == cb.seeded
        assert len(ca.argv) == len(cb.argv)
        differ = [i for i, (x, y) in enumerate(zip(ca.argv, cb.argv)) if x != y]
        assert all(ca.argv[i - 1] in workloads.SEED_FLAGS for i in differ), ca.key
        assert bool(differ) == ca.seeded, ca.key


def test_no_workload_passes_threads_or_out():
    for name in workloads.WORKLOADS:
        for cmd in workloads.commands(name, 0):
            assert "--threads" not in cmd.argv and "--out" not in cmd.argv


def test_traced_work_counts_repeat(tmp_path):
    cmds = workloads.commands("readme", 3)
    refs = gate.load_references()
    counts = []
    for i in range(2):
        t = tracer.Tracer()
        with t:
            results = run.run_pass(cli, gate, cmds, str(tmp_path), refs, t, i)
        assert not any(r.problems for r in results)
        s = t.summary()
        counts.append((s["calls"], s["work"], s["solves_per_kernel_grid"]))
    assert counts[0] == counts[1]
    assert counts[0][0]["jacobi.sturm_count"] > 0


def test_free_oracles_match_cdscale():
    model = models.free_model()
    n, x0 = 300, 0.7
    a = np.array([-2.0, 0.0, 3.0])
    grid = cdkernel.scaled_grid(model, n, x0, a, a)
    a_cell, b_cell = np.meshgrid(a, a, indexing="ij")
    want = gate.free_kernel(n, x0 + a_cell / n, x0 + b_cell / n)
    assert np.allclose(grid.values, want, rtol=0, atol=1e-11)
    got = jacobi.scaled_zeros(model, n, x0, 20.0).scaled_zeros
    assert np.allclose(got, gate.free_zeros(n, x0, 20.0), atol=1e-8)


def test_non_finite_and_unparsable_outputs_are_found(tmp_path):
    (tmp_path / "ok.csv").write_text("a,b\n1.0,2.0\n")
    (tmp_path / "bad.csv").write_text("a,b\n1.0,nan\n")
    (tmp_path / "text.csv").write_text("a,b\n1.0,x\n")
    (tmp_path / "m.json").write_text('{"x": [1.0, {"y": Infinity}], "z": null}')
    problems = gate.non_finite_outputs(str(tmp_path))
    assert [p.split(":")[0] for p in problems] == ["bad.csv", "m.json", "text.csv"]


def _zeros_cmd(tmp_path, values, rc_manifest=None):
    cmd = workloads.Command("t/zeros", ("zeros", "--model", "free", "--n", "10",
                                        "--x0", "0", "--window", "3"))
    (tmp_path / "zeros.csv").write_text("scaled_zero\n" + "".join(f"{v!r}\n" for v in values))
    (tmp_path / "manifest.json").write_text(json.dumps(rc_manifest or {"command": "zeros"}))
    return cmd


def test_gate_accepts_correct_and_flags_silent_wrong_output(tmp_path):
    right = gate.free_zeros(10, 0.0, 3.0).tolist()
    cmd = _zeros_cmd(tmp_path, right)
    assert gate.check(cmd, 0, str(tmp_path), {}) == ([], False)
    cmd = _zeros_cmd(tmp_path, [right[0] + 1e-3] + right[1:])
    problems, silent = gate.check(cmd, 0, str(tmp_path), {})
    assert silent and problems[0].startswith("zeros: max deviation")


def test_gate_counts_reported_failure_as_failed_not_silent(tmp_path):
    cmd = _zeros_cmd(tmp_path, [0.0], {"command": "verify", "checks": [
        {"name": "flow_stat_final", "measured": 0.3, "bound": 0.02, "pass": False}]})
    problems, silent = gate.check(cmd, 1, str(tmp_path), {})
    assert problems == ["exit code 1", "check failed: flow_stat_final"] and not silent


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    value, pct = run.tail([float(x) for x in range(1, 21)])
    assert value == 10.0 and pct == pytest.approx(50.0)


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert math.isclose(max(m["bound"] for m in spec["end_to_end"]),
                        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"))


def test_gate_survives_missing_or_broken_outputs(tmp_path):
    cmd = workloads.Command("t/kernel", ("kernel", "--model", "alternating-v", "--n", "10"))
    assert gate.check(cmd, 0, str(tmp_path), {})[1]
    (tmp_path / "manifest.json").write_text('{"command": "kernel", "pass": null}')
    problems, silent = gate.check(cmd, 0, str(tmp_path), {"t/kernel": {"kernel_cells": []}})
    assert silent and problems[0].startswith("key outputs unreadable")


def test_pass_times_scale_by_calibration_speed():
    cmd = workloads.Command("t/k", ("kernel",))
    passes = [[run.Invocation(cmd, 2.0, [], False)], [run.Invocation(cmd, 3.0, [], False)]]
    slow = run.speed(2 * run.CALIBRATION_REF_S, 2 * run.CALIBRATION_REF_S)
    assert slow == pytest.approx(0.5)
    assert run.pass_seconds(passes, "kernel", [slow, 1.0]) == pytest.approx([1.0, 3.0])
    assert run.pass_seconds(passes, "zeros") == [0.0, 0.0]
