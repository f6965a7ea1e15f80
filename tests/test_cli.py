import contextlib
import csv
import io
import itertools
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdscale import transfer
from cdscale.cli import _join_value_flags, build_parser, main
from cdscale.errors import ConditioningWarning

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(autouse=True)
def no_env_out(monkeypatch):
    monkeypatch.delenv("CDSCALE_OUT", raising=False)


def test_kernel_single_cell(tmp_path):
    code = main(["kernel", "--model", "free", "--n", "1", "--x0", "0",
                 "--grid", "0:0:1", "--out", str(tmp_path)])
    assert code == 0
    rows = csv_rows(tmp_path / "kernel.csv")
    assert len(rows) == 1
    assert float(rows[0]["re"]) == 1.0


def test_kernel_sine_reference_passes(tmp_path):
    code = main(["kernel", "--model", "free", "--n", "2000", "--x0", "0",
                 "--grid", "-5:5:21", "--reference", "sine",
                 "--rho", repr(1 / (2 * math.pi)), "--w", repr(1 / math.pi),
                 "--out", str(tmp_path)])
    assert code == 0
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["pass"] is True
    assert man["sup_error"] <= 0.02
    assert man["version"]


def test_kernel_wrong_density_fails(tmp_path):
    code = main(["kernel", "--model", "free", "--n", "500", "--x0", "0",
                 "--grid", "-5:5:21", "--reference", "sine",
                 "--rho", repr(1 / math.pi), "--w", repr(1 / math.pi),
                 "--out", str(tmp_path)])
    assert code == 1


def test_kernel_canonical_reference_alternating(tmp_path):
    code = main(["kernel", "--model", "alternating-v", "--v", "1", "--n", "1000",
                 "--x0", "0", "--grid", "-4:4:17", "--reference", "canonical",
                 "--out", str(tmp_path)])
    assert code == 0


def test_kernel_modified_sine_reference(tmp_path):
    code = main(["kernel", "--model", "alternating-v", "--v", "1", "--n", "1000",
                 "--x0", "0", "--grid", "-4:4:17", "--reference", "modified-sine",
                 "--out", str(tmp_path)])
    assert code == 0
    # the closed form belongs to the alternating family only
    assert main(["kernel", "--model", "free", "--n", "100", "--grid", "-1:1:5",
                 "--reference", "modified-sine", "--out", str(tmp_path)]) == 2


def test_usage_errors_exit_two(tmp_path):
    assert main(["kernel", "--model", "alternating-v", "--n", "10",
                 "--grid", "0:1:2", "--out", str(tmp_path)]) == 2  # missing --v
    assert main(["kernel", "--model", "free", "--n", "10",
                 "--grid", "nonsense", "--out", str(tmp_path)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--no-such-flag"])
    assert exc.value.code == 2


def test_zeros_command(tmp_path):
    code = main(["zeros", "--model", "free", "--n", "5000", "--x0", "0",
                 "--window", "40", "--out", str(tmp_path)])
    assert code == 0
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert abs(man["mean_gap"] - 2 * math.pi) <= 0.02 * 2 * math.pi
    cells = [r["scaled_zero"] for r in csv_rows(tmp_path / "zeros.csv")]
    assert all(repr(float(cell)) == cell for cell in cells)  # repr's text of each zero
    zs = [float(cell) for cell in cells]
    assert len(zs) == man["count"]
    assert all(b > a for a, b in zip(zs, zs[1:]))


def test_diagnostics_command(tmp_path):
    code = main(["diagnostics", "--model", "free", "--n", "2000", "--x0", "0",
                 "--candidate", "constant", "--h11", "0.5", "--h22", "0.5",
                 "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "diagnostics.json").read_text())
    assert abs(data["cesaro_h"][0][0] - 0.5) <= 1e-2
    assert data["matrix_conv"] <= 1e-3
    assert data["piecewise_estimate"]["kind"] == "piecewise"


def test_diagnostics_with_a_bin_per_term(tmp_path):
    # every bin is one rank-one H_j, whose smallest eigenvalue must round to no less than -1e-12
    assert main(["diagnostics", "--model", "free", "--x0", "0.3", "--n", "64000",
                 "--bins", "64000", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "diagnostics.json").exists()


def test_diagnostics_alternating_coshsinh_candidate(tmp_path):
    code = main(["diagnostics", "--model", "alternating-v", "--v", "1",
                 "--n", "10000", "--x0", "0", "--candidate", "coshsinh",
                 "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "diagnostics.json").read_text())
    assert data["matrix_conv"] <= 5e-3


def test_verify_suites_pass(tmp_path):
    assert main(["verify", "transfer-identities", "--model", "free",
                 "--n", "1000", "--out", str(tmp_path)]) == 0
    assert main(["verify", "appendix-roundtrip", "--seed", "7", "--n", "50",
                 "--out", str(tmp_path)]) == 0
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["pass"] is True
    assert all(c["pass"] for c in man["checks"])


def test_verify_unknown_suite(tmp_path):
    assert main(["verify", "bogus", "--out", str(tmp_path)]) == 2


def test_verify_appendix_defaults_and_conditioning_failure(tmp_path, capsys):
    # without --n the suite uses its own natural table length and passes
    assert main(["verify", "appendix-roundtrip", "--out", str(tmp_path)]) == 0
    # very long random tables exceed the absolute identity tolerance for
    # conditioning reasons; that is a clean numerical failure, not a crash
    assert main(["verify", "appendix-roundtrip", "--n", "1000",
                 "--out", str(tmp_path)]) == 1
    assert "numerical check failed" in capsys.readouterr().err


def test_byte_identical_reruns(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    args = ["kernel", "--model", "free", "--n", "300", "--x0", "0",
            "--grid", "-3:3:13", "--reference", "sine",
            "--rho", repr(1 / (2 * math.pi)), "--w", repr(1 / math.pi)]
    assert main(args + ["--out", str(d1)]) == 0
    assert main(args + ["--out", str(d2)]) == 0
    assert (d1 / "kernel.csv").read_bytes() == (d2 / "kernel.csv").read_bytes()
    assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()


def test_env_var_overrides_out_flag(tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    monkeypatch.setenv("CDSCALE_OUT", str(env_dir))
    code = main(["kernel", "--model", "free", "--n", "10", "--grid", "0:1:3",
                 "--out", str(flag_dir)])
    assert code == 0
    assert (env_dir / "kernel.csv").exists()
    assert not flag_dir.exists()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("# defaults for this run\nn=400\ngrid=-2:2:9\n")
    out = tmp_path / "o1"
    code = main(["kernel", "--model", "free", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 0
    rows = csv_rows(out / "kernel.csv")
    assert len(rows) == 81  # 9 x 9 grid from the config file
    out2 = tmp_path / "o2"
    code = main(["kernel", "--model", "free", "--config", str(cfg),
                 "--grid", "0:1:2", "--out", str(out2)])
    assert code == 0
    rows = csv_rows(out2 / "kernel.csv")
    assert len(rows) == 4  # flag wins over config


def test_canonical_solve_constant(tmp_path):
    code = main(["canonical-solve", "--system", "constant", "--h11", "0.5",
                 "--h22", "0.5", "--z", "1.0", "--t-grid", "0:1:5",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = csv_rows(tmp_path / "solution.csv")
    assert len(rows) == 5
    # every cell is repr's text of the value it reads back as
    assert all(repr(float(cell)) == cell for row in rows for cell in row.values())
    last = rows[-1]
    assert abs(float(last["q11_re"]) - math.cos(0.5)) <= 1e-9
    assert abs(float(last["q12_re"]) - math.sin(0.5)) <= 1e-9


def test_canonical_solve_from_json_system(tmp_path):
    spec = tmp_path / "system.json"
    spec.write_text(json.dumps({"kind": "cosh-sinh", "v": 1.0}))
    code = main(["canonical-solve", "--system", str(spec), "--z", "2.0,0.5",
                 "--t-grid", "0:1:3", "--out", str(tmp_path)])
    assert code == 0


def test_table_model_via_cli(tmp_path):
    table = tmp_path / "coeffs.csv"
    lines = ["j,a,b"] + [f"{j},1.0,0.0" for j in range(200)]
    table.write_text("\n".join(lines) + "\n")
    code = main(["kernel", "--model", "table", "--table", str(table),
                 "--n", "200", "--grid", "-2:2:9", "--out", str(tmp_path)])
    assert code == 0
    missing = tmp_path / "missing.csv"
    assert main(["kernel", "--model", "table", "--table", str(missing),
                 "--n", "10", "--grid", "0:1:2", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["kernel", "--model", "free", "--n", "0"],
    ["kernel", "--model", "free", "--n", "-5"],
    ["zeros", "--model", "free", "--n", "100", "--window", "-1"],
    ["canonical-solve", "--system", "coshsinh", "--v", "1", "--z", "1", "--t-grid", "0:2:5"],
    ["kernel", "--model", "table", "--table", "{table}", "--n", "10", "--grid", "0:1:2"],
    ["diagnostics", "--model", "free", "--n", "0"],
    ["kernel", "--model", "free", "--n", "10", "--grid", "nan:1:3"],
    ["kernel", "--model", "free", "--n", "10", "--threads", "2"],
    ["verify", "thm25", "--x0", "3", "--n-list", "100"],
    ["kernel", "--model", "alternating-v", "--v", "1", "--n", "10", "--grid", "0:1:2",
     "--reference", "canonical", "--max-step", "0.01"],
    ["verify", "section5", "--v", "1", "--n", "50", "--max-step", "0"],
    ["canonical-solve", "--system", "coshsinh", "--v", "1", "--z", "1", "--max-step", "2e-3"],
    # below MIN_MAX_STEP: the step count would wrap negative or exhaust memory
    ["canonical-solve", "--system", "coshsinh", "--v", "1", "--z", "1", "--max-step", "1e-300"],
    ["kernel", "--model", "alternating-v", "--v", "1", "--n", "7", "--reference", "canonical",
     "--max-step", "1e-300"],
    ["verify", "section5", "--n", "7", "--max-step", "1e-300"],
    # non-finite numbers and values the library refuses are usage errors too
    ["zeros", "--model", "free", "--n", "100", "--x0", "nan"],
    ["kernel", "--model", "free", "--n", "10", "--grid", "0:1:3", "--x0", "inf"],
    ["canonical-solve", "--system", "constant", "--h11", "nan", "--h22", "1", "--z", "1"],
    ["canonical-solve", "--system", "coshsinh", "--v", "1", "--z", "nan"],
    ["canonical-solve", "--system", "coshsinh", "--v", "-1", "--z", "1"],
    ["diagnostics", "--model", "free", "--n", "100", "--candidate", "coshsinh", "--v", "-1"],
    ["kernel", "--model", "free", "--n", "10", "--grid", "0:1:3", "--reference", "canonical",
     "--rho", "1", "--w", "-1"],
    ["kernel", "--model", "free", "--n", "10", "--grid", "0:1:3", "--reference", "canonical"],
    ["kernel", "--model", "free", "--n", "10", "--grid", "0:1:3", "--config", "{config}"],
    ["kernel", "--model", "bogus", "--n", "10"],
    ["kernel", "--model", "free", "--n", "10", "--reference", "bogus"],
    ["verify", "appendix-roundtrip", "--seed", "-1", "--n", "50"],
    ["verify", "kernel-identities", "--model", "free", "--n", "20", "--seed", "-1"],
    # a system file without the key its kind needs, or not a JSON object
    ["canonical-solve", "--system", "{system}", "--z", "1"],
    ["diagnostics", "--model", "free", "--n", "100", "--candidate", "{system}"],
    ["canonical-solve", "--system", "{array}", "--z", "1"],
    # suites that compare distinct grid points
    ["verify", "section5", "--v", "1", "--n", "100", "--grid", "0:0:1"],
    ["verify", "thm25", "--n-list", "500,1000", "--grid", "0:0:1"],
    # bulk data whose Hamiltonian misses det H = (pi rho)^2: 9.859 against 9.870
    ["kernel", "--model", "free", "--n", "10", "--grid", "0:1:3", "--reference", "canonical",
     "--rho", "1", "--w", "1e-3", "--re-f", "1e4"],
    # bulk data with no finite Hamiltonian: every sine and canonical reference refuses them
    ["kernel", "--model", "free", "--n", "10", "--grid", "0:1:3", "--reference", "sine",
     "--rho", "1", "--w", "0"],
    ["kernel", "--model", "free", "--n", "10", "--grid", "0:1:3", "--reference", "sine",
     "--rho", "1", "--w", "-1"],
    ["kernel", "--model", "free", "--n", "10", "--grid", "0:1:3", "--reference", "sine",
     "--rho", "1e300", "--w", "1e-300"],
    ["kernel", "--model", "free", "--n", "10", "--grid", "0:1:3", "--reference", "canonical",
     "--rho", "1", "--w", "1e-300"],
    ["kernel", "--model", "free", "--n", "10", "--grid", "0:1:3", "--reference", "canonical",
     "--rho", "1", "--w", "1", "--re-f", "1e160"],
    ["verify", "thm25", "--n-list", "50,100", "--grid", "-1:1:3", "--rho", "1", "--w", "1e-200"],
    ["verify", "thm25", "--n-list", "50,100", "--grid", "-1:1:3", "--rho", "1", "--w", "1",
     "--re-f", "1e160"],
    # a refused reference is refused before the grid, which overflows off the bulk
    ["kernel", "--model", "free", "--x0", "3", "--n", "4000", "--grid", "-5:5:5",
     "--reference", "sine", "--rho", "1", "--w", "-1"],
    ["kernel", "--model", "free", "--x0", "3", "--n", "4000", "--grid", "-5:5:5",
     "--reference", "canonical", "--rho", "1", "--w", "-1"],
    ["kernel", "--model", "free", "--x0", "3", "--n", "4000", "--grid", "-5:5:5",
     "--reference", "modified-sine"],
])
def test_usage_errors_exit_2(tmp_path, argv):
    table = tmp_path / "short.csv"
    table.write_text("j,a,b\n0,1.0,0.0\n1,1.0,0.0\n")
    config = tmp_path / "bad.cfg"
    config.write_text("tol=nan\n")
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"kind": "constant"}))
    array = tmp_path / "array.json"
    array.write_text("[1.0]")
    argv = [arg.format(table=table, config=config, system=system, array=array)
            for arg in argv] + ["--out", str(tmp_path)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects unknown flags itself
        code = exc.code
    assert code == 2
    assert not (tmp_path / "manifest.json").exists()


def test_thm25_off_center_passes(tmp_path):
    assert main(["verify", "thm25", "--x0", "0.3", "--n-list", "500,1000,2000",
                 "--grid", "-5:5:21", "--out", str(tmp_path)]) == 0
    # each statistic's list goes with the check that it decreases
    checks = json.loads((tmp_path / "manifest.json").read_text())["checks"]
    assert [sorted(c.keys() - {"name", "measured", "bound", "pass"}) for c in checks] == [
        [], ["kernel_stat"], [], ["flow_stat"]]
    assert [c["name"] for c in checks[1::2]] == ["kernel_stat_decreasing", "flow_stat_decreasing"]


@pytest.mark.parametrize("argv, output", [
    (["kernel", "--model", "free", "--x0", "3", "--n", "4000", "--grid", "-5:5:5"], "kernel.csv"),
    (["diagnostics", "--model", "free", "--x0", "3", "--n", "4000"], "diagnostics.json"),
    # the RK4 solution overflows, or H(t) = cosh/sinh(800 t)/2 does past t = 0.89
    (["canonical-solve", "--system", "coshsinh", "--v", "1", "--z", "1e200",
      "--t-grid", "0:1:3"], "solution.csv"),
    (["canonical-solve", "--system", "coshsinh", "--v", "800", "--z", "1",
      "--t-grid", "0:1:3"], "solution.csv"),
    # distinct eigenvalues near +-1.43e199 that are equal in floating point
    (["zeros", "--model", "alternating-v", "--v", "1e200", "--n", "7", "--window", "1e300"],
     "zeros.csv"),
    # finite bins of about 6e15 whose smallest eigenvalue rounds to -0.5
    (["diagnostics", "--model", "free", "--x0", "3", "--n", "100"], "diagnostics.json"),
])
def test_non_finite_results_exit_1(tmp_path, capsys, recwarn, argv, output):
    # off the bulk the polynomials overflow; no output may carry NaN
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "numerical check failed" in err
    # a refused Hamiltonian names its size beside the absolute tolerance
    assert "eigenvalue" not in err or "largest entry" in err
    assert not (tmp_path / output).exists()
    # numpy's own overflow warnings stay silent; cdscale's message names the overflow
    assert [str(w.message) for w in recwarn if w.category is RuntimeWarning] == []


def test_section5_rejects_negative_coupling_before_any_check(tmp_path, capsys):
    assert main(["verify", "section5", "--v", "-1", "--n", "50", "--out", str(tmp_path)]) == 2
    assert "PASS" not in capsys.readouterr().out
    assert not (tmp_path / "manifest.json").exists()


def test_transfer_overflow_is_named(tmp_path, capsys, recwarn):
    # the direct product overflows before its determinant check can mean anything
    assert main(["verify", "transfer-identities", "--model", "free", "--n", "2000",
                 "--x0", "2.05", "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert "numerical check failed: transfer products at step 1600 overflow" in err
    assert "determinant" not in err
    assert "measured=nan" not in out and "[FAIL]" not in out
    # numpy's own overflow warnings stay silent; only ConditioningWarning may speak
    assert "RuntimeWarning" not in err
    assert [str(w.message) for w in recwarn if w.category is RuntimeWarning] == []


def test_thm25_off_the_bulk_names_the_kernel_grid(tmp_path, capsys, recwarn):
    # scaled_grid's overflow check speaks before flow_deviation's
    assert main(["verify", "thm25", "--model", "free", "--n-list", "2000", "--x0", "2.05",
                 "--rho", "0.3", "--w", "0.3", "--grid", "-5:5:11", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert ("numerical check failed: kernel grid at x0 = 2.05, n = 2000 overflows off the bulk"
            in err)
    # numpy's own overflow warnings stay silent; only ConditioningWarning may speak
    assert [str(w.message) for w in recwarn if w.category is RuntimeWarning] == []


def test_transfer_determinant_overflow_is_named(tmp_path, capsys, monkeypatch):
    # with the direct trajectory's own overflow check out of the way, the suite
    # still names the first step whose determinant overflows, before any check
    monkeypatch.setattr(transfer, "q_trajectory_direct",
                        lambda model, n, x0, offsets, tgrid: np.zeros((len(tgrid), len(offsets), 2, 2)))
    with pytest.warns(ConditioningWarning, match="at step 58"):
        assert main(["verify", "transfer-identities", "--model", "free", "--n", "2000",
                     "--x0", "2.05", "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert "numerical check failed: transfer products at step 1582 overflow" in err
    assert "[FAIL]" not in out and "[PASS]" not in out


def test_diagnostics_candidate_overflow_names_candidate(tmp_path, capsys):
    # the candidate's integral overflows at x0 = 0, inside the bulk of the model
    assert main(["diagnostics", "--model", "free", "--n", "1000", "--candidate", "coshsinh",
                 "--v", "800", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "numerical check failed: candidate" in err
    assert "cosh-sinh" in err and "800" in err
    assert "off the bulk" not in err
    assert not (tmp_path / "diagnostics.json").exists()


def _flag(name, values, invalid):
    """An optional flag: absent, or one of ``values`` (drawn three times as often) or ``invalid``."""
    return st.sampled_from([[]] + [[name, v] for v in 3 * values + invalid])


_RUN = itertools.count()


def check_exit_code_contract(out, argv, outputs):
    """Run ``argv`` into ``out``: 0 with finite outputs; 1 with a [FAIL] line and finite
    outputs, or with one cdscale message and no output; or 2 with nothing written.
    ``outputs`` are the command's files besides the manifest."""
    err, std = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(std), \
            warnings.catch_warnings():
        # cdscale's own warning may speak off the bulk; any other RuntimeWarning is an error
        warnings.simplefilter("ignore", ConditioningWarning)
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse rejects malformed numbers itself
            code = exc.code
    assert code in (0, 1, 2), argv
    failed = any(line.startswith("[FAIL] ") for line in std.getvalue().splitlines())
    assert not (failed and code != 1), argv
    if code == 0 or failed:
        for name in ("manifest.json", *outputs):
            text = (out / name).read_text()
            if name.endswith(".json"):
                json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in {name}: {argv}"))
            else:  # a CSV of numbers under one header line
                cells = [cell for line in text.splitlines()[1:] for cell in line.split(",")]
                assert all(math.isfinite(float(cell)) for cell in cells), (name, argv)
    elif code == 1:
        lines = err.getvalue().splitlines()
        assert sum(line.startswith("numerical check failed: ") for line in lines) == 1, argv
        assert not any((out / name).exists() for name in outputs), argv
    else:
        assert not out.exists(), argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(model=st.sampled_from(2 * ["free", "alternating-v"] + ["periodic", "table"]),
       flags=st.tuples(
           _flag("--n", ["1", "2", "7", "100", "4096", "5000"], ["0", "-3", "1e300", "nan"]),
           _flag("--x0", ["0", "-0.5", "0.3", "2.05", "3", "-3", "1e300", "-1e300"], ["nan"]),
           _flag("--v", ["0", "0.5", "1", "2.5", "800", "1e300"], ["-1", "nan"]),
           _flag("--candidate", ["constant", "coshsinh"], ["missing.json"]),
           _flag("--h11", ["0", "0.5", "1", "-1", "1e300"], ["nan"]),
           _flag("--h22", ["0", "0.5", "1", "-1", "1e300"], ["nan"]),
           _flag("--bins", ["1", "7", "50", "5000"], ["0", "-1", "1e300", "nan"])))
def test_diagnostics_exit_code_contract(tmp_path_factory, model, flags):
    out = tmp_path_factory.getbasetemp() / f"diagnostics-contract-{next(_RUN)}"
    argv = ["diagnostics", "--model", model, *itertools.chain(*flags)]
    check_exit_code_contract(out, argv, ["diagnostics.json"])


_ENTRY = ["0", "0.5", "1", "-1", "1e300"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(system=st.sampled_from(2 * ["constant", "coshsinh"] + ["missing.json"]),
       flags=st.tuples(
           _flag("--z", ["0", "1", "-3.5", "2,1", "0,-1", "40", "1e3", "1e200", "1e300,1e300"],
                 ["nan", "1,nan", "inf", "1,2,3", "i"]),
           _flag("--v", ["0", "0.5", "1", "5", "800", "1e300"], ["-1", "nan"]),
           _flag("--h11", _ENTRY, ["nan"]),
           _flag("--h12", _ENTRY, ["nan"]),
           _flag("--h22", _ENTRY, ["nan"]),
           # one point, reversed, and grids that leave [0, 1]
           _flag("--t-grid", ["0:1:3", "0:1:101", "0.5:0.5:1", "1:1:1", "0:0.25:2", "0.9:1:4"],
                 ["1:0:5", "-0.5:1:3", "0:2:3", "0:1:0", "nan:1:3", "0:1"]),
           # valid steps from the two coarsest, so that no solve takes seconds
           _flag("--max-step", 2 * ["1e-3", "2.5e-4"],
                 ["0", "-1e-3", "1e-300", "nan", "5e-07", "2e-3"])))
# a step count that would wrap negative
@example(system="coshsinh", flags=(["--z", "1"], ["--v", "1"], [], [], [], [], ["--max-step", "1e-300"]))
def test_canonical_solve_exit_code_contract(tmp_path_factory, system, flags):
    out = tmp_path_factory.getbasetemp() / f"canonical-solve-contract-{next(_RUN)}"
    argv = ["canonical-solve", "--system", system, *itertools.chain(*flags)]
    check_exit_code_contract(out, argv, ["solution.csv"])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(model=st.sampled_from(2 * ["free", "alternating-v"] + ["periodic", "table"]),
       flags=st.tuples(
           _flag("--n", ["1", "2", "7", "100", "500"], ["0", "-3", "1e300", "nan"]),
           _flag("--x0", ["0", "-0.5", "0.3", "1.99", "2.05", "3", "-3", "1e300", "-1e300"],
                 ["nan"]),
           _flag("--v", ["0", "0.5", "1", "2.5", "1e200", "1e300"], ["-1", "nan"]),
           _flag("--window", ["1", "5", "40", "1e300"], ["0", "-1", "nan"])))
# distinct zeros near +-1.4e199 that coincide in floating point once scaled
@example(model="alternating-v", flags=(["--n", "7"], [], ["--v", "1e200"], ["--window", "1e300"]))
def test_zeros_exit_code_contract(tmp_path_factory, model, flags):
    out = tmp_path_factory.getbasetemp() / f"zeros-contract-{next(_RUN)}"
    argv = ["zeros", "--model", model, *itertools.chain(*flags)]
    check_exit_code_contract(out, argv, ["zeros.csv"])


_BULK = ["0", "-1", "1e300", "1e-300", "1e160", "nan"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(model=st.sampled_from(3 * ["free", "alternating-v"] + ["periodic", "table"]),
       flags=st.tuples(
           _flag("--n", ["1", "2", "7", "100", "500"], ["0", "-3", "1e300", "nan"]),
           _flag("--x0", ["0", "-0.5", "0.3", "2.05", "3", "1e300"], ["nan"]),
           _flag("--v", ["0", "0.5", "1", "2.5", "1e300"], ["-1", "nan"]),
           # one point, reversed, and grids of two to five points
           _flag("--grid", ["0:0:1", "-1:1:2", "-5:5:3", "-2:3:5"], ["1:-1:3", "nan:1:3", "0:1:0"]),
           _flag("--bgrid", ["0.5:0.5:1", "-1:1:2", "-4:4:5"], ["2:1:4", "0:inf:2"]),
           _flag("--reference", ["sine", "modified-sine", "canonical"], []),
           _flag("--rho", ["0.15915494309189535", "0.3", "1", "2"], _BULK),
           _flag("--w", ["0.3183098861837907", "0.3", "1", "2"], _BULK),
           _flag("--re-f", ["0", "0.5", "-1"], ["1e300", "1e-300", "1e160", "nan"]),
           # the one valid step, drawn twice as often as the invalid ones: a finer one
           # makes each canonical reference slower
           _flag("--max-step", 4 * ["1e-3"], ["0", "-1e-3", "1e-300", "nan", "2e-3", "5e-07"])))
# rho / w overflows: the sine reference was infinite and its sup_error Infinity
@example(model="free", flags=([], [], [], ["--grid", "0:1:3"], [], ["--reference", "sine"],
                              ["--rho", "1e300"], ["--w", "1e-300"], [], []))
def test_kernel_exit_code_contract(tmp_path_factory, model, flags):
    out = tmp_path_factory.getbasetemp() / f"kernel-contract-{next(_RUN)}"
    argv = ["kernel", "--model", model, *itertools.chain(*flags)]
    check_exit_code_contract(out, argv, ["kernel.csv"])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(suite=st.sampled_from(["transfer-identities", "kernel-identities", "section5",
                              "appendix-roundtrip", "thm25"]),
       model=_flag("--model", 2 * ["free", "alternating-v"] + ["periodic"], ["table"]),
       flags=st.tuples(
           _flag("--n", ["1", "2", "7", "50", "200"], ["0", "-3", "1e300", "nan"]),
           _flag("--x0", ["0", "-0.5", "0.3", "2.05", "3", "1e300"], ["nan"]),
           _flag("--v", ["0", "0.5", "1", "2.5", "709", "800", "1e300"], ["-1", "nan"]),
           _flag("--seed", ["0", "7"], ["-1"]),
           _flag("--bins", ["1", "7", "50"], ["0", "nan"]),
           _flag("--grid", ["-1:1:2", "-5:5:3"], ["0:0:1", "1:-1:3"]),
           _flag("--t-grid", ["0:1:3", "0:1:11"], ["0:2:3"]),
           _flag("--n-list", ["50,100", "7,50,500"], ["0,100", "50,x"]),
           _flag("--rho", ["0.15915494309189535", "0.3"], ["0", "1e300", "nan"]),
           _flag("--w", ["0.3183098861837907", "0.3"], ["0", "1e-300", "nan"]),
           _flag("--max-step", 4 * ["1e-3"], ["0", "2e-3"])))
# the recursive trajectory overflows off the bulk: the manifest read "measured": NaN
@example(suite="transfer-identities", model=["--model", "free"],
         flags=(["--x0", "2.05"], ["--n", "200"]))
# numpy's overflow warnings came before cdscale's message
@example(suite="transfer-identities", model=["--model", "free"], flags=(["--x0", "1e300"], ["--n", "50"]))
@example(suite="kernel-identities", model=["--model", "free"], flags=(["--x0", "1e300"], ["--n", "50"]))
# exp(V t) overflows: [FAIL] lines came before "math range error"
@example(suite="section5", model=[], flags=(["--n", "7"], ["--v", "800"]))
@example(suite="section5", model=[], flags=(["--v", "1e300"], ["--n", "50"]))
def test_verify_exit_code_contract(tmp_path_factory, suite, model, flags):
    out = tmp_path_factory.getbasetemp() / f"verify-contract-{next(_RUN)}"
    argv = ["verify", suite, *model, *itertools.chain(*flags)]
    check_exit_code_contract(out, argv, [])


def run_fresh(tmp_path, commands):
    """Run CLI commands in one fresh interpreter; the scipy modules it ended with."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); from cdscale.cli import build_parser, main\n"
            "build_parser()\n"
            "codes = [main(argv + ['--out', sys.argv[2]]) for argv in json.loads(sys.argv[3])]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
    env = {k: v for k, v in os.environ.items() if k != "CDSCALE_OUT"}
    done = subprocess.run([sys.executable, "-c", code, str(SRC), str(tmp_path), json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    codes, modules = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    return modules


def test_commands_without_lapack_never_import_scipy(tmp_path):
    # scipy.linalg takes longer to import than these commands take to run; the Gauss
    # rule of kernel-identities is a dense numpy solve
    modules = run_fresh(tmp_path, [
        ["kernel", "--model", "free", "--n", "50", "--grid", "-2:2:5", "--reference", "sine",
         "--rho", repr(1 / (2 * math.pi)), "--w", repr(1 / math.pi)],
        ["kernel", "--model", "alternating-v", "--v", "1", "--n", "100", "--grid", "-2:2:5",
         "--reference", "canonical"],
        ["diagnostics", "--model", "alternating-v", "--v", "1", "--n", "100",
         "--candidate", "coshsinh"],
        ["canonical-solve", "--system", "coshsinh", "--v", "1", "--z", "1", "--t-grid", "0:1:3"],
        ["verify", "transfer-identities", "--model", "free", "--n", "100"],
        ["verify", "kernel-identities", "--model", "periodic", "--period-a", "1.0,1.05",
         "--period-b", "0.2,0.2", "--n", "200"],
        ["verify", "section5", "--v", "1", "--n", "400", "--grid", "-2:2:5"],
        ["verify", "appendix-roundtrip", "--seed", "7", "--n", "20"],
        ["verify", "thm25", "--n-list", "100,200", "--grid", "-2:2:5"],
    ])
    assert modules == []


def test_zeros_imports_scipy_linalg(tmp_path):
    modules = run_fresh(tmp_path, [["zeros", "--model", "free", "--n", "200", "--window", "5"]])
    assert "scipy.linalg" in modules


MAPPED_BLOCKS = """
import ctypes, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from cdscale.cli import main
class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in
                "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost".split()]
mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = MallInfo2
if sys.argv[3] == "main":
    main(["canonical-solve", "--system", "coshsinh", "--v", "1", "--z", "1", "--t-grid", "0:1:3",
          "--out", sys.argv[2]])
big = np.ones(20 << 17)  # 20 MiB, mapped; freeing it raises glibc's dynamic threshold
del big
before = mallinfo2().hblks
grid = np.ones(5 << 17)
print(mallinfo2().hblks - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc allocator")
def test_main_keeps_large_arrays_mapped(tmp_path):
    # after main, a 5 MiB array is mapped even once a larger mapped block was freed;
    # without main, glibc's dynamic threshold puts it on the heap
    counts = {}
    for mode in ("main", "bare"):
        done = subprocess.run([sys.executable, "-c", MAPPED_BLOCKS, str(SRC), str(tmp_path), mode],
                              capture_output=True, text=True, timeout=120)
        if "mallinfo2" in done.stderr:
            pytest.skip("no glibc mallinfo2")
        assert done.returncode == 0, done.stderr
        counts[mode] = int(done.stdout.split()[-1])
    assert counts == {"main": 1, "bare": 0}


@pytest.mark.parametrize("v", ["1", "3"])
def test_kernel_identities_n_dependent_model(tmp_path, v):
    # the Gauss rule must come from the coefficient family of the kernel
    assert main(["verify", "kernel-identities", "--model", "alternating-v", "--v", v,
                 "--n", "40", "--out", str(tmp_path)]) == 0


def test_readme_cli_examples_parse():
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    lines = re.sub(r"\\\n\s*", " ", block).splitlines()
    examples = [shlex.split(line)[1:] for line in lines if line.startswith("cdscale ")]
    assert len(examples) == 10
    for argv in examples:
        argv = _join_value_flags(argv)
        # main builds the named command's options alone; they parse as the full parser does
        assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv), argv


@pytest.mark.parametrize("argv", [
    ["kernel", "--model", "periodic", "--period-a", "1,2", "--grid", "-1:1:3", "--bgrid", "-2:2:5",
     "--reference", "sine", "--rho", "0.1", "--w", "0.3", "--re-f", "0.2", "--max-step", "1e-4",
     "--tol", "0.1", "--config", "c.txt"],
    ["diagnostics", "--model", "table", "--table", "t.csv", "--n", "9", "--x0", "0.5",
     "--bins", "7", "--candidate", "constant", "--h11", "1", "--h12", "0.1", "--h22", "2"],
    ["zeros", "--model", "free", "--n", "7", "--x0", "0.1", "--window", "3"],
    ["verify", "thm25", "--model", "alternating-v", "--v", "2", "--seed", "3", "--t-grid", "0:1:3",
     "--n-list", "10,20", "--rho", "0.2"],
    ["canonical-solve", "--system", "constant", "--h11", "1", "--h22", "1", "--z", "-1,-2"],
])
def test_one_command_parser_matches_the_full_parser(argv):
    argv = _join_value_flags(argv)
    assert build_parser(argv[0]).parse_args(argv) == build_parser().parse_args(argv)
    # an option that only another command has is still a usage error
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--seed", "1"] if argv[0] == "zeros" else ["--window", "1"]))
    assert exc.value.code == 2
