import csv
import json
import math

import pytest

from cdscale.cli import main


@pytest.fixture(autouse=True)
def no_env_out(monkeypatch):
    monkeypatch.delenv("CDSCALE_OUT", raising=False)


def test_kernel_single_cell(tmp_path):
    code = main(["kernel", "--model", "free", "--n", "1", "--x0", "0",
                 "--grid", "0:0:1", "--out", str(tmp_path)])
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "kernel.csv")))
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
    zs = [float(r["scaled_zero"]) for r in csv.DictReader(open(tmp_path / "zeros.csv"))]
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
    rows = list(csv.DictReader(open(out / "kernel.csv")))
    assert len(rows) == 81  # 9 x 9 grid from the config file
    out2 = tmp_path / "o2"
    code = main(["kernel", "--model", "free", "--config", str(cfg),
                 "--grid", "0:1:2", "--out", str(out2)])
    assert code == 0
    rows = list(csv.DictReader(open(out2 / "kernel.csv")))
    assert len(rows) == 4  # flag wins over config


def test_canonical_solve_constant(tmp_path):
    code = main(["canonical-solve", "--system", "constant", "--h11", "0.5",
                 "--h22", "0.5", "--z", "1.0", "--t-grid", "0:1:5",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "solution.csv")))
    assert len(rows) == 5
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
])
def test_usage_errors_exit_2(tmp_path, argv):
    table = tmp_path / "short.csv"
    table.write_text("j,a,b\n0,1.0,0.0\n1,1.0,0.0\n")
    argv = [arg.format(table=table) for arg in argv] + ["--out", str(tmp_path)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects unknown flags itself
        code = exc.code
    assert code == 2


def test_thm25_off_center_passes(tmp_path):
    assert main(["verify", "thm25", "--x0", "0.3", "--n-list", "500,1000,2000",
                 "--grid", "-5:5:21", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv, output", [
    (["kernel", "--model", "free", "--x0", "3", "--n", "4000", "--grid", "-5:5:5"], "kernel.csv"),
    (["diagnostics", "--model", "free", "--x0", "3", "--n", "4000"], "diagnostics.json"),
])
def test_non_finite_results_exit_1(tmp_path, capsys, argv, output):
    # off the bulk the polynomials overflow; no output may carry NaN
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert "numerical check failed" in capsys.readouterr().err
    assert not (tmp_path / output).exists()
