import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def test_source_without_cdscale_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert compare_outputs.main([str(tmp_path), str(out)]) == 2
    assert "no cdscale package under" in capsys.readouterr().err
    assert not out.exists()


def test_existing_output_directory_is_a_usage_error(tmp_path, capsys):
    assert compare_outputs.main([str(ROOT / "src"), str(tmp_path)]) == 2
    assert f"{tmp_path} exists" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
