"""``tools/artifact_drift.py`` on two small hand-made artifact trees."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_drift.py"
spec = importlib.util.spec_from_file_location("artifact_drift", TOOL)
artifact_drift = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_drift)

HEAD = "# seed=7 config=sha256:0123456789ab\n"


def write_tree(root: Path, gain: float = 2.0, capacity: float = 4.0e8, theta: str = "0.5"):
    (root / "pattern").mkdir(parents=True)
    (root / "sweep").mkdir()
    manifest = {"config": "[array]\nnum_antennas = 16\nspacing_wavelengths = 0.5\n"}
    (root / "pattern" / "run_manifest.json").write_text(json.dumps(manifest))
    (root / "pattern" / "pattern_rainbow.csv").write_text(
        f"{HEAD}theta_deg,f_hz,gain\n-0.5,59e9,16.0\n{theta},59e9,{gain!r}\n")
    (root / "sweep" / "sweep_offset_range.csv").write_text(
        f"{HEAD}axis,axis_value,beam,statistic,value_bps\n"
        f"offset_range,0.0,slanted,min,{capacity!r}\noffset_range,0.0,slanted,mean_min,5e8\n")
    (root / "sweep" / "run_manifest.json").write_text("{}\n")


def run(tmp_path, capsys, **change):
    write_tree(tmp_path / "parent")
    write_tree(tmp_path / "change", **change)
    code = artifact_drift.main([str(tmp_path / "parent"), str(tmp_path / "change")])
    out, err = capsys.readouterr()
    return code, out.splitlines(), err


def test_identical_trees(tmp_path, capsys):
    code, lines, _ = run(tmp_path, capsys)
    assert code == 0
    assert lines == [f"identical  {p}" for p in ("pattern/pattern_rainbow.csv",
                     "pattern/run_manifest.json", "sweep/run_manifest.json",
                     "sweep/sweep_offset_range.csv")]


def test_drift_of_capacities_relative_and_of_gains_relative_to_n(tmp_path, capsys):
    code, lines, _ = run(tmp_path, capsys, gain=2.0 + 16 * 3e-15, capacity=4.0e8 * (1 + 2e-13))
    assert code == 0
    drifts = {line.split()[-1]: float(line.split()[0]) for line in lines
              if not line.startswith("identical")}
    assert set(drifts) == {"pattern/pattern_rainbow.csv", "sweep/sweep_offset_range.csv"}
    assert drifts["pattern/pattern_rainbow.csv"] == pytest.approx(3e-15, rel=0.05)
    assert drifts["sweep/sweep_offset_range.csv"] == pytest.approx(2e-13, rel=0.05)
    assert "of N  pattern/pattern_rainbow.csv" in "\n".join(lines)


def test_changed_key_column_exits_1(tmp_path, capsys):
    code, lines, err = run(tmp_path, capsys, theta="0.75")
    assert code == 1 and lines == []
    assert "pattern/pattern_rainbow.csv: line 4: key columns differ" in err


def test_different_file_sets_exit_1(tmp_path, capsys):
    write_tree(tmp_path / "parent")
    write_tree(tmp_path / "change")
    (tmp_path / "change" / "sweep" / "extra.csv").write_text(HEAD)
    code = artifact_drift.main([str(tmp_path / "parent"), str(tmp_path / "change")])
    assert code == 1
    assert "file sets differ: sweep/extra.csv" in capsys.readouterr().err


def test_bad_arguments_exit_2(tmp_path, capsys):
    assert artifact_drift.main([str(tmp_path)]) == 2
    assert artifact_drift.main([str(tmp_path), str(tmp_path / "missing")]) == 2
