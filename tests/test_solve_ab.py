"""``tools/solve_ab.py`` times two trees' solves on one captured set and
flags any bit that differs."""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "solve_ab.py"
spec = importlib.util.spec_from_file_location("solve_ab", TOOL)
solve_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(solve_ab)

# one small desk cell with the stepped genie: a handful of solves
SMALL = {"small offset cell": (True, (
    "sweep.axis=offset_range", "sweep.values=20", "array.num_subcarriers=24",
    "array.num_antennas=8", "sweep.offset_count=3", "sweep.beams=slanted,stepped,stepped_genie",
), (0,))}


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(solve_ab, "CELLS", SMALL)
    monkeypatch.setattr(solve_ab, "REPEATS", 1)


def test_same_tree_is_bit_identical(small, capsys):
    src = ROOT / "src"
    assert solve_ab.main([str(src), str(src)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("small offset cell")
    assert out[-1] == "bit-identical: 5 of 5 solves"
    assert not any(line.startswith("drift: ") for line in out)


def test_changed_solver_is_flagged(small, capsys, tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "slantbeam", changed / "slantbeam",
                    ignore=shutil.ignore_patterns("__pycache__"))
    jpta = changed / "slantbeam" / "jpta.py"
    jpta.write_text(jpta.read_text().replace("NEWTON_STEPS = 5", "NEWTON_STEPS = 1"))
    assert solve_ab.main([str(ROOT / "src"), str(changed)]) == 1
    captured = capsys.readouterr()
    assert "solve_ab: small offset cell: solve 0 differs in trace, delays" in captured.err
    out = captured.out.splitlines()
    assert out[-1].startswith("bit-identical: ")
    assert re.fullmatch(r"drift: objective changed by at most \S+ relative; iteration count or "
                        r"converged flag changed in \d+ of 5 solves", out[-2])


@pytest.mark.parametrize("argv", [[], ["src"], ["src", "tools"]])
def test_bad_arguments_are_refused(argv, capsys):
    assert solve_ab.main([str(ROOT / a) for a in argv]) == 2
    assert "usage: solve_ab.py PARENT_SRC CHANGE_SRC" in capsys.readouterr().err
