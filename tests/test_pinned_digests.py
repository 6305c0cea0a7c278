"""``tools/pinned_digests.py`` refuses an OUT_DIR that already holds files."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pinned_digests.py"
spec = importlib.util.spec_from_file_location("pinned_digests", TOOL)
pinned_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pinned_digests)


@pytest.mark.parametrize("stale", ["design/design_old.json", "notes.txt"])
def test_out_dir_that_is_not_empty_is_refused(tmp_path, capsys, monkeypatch, stale):
    monkeypatch.setattr(pinned_digests, "run_all", lambda out: pytest.fail("ran the commands"))
    (tmp_path / stale).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / stale).write_text("{}\n")
    assert pinned_digests.main([str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{tmp_path} is not an empty directory" in captured.err


def test_out_dir_that_is_a_file_is_refused(tmp_path, capsys):
    path = tmp_path / "digests.txt"
    path.write_text("")
    assert pinned_digests.main([str(path)]) == 2
    assert f"{path} is not an empty directory" in capsys.readouterr().err
