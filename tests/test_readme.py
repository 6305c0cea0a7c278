"""The README's "Library use" example runs and prints what it promises, and its
"Configuration" block lists the defaults."""

import math
import re
from pathlib import Path

from slantbeam.config import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(heading: str, language: str) -> str:
    pattern = rf"^## {heading}\n.*?^```{language}\n(.*?)^```"
    match = re.search(pattern, README.read_text(), re.M | re.S)
    assert match, f"README has no {language} block under '## {heading}'"
    return match.group(1)


def test_library_use_example_prints_range_and_capacity(capsys):
    exec(compile(fenced_block("Library use", "python"), str(README), "exec"), {})
    aod_range_deg, capacity = capsys.readouterr().out.split()
    assert aod_range_deg.startswith("12.729")
    assert math.isfinite(float(capacity)) and float(capacity) > 0


def test_configuration_block_parses_to_the_defaults(tmp_path):
    path = tmp_path / "readme.ini"
    path.write_text(fenced_block("Configuration", "ini"), encoding="utf-8")
    assert parse_config(path=str(path)) == parse_config()
