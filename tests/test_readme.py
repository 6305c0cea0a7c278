"""The README's "Library use" example runs and prints what it promises."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    match = re.search(r"^## Library use\n.*?^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert match, "README has no python block under '## Library use'"
    return match.group(1)


def test_library_use_example_prints_range_and_capacity(capsys):
    exec(compile(library_use_block(), str(README), "exec"), {})
    aod_range_deg, capacity = capsys.readouterr().out.split()
    assert aod_range_deg.startswith("12.729")
    assert math.isfinite(float(capacity)) and float(capacity) > 0
