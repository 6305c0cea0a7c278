"""The names and parameters of slantbeam that the benchmark in ``perfbench/``
patches or calls.

``perfbench/tracing.py`` installs each ``WRAPS`` entry as a wrapper on the
attribute ``<module>.<name>`` of ``slantbeam.<module>``, and a missing one
turns the metrics that depend on it into nulls. Some of those attributes are
imports that only the wrapper reaches, each marked ``# noqa: F401  perfbench
wraps <module>.<name>``. ``perfbench/run.py`` and ``perfbench/workloads.py``
call ``RunConfig.sweep`` and ``RunConfig.base_trial`` with keyword arguments.
The benchmark changes only on its own, so these tests fail when a library
change removes a name it still reaches.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

from slantbeam.config import RunConfig

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

WRAPPED = {(module, attr) for module, attr, _, _ in tracing.WRAPS}

WRAP_IMPORT = re.compile(
    r"^from \.\w+ import (\w+)  # noqa: F401  perfbench wraps (\w+)\.(\w+)$")


def wrap_imports():
    """(file stem, imported name, module and name of the comment) of every
    source line that mentions ``perfbench wraps``; None for the parts of a
    line of another form."""
    found = []
    for path in sorted((ROOT / "src" / "slantbeam").glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if "perfbench wraps" in line:
                match = WRAP_IMPORT.match(line)
                found.append((path.stem, *(match.groups() if match else (None, None, None))))
    return found


@pytest.mark.parametrize("module, attr", sorted(WRAPPED))
def test_every_wrapped_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"slantbeam.{module}"), attr, None))


def test_every_wrap_only_import_sits_in_its_module_and_is_wrapped():
    found = wrap_imports()
    assert found
    for stem, name, module, attr in found:
        assert (module, attr) == (stem, name)
        assert (module, attr) in WRAPPED


@pytest.mark.parametrize("method, names", [
    (RunConfig.sweep, ("master_seed", "axis", "values", "beams")),
    (RunConfig.base_trial, ("beams",)),
])
def test_run_config_takes_the_keywords_perfbench_passes(method, names):
    assert set(names) <= set(inspect.signature(method).parameters)
