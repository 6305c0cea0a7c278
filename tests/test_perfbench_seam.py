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

import numpy as np
import pytest

from slantbeam import designs
from slantbeam.arrays import ArrayConfig
from slantbeam.config import RunConfig
from slantbeam.link import LinkBudget, capacity_records

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


def test_stepped_genie_solves_through_the_module_global_once_per_point(monkeypatch):
    # the benchmark's designs.genie_stepped span and genie_stepped_calls count
    # the policy's calls of the wrapped module attribute, one per evaluation point
    calls = []
    solve = designs.genie_stepped

    def counted(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(designs, "genie_stepped", counted)
    cfg = ArrayConfig(16, 0.5, 60e9, 2e9, 48)
    aods = np.deg2rad([[-30.0, 0.0, 30.0], [-25.0, 5.0, 35.0], [-20.0, 10.0, 40.0]])
    capacity_records({"stepped_genie": designs.SteppedGeniePolicy(cfg)}, aods, cfg,
                     LinkBudget(), assignment=[2, 0, 1])
    assert len(calls) == aods.shape[0]
