"""Write the seed-7 golden values that ``tests/test_golden.py`` compares against.

The commands are the pinned seed-7 set of ``tools/pinned_digests.py`` (48
subcarriers, 16 antennas, 4 trials, 10 frame steps, 5 offsets): ``design``,
``pattern``, ``sweep`` on all four axes and ``cdf`` on two axes. From their
artifacts ``extract`` keeps numbers only, in four categories of
``label -> value``:

- ``objective``: the solver objective of the slanted and stepped designs;
- ``gain``: a slice of every pattern heatmap, every 30th angle (15 deg apart)
  and every 4th subcarrier;
- ``capacity``: every sweep statistic and every CDF point, in bit/s;
- ``exact``: integers that must not move at all, the design assignments.

Raw phases and delays are left out: the solver can trade one bank for
another of equal objective.

    python3 tests/golden/generate_seed7.py            # rewrite seed7.json
    python3 tests/golden/generate_seed7.py OUT.json   # write elsewhere

The script imports the library from ``src/`` of its checkout.

Regenerating the golden file changes what every later run is held to, so it
is a commit of its own, with the largest change per artifact recorded.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("seed7.json")
PATTERN_ANGLE_STEP = 30
PATTERN_SUBCARRIER_STEP = 4


def _pinned():
    spec = importlib.util.spec_from_file_location("pinned_digests", ROOT / "tools" / "pinned_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_commands(out: Path) -> Path:
    """Run the pinned seed-7 set into ``out``; raise if a command fails."""
    failed = _pinned().run_all(out)
    if failed:
        raise RuntimeError(f"seed-7 commands failed: {', '.join(failed)}")
    return out


def _rows(path: Path):
    """The data rows of a CSV artifact, after its comment line and header."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    return list(csv.reader(lines[2:]))


def extract(out: Path) -> dict:
    """category -> {label: value} from the artifacts of ``run_commands``."""
    values = {"objective": {}, "gain": {}, "capacity": {}, "exact": {}}
    for path in sorted((out / "design").glob("design_*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if "solver_objective" in doc:
            values["objective"][f"design:{doc['kind']}"] = doc["solver_objective"]
            for u, band in enumerate(doc["anchor"]["assignment"]):
                values["exact"][f"design:{doc['kind']}:assignment:{u}"] = band
    for path in sorted((out / "pattern").glob("pattern_*.csv")):
        rows = _rows(path)
        thetas = sorted({float(r[0]) for r in rows})
        num_freqs = len(rows) // len(thetas)
        for ti in range(0, len(thetas), PATTERN_ANGLE_STEP):
            for k in range(0, num_freqs, PATTERN_SUBCARRIER_STEP):
                theta, _, gain = rows[ti * num_freqs + k]
                values["gain"][f"{path.stem}:{theta}:{k}"] = float(gain)
    for path in sorted(out.glob("sweep_*/sweep_*.csv")):
        for axis, axis_value, beam, statistic, value in _rows(path):
            values["capacity"][f"{path.stem}:{axis_value}:{beam}:{statistic}"] = float(value)
    for path in sorted(out.glob("cdf_*/cdf_*.csv")):
        seen = {}
        for beam, axis_value, capacity, _ in _rows(path):
            i = seen[beam, axis_value] = seen.get((beam, axis_value), -1) + 1
            values["capacity"][f"{path.stem}:{beam}:{axis_value}:{i}"] = float(capacity)
    return values


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: generate_seed7.py [OUT.json]", file=sys.stderr)
        return 2
    target = Path(argv[0]) if argv else GOLDEN
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        values = extract(run_commands(Path(tmp)))
    target.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {target}: " + ", ".join(f"{len(v)} {k}" for k, v in values.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
