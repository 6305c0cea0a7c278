#!/usr/bin/env python3
"""Print how far every artifact moved between two ``tools/pinned_digests.py`` trees.

    python3 tools/pinned_digests.py PARENT_OUT     # run in the parent checkout
    python3 tools/pinned_digests.py CHANGE_OUT     # run in the changed checkout
    python3 tools/artifact_drift.py PARENT_OUT CHANGE_OUT

Both trees must hold the same files. Every CSV has one value column: ``gain``
in the pattern heatmaps, the one column ending in ``_bps`` in the capacity
CSVs. Its other columns are keys, and they, the comment line and the header
must match as text, row for row. The output is one line per file, sorted by
path: ``identical`` when the bytes match, else for a CSV the largest drift of
its value column and for any other file ``differs``. Capacities drift
relative to the parent's value, |c - p| / |p|. Pattern gains drift relative
to N, the array size in the ``run_manifest.json`` next to the CSV (its
``[array] num_antennas``), since a gain lies in [0, N].

Exit status: 0 when the file sets and every CSV's keys match; 1 otherwise,
with the first mismatch on stderr; 2 on bad arguments.
"""

from __future__ import annotations

import configparser
import json
import sys
from pathlib import Path


class Mismatch(ValueError):
    pass


def files(root: Path) -> list:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def value_column(header: str) -> int:
    hits = [i for i, name in enumerate(header.split(",")) if name == "gain" or name.endswith("_bps")]
    if len(hits) != 1:
        raise Mismatch(f"header {header!r} has no single value column")
    return hits[0]


def num_antennas(manifest: Path) -> int:
    """``[array] num_antennas`` of the config a run's manifest records."""
    cfg = configparser.ConfigParser()
    try:
        cfg.read_string(json.loads(manifest.read_text(encoding="utf-8"))["config"])
        return cfg.getint("array", "num_antennas")
    except (OSError, KeyError, ValueError, configparser.Error) as exc:
        raise Mismatch(f"no [array] num_antennas in {manifest}: {exc!r}") from exc


def csv_drift(parent: Path, change: Path, scale=None) -> float:
    """Largest |c - p| of the value column over |p| (``scale`` None) or over
    ``scale``; raises Mismatch when the header lines, row count or keys differ."""
    old = parent.read_text(encoding="utf-8").splitlines()
    new = change.read_text(encoding="utf-8").splitlines()
    if old[:2] != new[:2]:
        raise Mismatch("comment or header lines differ")
    if len(old) != len(new):
        raise Mismatch(f"{len(old) - 2} rows against {len(new) - 2}")
    col = value_column(old[1])
    width = old[1].count(",") + 1
    worst = 0.0
    for line, (a, b) in enumerate(zip(old[2:], new[2:]), start=3):
        a, b = a.split(","), b.split(",")
        if len(a) != width or a[:col] + a[col + 1:] != b[:col] + b[col + 1:]:
            raise Mismatch(f"line {line}: key columns differ")
        p, c = float(a[col]), float(b[col])
        if p != c:
            worst = max(worst, abs(c - p) / ((abs(p) or abs(c)) if scale is None else scale))
    return worst


def report(parent_root: Path, change_root: Path) -> list:
    """One output line per file; raises Mismatch naming the file at fault."""
    names = files(parent_root)
    if names != files(change_root):
        only = sorted(set(names) ^ set(files(change_root)))
        raise Mismatch(f"file sets differ: {', '.join(only)}")
    lines = []
    for name in names:
        parent, change = parent_root / name, change_root / name
        if parent.read_bytes() == change.read_bytes():
            lines.append(f"identical  {name}")
        elif name.endswith(".csv"):
            gains = Path(name).name.startswith("pattern_")
            try:
                scale = num_antennas(parent.parent / "run_manifest.json") if gains else None
                drift = csv_drift(parent, change, scale)
            except Mismatch as exc:
                raise Mismatch(f"{name}: {exc}") from exc
            lines.append(f"{drift:.2e}{' of N' if gains else ' rel '}  {name}")
        else:
            lines.append(f"differs  {name}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(Path(a).is_dir() for a in argv):
        print("usage: artifact_drift.py PARENT_OUT CHANGE_OUT", file=sys.stderr)
        return 2
    try:
        lines = report(Path(argv[0]), Path(argv[1]))
    except Mismatch as exc:
        print(f"artifact_drift: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
