"""Run the pinned seed-7 command set and print the sha256 of every artifact.

Eight commands run at a small scale (48 subcarriers, 16 antennas, 4 trials,
10 frame steps, 5 offsets): ``design``, ``pattern``, ``sweep`` on each of the
four axes, and ``cdf`` on ``offset_range`` and ``mean_velocity``. Each writes
into its own subdirectory, and the output is one ``<sha256>  <relative path>``
line per file, manifests included, sorted by path. Running it on two
checkouts and diffing the output shows whether a change kept every artifact
byte-identical. The digests hold for one numpy/BLAS build only, because the
JPTA solver can amplify last-bit rounding differences.

    python3 tools/pinned_digests.py            # artifacts in a temporary directory
    python3 tools/pinned_digests.py OUT_DIR    # keep the artifacts in OUT_DIR

Every file under OUT_DIR is listed, so OUT_DIR must be new or empty: the exit
code is 2 if it holds anything, since a file left by an earlier run would be
listed as if this run wrote it.

The library is imported from ``src/`` of the checkout this script sits in.
The CLI's ``wrote ...`` lines go to stderr. The exit code is 1 if any
command fails, and the failing commands are named on stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCALE = [
    "--seed", "7",
    "--set", "array.num_subcarriers=48",
    "--set", "array.num_antennas=16",
    "--set", "sweep.trials=4",
    "--set", "frame.num_steps=10",
    "--set", "sweep.offset_count=5",
]

# subdirectory -> CLI arguments before SCALE
COMMANDS = {
    "design": ["design"],
    "pattern": ["pattern"],
    "sweep_offset_range": ["sweep", "--axis", "offset_range", "--values", "0,10,20"],
    "sweep_mean_velocity": ["sweep", "--axis", "mean_velocity", "--values", "0,40,80"],
    "sweep_num_antennas": ["sweep", "--axis", "num_antennas", "--values", "8,16,32"],
    "sweep_num_users": ["sweep", "--axis", "num_users", "--values", "2,3,4"],
    "cdf_offset_range": ["cdf", "--axis", "offset_range", "--values", "0,10,20"],
    "cdf_mean_velocity": ["cdf", "--axis", "mean_velocity", "--values", "0,40,80"],
}


def run_all(out: Path) -> list:
    """Run every command into ``out/<name>``; return the names that failed."""
    from slantbeam.cli import main

    failed = []
    for name, args in COMMANDS.items():
        with contextlib.redirect_stdout(sys.stderr):
            code = main([*args, *SCALE, "--out", str(out / name)])
        if code != 0:
            failed.append(f"{name} (exit {code})")
    return failed


def report(out: Path) -> int:
    """Run the set into ``out``, print the digests, return the exit code."""
    failed = run_all(out)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}")
    if failed:
        print(f"pinned_digests: failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: pinned_digests.py [OUT_DIR]", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if not argv:
        with tempfile.TemporaryDirectory() as tmp:
            return report(Path(tmp))
    out = Path(argv[0])
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        print(f"pinned_digests: {out} is not an empty directory", file=sys.stderr)
        return 2
    return report(out)


if __name__ == "__main__":
    sys.exit(main())
