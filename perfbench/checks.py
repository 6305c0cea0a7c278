"""Output checks: invariants on every seed, references at the default seed.

A sweep cell is summarised by its per-beam minimum capacity; a pattern
command by its heatmap CSVs. Each check appends a message to the unit's
``errors``; a unit with any message counts as failed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

# Relative deviation from the reference above which a unit counts as failed.
# Loose enough for a re-implemented solver that agrees to ~1e-6, tight
# enough that a solver landing on another optimum shows.
REFERENCE_TOLERANCE = 1e-3
# Slack of the invariants, as in the library's own tests.
MONOTONE_SLACK = 1e-9
DOMINANCE_SLACK = 1e-12
# Rows of each pattern CSV kept in the reference (every PATTERN_STRIDE-th).
PATTERN_STRIDE = 401
THETAS_DEG = np.arange(-90.0, 90.0 + 0.25, 0.5)  # the grid of ``slantbeam pattern``


def solver_errors(solves) -> list:
    """Each solver trace is finite and monotone and ends at most at K."""
    errors = []
    for k, report in solves:
        trace = np.asarray(report.objective_trace, dtype=float)
        if not np.all(np.isfinite(trace)):
            errors.append("solver objective not finite")
        elif np.any(np.diff(trace) < -MONOTONE_SLACK):
            errors.append("solver objective trace decreases")
        elif trace[-1] > k + MONOTONE_SLACK:
            errors.append(f"solver objective {trace[-1]!r} exceeds K={k}")
    return errors


def cell_errors(minima: dict) -> list:
    """Minima are positive and no beam beats the digital genie."""
    errors = [f"{b}: minimum capacity {v!r} not positive and finite"
              for b, v in minima.items() if not (np.isfinite(v) and v > 0)]
    top = minima.get("digital_genie")
    if top is not None:
        errors += [f"digital_genie {top!r} below {b} {v!r}" for b, v in minima.items()
                   if v * (1 - DOMINANCE_SLACK) > top]
    return errors


def cell_rel_err(minima: dict, ref: dict) -> float:
    return max(abs(minima[b] - ref[b]) / abs(ref[b]) for b in ref)


def scan_csv(path: Path) -> tuple[int, str]:
    """Data rows (lines after the two header lines) and SHA-256 of a CSV."""
    digest = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
            lines += block.count(b"\n")
    return lines - 2, digest.hexdigest()


def read_pattern_csv(path: Path, seed: int):
    """Parse one heatmap CSV into (theta, f, gain) columns, checking its header."""
    with open(path, "rb") as fh:
        first = fh.readline()
        header = fh.readline()
        if not first.startswith(f"# seed={seed} config=sha256:".encode()):
            raise ValueError(f"{path.name}: bad provenance line {first[:60]!r}")
        if header.strip() != b"theta_deg,f_hz,gain":
            raise ValueError(f"{path.name}: bad column header {header[:60]!r}")
        table = np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2)
    return table[:, 0], table[:, 1], table[:, 2]


def pattern_file_errors(path: Path, seed: int, arr, ref=None) -> tuple[list, float]:
    """Grid, gain range [0, N] and (given ``ref``) reference checks of one CSV.

    Returns the errors and the largest deviation from the reference sample,
    relative to the reference's peak gain (nulls make a plain relative error
    meaningless).
    """
    try:
        theta, freq, gains = read_pattern_csv(path, seed)
    except (OSError, ValueError) as exc:
        return [str(exc)], 0.0
    freqs = arr.subcarrier_centers()
    if gains.size != THETAS_DEG.size * freqs.size:
        return [f"{path.name}: {gains.size} rows, expected {THETAS_DEG.size * freqs.size}"], 0.0
    errors = []
    if not (np.array_equal(theta, np.repeat(THETAS_DEG, freqs.size))
            and np.array_equal(freq, np.tile(freqs, THETAS_DEG.size))):
        errors.append(f"{path.name}: angle/frequency grid differs")
    n = arr.num_antennas
    if not np.all(np.isfinite(gains)) or gains.min() < 0 or gains.max() > n * (1 + 1e-9):
        errors.append(f"{path.name}: gain outside [0, N={n}]")
    err = 0.0
    if ref is not None:
        sample = gains[::PATTERN_STRIDE]
        err = float(np.max(np.abs(sample - np.asarray(ref["gain"]))) / ref["peak_gain"])
        if not err <= REFERENCE_TOLERANCE:
            errors.append(f"{path.name}: gain deviates {err:.3g} (peak-relative) from reference")
    return errors, err


def pattern_reference(path: Path, seed: int) -> dict:
    _, _, gains = read_pattern_csv(path, seed)
    return {"peak_gain": float(gains.max()), "gain": [float(g) for g in gains[::PATTERN_STRIDE]]}
