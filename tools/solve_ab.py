#!/usr/bin/env python3
"""Time two source trees' JPTA solves on the same inputs, interleaved per solve.

    python3 tools/solve_ab.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts, for
example ``git archive`` of each commit unpacked into a fresh directory. Each
tree's ``slantbeam`` package is imported under a name of its own, so both run
in this one process, with the same numpy and one BLAS thread.

The solves are every ``jpta_solve`` call of the fixed seeded cells in
``CELLS``, captured by running the cells on the parent tree with
``designs.jpta_solve`` wrapped: desk-scale ``offset_range`` cells with the
stepped genie, which cold-solves at every offset, once on the default
256-point delay grid and once on a 16-point grid whose refinement splits the
band into several moment blocks with a ragged last one, and full-scale
``mean_velocity`` cells. Every captured solve then runs on both trees,
``REPEATS`` (three) times per side; the side that runs first alternates from
solve to solve and from repeat to repeat, so a drift in machine load favours
neither, and each side keeps its fastest time.

The output has one line per cell set and one for all of them: the solve
count, each side's total time, the change of the total and the median of the
per-solve ratios change/parent. A report differs when its objective trace,
delays, phases or convergence flag differ in any bit, or its final alignment
terms (``SolverReport.alignment``) do where both trees' reports carry them, so
a tree from before that field compares on the rest; each difference is
named on stderr, and a drift line before the last line gives the largest
relative change of the final objective and the number of solves whose
iteration count or convergence flag changed. The last line reads
``bit-identical: N of M solves``.

Exit status: 0 when every report is bit-identical; 1 when one differs; 2 on
bad arguments.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

MASTER_SEED = 1
REPEATS = 3

# name -> (desk scale, config overrides, trial ids); every cell runs its one
# sweep value
CELLS = {
    "desk offset_range=20 deg, stepped genie": (
        True, ("sweep.axis=offset_range", "sweep.values=20"), (0, 1, 2, 3)),
    # 16 grid points: at K=240 the refinement's moment expansion splits the
    # band into 7 blocks of 35, the last one zero-padded
    "desk offset_range=10 deg, 16-point grid": (
        True, ("sweep.axis=offset_range", "sweep.values=10", "design.delay_search_resolution=16",
               "sweep.beams=slanted,stepped,stepped_genie"), (0, 1)),
    "full mean_velocity=40 deg/s": (
        False, ("sweep.axis=mean_velocity", "sweep.values=40", "sweep.beams=slanted,stepped"),
        tuple(range(8))),
}


def load(src: Path, name: str):
    """The ``slantbeam`` package under ``src``, imported as ``name``, with the
    submodules this tool reads bound as its attributes (a package whose
    ``__init__`` imports none of them binds none)."""
    init = src / "slantbeam" / "__init__.py"
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("arrays", "config", "designs", "jpta", "montecarlo"):
        importlib.import_module(f"{name}.{module}")
    return package


def capture(pkg, desk: bool, overrides: tuple, trials: tuple) -> list:
    """(directions, ArrayConfig fields, SolverOptions fields or None) of every
    solve that the cell's trials make on ``pkg``."""
    solves = []
    solve = pkg.designs.jpta_solve

    def record(profile, opts=None):
        solves.append((profile.directions.copy(), dataclasses.asdict(profile.cfg),
                       None if opts is None else dataclasses.asdict(opts)))
        return solve(profile, opts)

    cfg = pkg.config.parse_config(overrides=list(overrides), desk=desk)
    sweep = cfg.sweep(master_seed=MASTER_SEED)
    ((_, config),) = pkg.montecarlo.sweep_cells(sweep, cfg.base_trial())
    pkg.designs.jpta_solve = record
    try:
        for t in trials:
            pkg.montecarlo.run_trial(config, MASTER_SEED, t)
    finally:
        pkg.designs.jpta_solve = solve
    return solves


def inputs(pkg, solve):
    """The captured solve as ``pkg``'s (profile, options)."""
    directions, array, opts = solve
    profile = pkg.jpta.TargetProfile(directions, pkg.arrays.ArrayConfig(**array))
    return profile, None if opts is None else pkg.jpta.SolverOptions(**opts)


def fingerprint(report) -> dict:
    """The report's fields as bytes, so that equal means bit-identical; the
    alignment terms only where the report carries them."""
    out = {"trace": report.objective_trace.tobytes(), "delays": report.weights.delays.tobytes(),
           "phases": report.weights.phases.tobytes(), "converged": report.converged}
    if hasattr(report, "alignment"):
        out["alignment"] = report.alignment.tobytes()
    return out


def differing(parent: dict, change: dict) -> list:
    """The fingerprint fields that both sides carry and that differ."""
    return [field for field in parent if field in change and parent[field] != change[field]]


def time_pair(sides, solve, first: int) -> tuple:
    """Fastest of ``REPEATS`` times per side, the side that runs first
    alternating from ``first``; returns (times, reports)."""
    times = [float("inf")] * 2
    reports = [None, None]
    for r in range(REPEATS):
        for s in ((first + r) % 2, (first + r + 1) % 2):
            pkg = sides[s]
            profile, opts = inputs(pkg, solve)
            t0 = time.perf_counter()
            reports[s] = pkg.jpta.jpta_solve(profile, opts)
            times[s] = min(times[s], time.perf_counter() - t0)
    return times, reports


def summary(name: str, times: list) -> str:
    parent = sum(t[0] for t in times)
    change = sum(t[1] for t in times)
    median = statistics.median(t[1] / t[0] for t in times)
    return (f"{name:42s} {len(times):6d} {parent:9.3f} {change:9.3f} "
            f"{change / parent - 1:+8.1%} {median - 1:+8.1%}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    srcs = [Path(a) for a in argv]
    if len(srcs) != 2 or not all((s / "slantbeam" / "__init__.py").is_file() for s in srcs):
        print("usage: solve_ab.py PARENT_SRC CHANGE_SRC (each a src directory holding slantbeam/)",
              file=sys.stderr)
        return 2
    sides = (load(srcs[0], "_solve_ab_parent"), load(srcs[1], "_solve_ab_change"))
    print(f"{'cells':42s} {'solves':>6s} {'parent_s':>9s} {'change_s':>9s} {'total':>8s} "
          f"{'median':>8s}")
    every, differ, drift, moved = [], 0, 0.0, 0
    for name, (desk, overrides, trials) in CELLS.items():
        times = []
        for i, solve in enumerate(capture(sides[0], desk, overrides, trials)):
            pair, reports = time_pair(sides, solve, i % 2)
            times.append(pair)
            diff = differing(*(fingerprint(r) for r in reports))
            if diff:
                differ += 1
                print(f"solve_ab: {name}: solve {i} differs in {', '.join(diff)}", file=sys.stderr)
                old, new = reports
                drift = max(drift, abs(new.objective - old.objective) / abs(old.objective))
                moved += (new.iterations, new.converged) != (old.iterations, old.converged)
        print(summary(name, times))
        every += times
    print(summary("all", every))
    if differ:
        print(f"drift: objective changed by at most {drift:.3g} relative; iteration count or "
              f"converged flag changed in {moved} of {len(every)} solves")
    print(f"bit-identical: {len(every) - differ} of {len(every)} solves")
    return 1 if differ else 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.exit(main())
