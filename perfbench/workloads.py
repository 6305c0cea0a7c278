"""The benchmark's workloads and the runner that times and checks their units.

Import only after ``run.cap_blas_threads`` and ``run.import_library``:
this module loads numpy and slantbeam.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import (
    REFERENCE_TOLERANCE,
    THETAS_DEG,
    cell_errors,
    cell_rel_err,
    pattern_file_errors,
    scan_csv,
    solver_errors,
)
from slantbeam import cli, config, montecarlo
from tracing import span

DEFAULT_SEED = 0

ANALOG = ("slanted", "stepped", "rainbow", "qpd")
ALL_BEAMS = ("slanted", "stepped", "rainbow", "qpd", "stepped_genie", "digital_genie")

# Overrides that shrink every workload for the smoke test.
SMOKE_SETS = (
    "array.num_subcarriers=24",
    "array.num_antennas=8",
    "sweep.offset_count=3",
    "frame.num_steps=4",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a seeded stream of units, timed one by one.

    A sweep unit is one cell, ``run_trial`` at one (axis value, trial id),
    exactly as ``run_cells`` would run it. Unit k of a run at seed s is
    trial k at value k mod len(values): every cell has a scenario of its
    own, and the values take turns. (``run_cells`` runs every trial id at
    every value, so its cells share scenarios across values.)

    A pattern unit is one ``slantbeam pattern`` command; unit r of a run at
    seed s uses seed s*1000 + r.

    The cost of a unit is heavy-tailed over scenarios (a slowly converging
    solve costs several times a typical one), so timings are medians over
    the units a run gets through, and a run gets through at least
    ``min_units`` of them.
    """

    name: str
    why: str
    command: str  # "sweep" or "pattern"
    full: bool  # full-scale defaults instead of the desk overlay
    beams: tuple
    sets: tuple = ()
    axis: str = None
    values: tuple = ()  # in the config's display units (degrees, deg/s)
    reference_units: int = 1  # units of the default seed compared on every run
    reference_beams: tuple = None
    min_units: int = 5  # a run measures at least this many, however long they take

    def stream(self, seed: int):
        """(seed, key) of unit 0, 1, 2, ... of a run at ``seed``."""
        for k in itertools.count():
            if self.command == "pattern":
                yield seed * 1000 + k, ()
            else:
                yield seed, (self.values[k % len(self.values)], k)

    def config(self, sets: tuple):
        return config.parse_config(overrides=self.sets + sets, desk=not self.full)


WORKLOADS = {
    "genie_offset": Workload(
        name="genie_offset",
        why="stepped genie cold-solves JPTA at every offset: solver and genie batching show here",
        command="sweep",
        full=False,
        beams=ALL_BEAMS,
        # the desk overlay's 25 offsets make a cell 3.4 s, too few cells per
        # run for a steady median
        sets=("sweep.offset_count=9",),
        axis="offset_range",
        values=(0.0, 10.0, 20.0),
        reference_units=3,
    ),
    "trajectory_full": Workload(
        name="trajectory_full",
        why="full-scale trajectories without the genie: jpta and link.min_capacity split the time",
        command="sweep",
        full=True,
        beams=("slanted", "stepped", "rainbow", "qpd", "digital_genie"),
        axis="mean_velocity",
        values=(0.0, 40.0, 80.0),
        reference_units=3,
        # about one cell in ten converges slowly and takes 5-10 times as long
        min_units=12,
    ),
    "pattern_full": Workload(
        name="pattern_full",
        why="heatmaps over angle written as 1.7M CSV rows: output formatting dominates, not sweeps",
        command="pattern",
        full=True,
        beams=ANALOG,
        reference_beams=("slanted",),
        min_units=4,
    ),
}


def workload_sizes(wl: Workload, cfg) -> dict:
    """Input sizes of one unit, the base of every per-unit figure."""
    sizes = {
        "K": cfg.get("array", "num_subcarriers"),
        "N": cfg.get("array", "num_antennas"),
        "U": cfg.get("mobility", "num_users"),
        "beams": list(wl.beams),
    }
    if wl.command == "sweep":
        trajectory = wl.axis == "mean_velocity"
        sizes.update(axis=wl.axis, values=list(wl.values),
                     points_per_cell=cfg.get("frame", "num_steps") if trajectory
                     else cfg.get("sweep", "offset_count"))
    else:
        sizes.update(points_per_cell=cfg.get("sweep", "offset_count"), theta_grid=THETAS_DEG.size,
                     csv_rows_per_command=THETAS_DEG.size * sizes["K"] * len(wl.beams))
    return sizes


@dataclass
class Unit:
    """One timed and checked piece of work: a sweep cell or a pattern command."""

    seed: int
    key: tuple
    seconds: float = 0.0
    output: object = None  # per-beam minima, or the CSV digests
    errors: list = field(default_factory=list)
    rel_err: float = 0.0  # deviation from the reference, where one applies
    out: Path = None  # pattern: the command's output directory until dropped


class Runner:
    """Runs units of one workload; outputs get the cheap checks here."""

    def __init__(self, wl: Workload, sets: tuple, work: Path, reference: dict, solve_log):
        self.wl, self.sets, self.work = wl, sets, work
        self.reference = reference
        self.solve_log = solve_log
        cfg = wl.config(sets)
        self.arr = cfg.array()
        self._dirs = 0
        if wl.command == "sweep":
            sweep = cfg.sweep(master_seed=0, axis=wl.axis, values=wl.values, beams=wl.beams)
            base = cfg.base_trial(beams=sweep.beams)
            self.configs = {v: montecarlo.apply_axis(base, sweep.axis, x)
                            for v, x in zip(wl.values, sweep.values)}

    def run(self, seed, key, tracer=None, beams=None) -> Unit:
        unit = Unit(seed=seed, key=key)
        if self.wl.command == "sweep":
            self._cell(unit, tracer)
        else:
            self._pattern(unit, tracer, beams or self.wl.beams)
        if self.solve_log is not None:
            unit.errors += solver_errors(self.solve_log.take())
        return unit

    def _cell(self, unit: Unit, tracer) -> None:
        """One cell through montecarlo.run_trial."""
        value, trial = unit.key
        if tracer is not None:
            tracer.cell = f"{value:g}/{trial}"
        c0 = time.perf_counter()
        try:
            with span(tracer, "montecarlo.run_trial"):
                result = montecarlo.run_trial(self.configs[value], unit.seed, trial)
        except Exception as exc:  # a failing cell is counted, not fatal
            result = None
            unit.errors.append(f"{type(exc).__name__}: {exc}")
        unit.seconds = time.perf_counter() - c0
        if tracer is not None:
            tracer.cell = None
        if result is None:
            return
        unit.output = {b: result.min_capacity(b) for b in self.wl.beams}
        unit.errors += cell_errors(unit.output)
        ref = self.reference.get(f"{value:g}/{trial}") if unit.seed == DEFAULT_SEED else None
        if ref is not None:
            unit.rel_err = cell_rel_err(unit.output, ref)
            if not unit.rel_err <= REFERENCE_TOLERANCE:
                unit.errors.append(f"deviates {unit.rel_err:.3g} from reference")

    def _pattern(self, unit: Unit, tracer, beams) -> None:
        """One ``slantbeam pattern`` command into a fresh directory. Its files
        are counted and hashed here; ``check_pattern`` parses them in full."""
        out = unit.out = self.work / f"cmd-{self._dirs}"
        self._dirs += 1
        out.mkdir(parents=True)
        argv = ["pattern", "--seed", str(unit.seed), "--out", str(out), "--beams", ",".join(beams)]
        if self.wl.full:
            argv.append("--full")
        for item in self.wl.sets + self.sets:
            argv += ["--set", item]
        if tracer is not None:
            tracer.cell = str(unit.seed)
        c0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), span(tracer, "cli.main"):
                code = cli.main(argv)
            if code != 0:
                unit.errors.append(f"cli.main returned {code}")
        except Exception as exc:  # a failing command is counted, not fatal
            unit.errors.append(f"{type(exc).__name__}: {exc}")
        unit.seconds = time.perf_counter() - c0
        if tracer is not None:
            tracer.cell = None
        rows = THETAS_DEG.size * self.arr.num_subcarriers
        digests = []
        for b in beams:
            path = out / f"pattern_{b}.csv"
            if not path.is_file():
                unit.errors.append(f"{path.name} missing")
                continue
            found, digest = scan_csv(path)
            if found != rows:
                unit.errors.append(f"{path.name}: {found} rows, expected {rows}")
            digests.append(digest)
        unit.output = tuple(digests)

    def check_pattern(self, unit: Unit) -> None:
        """Full parse of a command's CSVs (grid, gain range, reference), then
        delete them."""
        for path in sorted(unit.out.glob("pattern_*.csv")):
            beam = path.stem[len("pattern_"):]
            ref = self.reference.get(beam) if unit.seed == DEFAULT_SEED else None
            errors, err = pattern_file_errors(path, unit.seed, self.arr, ref)
            unit.errors += errors
            unit.rel_err = max(unit.rel_err, err)
        self.drop(unit)

    def drop(self, unit: Unit) -> None:
        if unit.out is not None:
            shutil.rmtree(unit.out, ignore_errors=True)
            unit.out = None
