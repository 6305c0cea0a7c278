"""Seeded Monte Carlo harness: trials and parameter sweeps.

Every trial derives its own random stream from (master_seed, trial_id), so
results never depend on execution order or on how trials are split across
worker processes. Within a trial all beam designs see the identical scenario,
sub-band assignment, and evaluation points; comparisons between beams are
therefore paired.

A trial runs in two stages: ``design_trial`` samples the scenario and builds
every requested beam (a BeamDesign or a genie policy), and ``run_trial`` scores
each by ``link.capacity_records``, an analog design as a ``FixedBeamPolicy``.

``run_sweep`` runs every (axis value, trial) cell of a sweep. Its ``SweepResult``
holds the sweep and each cell's TrialResult, and ``minima(beam)`` folds them.

A trial's ``mode`` field picks one of two evaluation modes. In ``offset`` mode
the designed beams are probed over a grid of ``offset_count`` joint pointing
offsets in [-max_offset, max_offset] around the estimated directions (the grid
plays the role of the AoD error, so the true directions coincide with the
estimates). In ``trajectory`` mode the sampled kinematics are rolled forward
and capacity is measured at each scheduling step; the offset fields are unused.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arrays import ArrayConfig, _check_count, _set_float_tuple, _set_floats
from .designs import (
    BEAM_KINDS,
    BeamDesign,
    DigitalGeniePolicy,
    FixedBeamPolicy,
    SteppedGeniePolicy,
    design_qpd,
    design_rainbow,
    design_slanted,
    design_slanted_at,
    design_stepped,
)
from .jpta import SolverOptions
from .link import LinkBudget, capacity_records, offset_grid
from .link import min_capacity  # noqa: F401  perfbench wraps montecarlo.min_capacity
from .mobility import (
    AnchorSpec,
    FrameTiming,
    ScenarioConfig,
    coverage_halfwidth,
    sample_scenario,
    true_aod,
)

SWEEP_AXES = ("offset_range", "num_antennas", "num_users", "mean_velocity")

# axes whose values are angles (rad) or angular speeds (rad/s), with the unit
# they are given and reported in
DEGREE_AXES = {"offset_range": "deg", "mean_velocity": "deg/s"}

EVAL_MODES = ("offset", "trajectory")


def _set_beams(obj) -> tuple:
    """Store field ``beams`` of the frozen dataclass ``obj`` back as a tuple and return it;
    a ValueError that starts with ``beams`` for a bare string."""
    if isinstance(obj.beams, str):
        raise ValueError(f"beams must be a sequence of beam kinds, got the string {obj.beams!r}")
    object.__setattr__(obj, "beams", tuple(obj.beams))
    return obj.beams


@dataclass(frozen=True)
class TrialConfig:
    """Everything a trial needs besides its random stream, the evaluation
    ``mode`` and its offset grid included (see the module docstring)."""

    array: ArrayConfig
    scenario: ScenarioConfig = ScenarioConfig()
    timing: FrameTiming = FrameTiming(0.16, 100)
    budget: LinkBudget = LinkBudget()
    mode: str = "offset"
    max_offset: float = np.deg2rad(20.0)
    offset_count: int = 25
    beams: tuple = BEAM_KINDS
    coverage_p: float = 0.97
    range_override: float = None
    qpd_peak: float = np.pi
    solver: SolverOptions = None  # None: jpta_solve's defaults
    channel_gains: tuple = None

    def __post_init__(self):
        if self.mode not in EVAL_MODES:
            raise ValueError(f"mode must be one of {EVAL_MODES}, got {self.mode!r}")
        _set_floats(self, "non-negative", "max_offset")
        _check_count("offset_count", self.offset_count)
        if not _set_beams(self):
            raise ValueError("beams must list at least one beam kind")
        if self.channel_gains is not None:
            if len(self.channel_gains) not in (1, self.scenario.num_users):
                raise ValueError(f"channel_gains need one value or one per user "
                                 f"({self.scenario.num_users}), got {len(self.channel_gains)}")
            _set_float_tuple(self, "positive", "channel_gains")
        unknown = [b for b in self.beams if b not in BEAM_KINDS]
        if unknown:
            raise ValueError(f"beams: unknown beam kinds {unknown}; valid: {BEAM_KINDS}")
        dup = sorted({b for b in self.beams if self.beams.count(b) > 1})
        if dup:
            raise ValueError(f"beams: duplicate beam kinds {dup}")
        _set_floats(self, "positive", "coverage_p")
        if not self.coverage_p < 1.0:
            raise ValueError("coverage_p must lie in (0, 1)")
        if self.array.num_subcarriers % self.scenario.num_users != 0:
            raise ValueError(
                f"num_subcarriers {self.array.num_subcarriers} not divisible by "
                f"num_users {self.scenario.num_users}"
            )
        if self.range_override is not None:
            _set_floats(self, "non-negative", "range_override")
        _set_floats(self, "non-negative", "qpd_peak")


def _check_angle_reach(config: TrialConfig) -> None:
    """Reject a trial whose deterministic motion carries a direction past 90 deg."""
    lo, hi = config.scenario.aod_range
    bound, reach = ("aod_max", abs(hi)) if abs(hi) >= abs(lo) else ("aod_min", abs(lo))
    if config.mode == "offset":
        # offset_grid spans [-max_offset, max_offset], or holds 0 alone
        reach += config.max_offset if config.offset_count > 1 else 0.0
        moved = "the largest offset"
    else:
        t = config.timing.duration
        reach += config.scenario.velocity_range[1] * t + 0.5 * abs(config.scenario.accel_mean) * t * t
        moved = "the frame's travel at the largest speed and the mean acceleration"
    if reach > np.pi / 2:
        raise ValueError(
            f"aod_range: |{bound}| plus {moved} reaches {np.rad2deg(reach):g} deg, beyond 90 deg")


@dataclass(frozen=True)
class TrialResult:
    """One trial's ``capacity_records``: by beam kind, a read-only (P, U) array."""

    trial_id: int
    records: dict

    def min_capacity(self, kind: str) -> float:
        """The worst capacity of ``kind`` over users and points, a built-in float."""
        return float(self.records[kind].min())


class TrialDesign(NamedTuple):
    """One trial's design stage: the (kinematics, estimate) pairs, the sub-band
    assignment, the (P, U) evaluation directions, and by kind what the
    ``POLICY_BUILDERS`` entry returned: a BeamDesign or a genie policy."""

    scenario: tuple
    assignment: np.ndarray
    true_aods: np.ndarray
    beams: dict


def _labelled(label: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; a ValueError or RuntimeError it raises is
    re-raised as that builtin class with ``"<label>: "`` in front."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        cls = ValueError if isinstance(exc, ValueError) else RuntimeError
        raise cls(f"{label}: {exc}") from exc


def _trial_rng(master_seed: int, trial_id: int) -> np.random.Generator:
    _check_count("master_seed", master_seed, 0)
    _check_count("trial_id", trial_id, 0)
    return np.random.default_rng([master_seed, trial_id])


def _theta_hat(estimates) -> np.ndarray:
    return np.array([est.theta0 for est in estimates])


def _evaluation_points(config: TrialConfig, kins, estimates) -> np.ndarray:
    if config.mode == "offset":
        grid = offset_grid(config.max_offset, config.offset_count)
        return _theta_hat(estimates)[None, :] + grid[:, None]
    steps = np.arange(1, config.timing.num_steps + 1)
    return np.stack([true_aod(kin, steps, config.timing) for kin in kins], axis=1)


def _by_band(estimates, assignment) -> list:
    """The estimates in sub-band order: entry b is the estimate of sub-band b's user."""
    return [estimates[u] for u in np.argsort(assignment)]


def _build_slanted(config: TrialConfig, estimates, assignment) -> BeamDesign:
    """Offset mode anchors at the estimates with the predicted coverage width
    (or the override); trajectory mode runs the full anchor selection."""
    estimates = _by_band(estimates, assignment)
    if config.mode != "offset":
        return design_slanted(estimates, config.coverage_p, config.array, config.timing,
                              config.solver, range_override=config.range_override)
    r = config.range_override
    if r is None:
        r = 2.0 * coverage_halfwidth(config.coverage_p) * np.sqrt(config.scenario.var_theta)
    return design_slanted_at(AnchorSpec(_theta_hat(estimates), r), config.array, config.solver)


# kind -> builder(config, estimates, assignment), returning a BeamDesign or a
# policy; every name is looked up in this module when the builder runs. The
# estimates and assignment are per user: an analog design takes one estimate per
# sub-band, in sub-band order, and the qpd design points at user 0.
POLICY_BUILDERS = {
    "slanted": _build_slanted,
    "stepped": lambda config, estimates, assignment: design_stepped(
        _theta_hat(_by_band(estimates, assignment)), config.array, config.solver),
    "rainbow": lambda config, estimates, assignment: design_rainbow(config.array),
    "qpd": lambda config, estimates, assignment: design_qpd(
        _theta_hat(estimates)[0], config.qpd_peak, config.array),
    "stepped_genie": lambda config, estimates, assignment: SteppedGeniePolicy(
        config.array, config.solver),
    "digital_genie": lambda config, estimates, assignment: DigitalGeniePolicy(config.array),
}


def design_trial(config: TrialConfig, master_seed: int, trial_id: int) -> TrialDesign:
    """Sample one seeded trial, then build its beams; a failure names the trial (and beam)."""
    rng = _trial_rng(master_seed, trial_id)
    scenario = tuple(_labelled(f"trial {trial_id}", sample_scenario, rng, config.scenario))
    assignment = rng.permutation(config.scenario.num_users)
    estimates = [est for _, est in scenario]
    true_aods = _evaluation_points(config, [kin for kin, _ in scenario], estimates)
    beams = {kind: _labelled(f"trial {trial_id}: beam {kind}", POLICY_BUILDERS[kind], config,
                             estimates, assignment) for kind in config.beams}
    return TrialDesign(scenario, assignment, true_aods, beams)


def run_trial(config: TrialConfig, master_seed: int, trial_id: int) -> TrialResult:
    """Run one seeded trial: check its angle reach, run the design stage, then score every
    beam by ``capacity_records`` under the trial's assignment (a design as a FixedBeamPolicy)."""
    _check_angle_reach(config)
    trial = design_trial(config, master_seed, trial_id)
    policies = {kind: FixedBeamPolicy(beam, config.array) if isinstance(beam, BeamDesign) else beam
                for kind, beam in trial.beams.items()}
    records = _labelled(f"trial {trial_id}", capacity_records, policies, trial.true_aods,
                        config.array, config.budget, assignment=trial.assignment,
                        channel_gains=config.channel_gains)
    return TrialResult(trial_id, records)


@dataclass(frozen=True)
class SweepConfig:
    """A one-axis parameter sweep: values, trial count, seed, beam set."""

    axis: str
    values: tuple
    trials: int = 20
    master_seed: int = 0
    beams: tuple = BEAM_KINDS

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        values = _set_float_tuple(self, "", "values")
        _set_beams(self)
        if not values:
            raise ValueError("values must be non-empty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("values must be strictly ascending")
        if self.axis in ("num_antennas", "num_users"):
            bad = [v for v in values if not v.is_integer()]
            if bad:
                raise ValueError(
                    f"values must be whole numbers on axis {self.axis}, got {bad[0]!r}")
        _check_count("trials", self.trials)
        _check_count("master_seed", self.master_seed, 0)


def apply_axis(base: TrialConfig, axis: str, value: float) -> TrialConfig:
    """Specialize a trial config to one point of a sweep axis.

    Offset-range, array-size and user-count sweeps probe offset grids; the
    velocity sweep rolls trajectories. The mean-velocity axis pins every
    user's initial angular speed to the axis value exactly (random sign).
    """
    if axis == "offset_range":
        return dataclasses.replace(base, mode="offset", max_offset=value)
    if axis == "num_antennas":
        arr = dataclasses.replace(base.array, num_antennas=int(value))
        return dataclasses.replace(base, array=arr, mode="offset")
    if axis == "num_users":
        scen = dataclasses.replace(base.scenario, num_users=int(value))
        return dataclasses.replace(base, scenario=scen, mode="offset")
    if axis == "mean_velocity":
        scen = dataclasses.replace(base.scenario, velocity_range=(value, value))
        return dataclasses.replace(base, scenario=scen, mode="trajectory")
    raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")


class SweepResult(NamedTuple):
    """A sweep and its trial results: ``cells[value index][trial id]`` is the
    TrialResult of that cell. The CLI's sweep and CDF CSVs both fold ``minima``."""

    sweep: SweepConfig
    cells: tuple

    def minima(self, beam: str) -> np.ndarray:
        """Per-trial minimum capacities of ``beam``, shape (num values, num trials)."""
        return np.array([[res.min_capacity(beam) for res in row] for row in self.cells])


def _axis_label(axis: str, value: float) -> str:
    if axis in DEGREE_AXES:
        return f"{axis}={np.rad2deg(value):g} {DEGREE_AXES[axis]}"
    return f"{axis}={value:g}"


def _cell_job(args):
    """One cell; a failure names the cell's axis value in front of the trial."""
    label, config, master_seed, trial_id = args
    return _labelled(label, run_trial, config, master_seed, trial_id)


def sweep_cells(sweep: SweepConfig, base: TrialConfig) -> list:
    """The (axis label, trial config) of every sweep value, carrying the
    sweep's beams; a value that cannot run raises a ValueError that starts
    with its label."""
    base = dataclasses.replace(base, beams=tuple(sweep.beams))
    cells = []
    for v in sweep.values:
        label = _axis_label(sweep.axis, v)
        config = _labelled(label, apply_axis, base, sweep.axis, v)
        _labelled(label, _check_angle_reach, config)
        cells.append((label, config))
    return cells


def run_sweep(sweep: SweepConfig, base: TrialConfig, workers: int = None) -> SweepResult:
    """Run every (axis value, trial) cell of a sweep, keeping every TrialResult.

    ``workers`` > 1 distributes the cells over a process pool of at most one
    process per cell; results are indexed by (value, trial id), so the outcome
    is identical for any worker count.
    """
    if workers is not None:
        _check_count("workers", workers)
    jobs = [
        (label, config, sweep.master_seed, t)
        for label, config in sweep_cells(sweep, base)
        for t in range(sweep.trials)
    ]
    if workers is not None and workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # 20 ms to import: pool runs only
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            flat = tuple(pool.map(_cell_job, jobs, chunksize=1))
    else:
        flat = tuple(map(_cell_job, jobs))
    t = sweep.trials
    return SweepResult(sweep, tuple(flat[vi * t : (vi + 1) * t] for vi in range(len(sweep.values))))
