import dataclasses
import importlib
import pkgutil
import re
from collections import Counter

import numpy as np
import pytest

import slantbeam
from slantbeam.arrays import ArrayConfig
from slantbeam.cli import main
from slantbeam.config import (
    _FIELD_KEYS,
    _SCHEMA,
    ConfigError,
    config_hash,
    parse_config,
    serialize_config,
)
from slantbeam.designs import design_stepped
from slantbeam.jpta import SolverOptions
from slantbeam.link import LinkBudget, capacity_records, offset_grid
from slantbeam.mobility import (
    AnchorSpec,
    FrameTiming,
    KinematicsEstimate,
    ScenarioConfig,
    UserKinematics,
)
from slantbeam.montecarlo import SweepConfig, TrialConfig, run_trial

DEG = np.pi / 180.0


def parse_text(tmp_path, text, **kwargs):
    """parse_config on ``text`` written to a config file under ``tmp_path``."""
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return parse_config(path=str(path), **kwargs)


class TestDefaults:
    def test_empty_parse_gives_full_scale_defaults(self):
        cfg = parse_config()
        assert cfg.get("array", "carrier_freq_ghz") == 60.0
        assert cfg.get("array", "bandwidth_ghz") == 2.0
        assert cfg.get("array", "num_subcarriers") == 1200
        assert cfg.get("array", "num_antennas") == 32
        assert cfg.get("mobility", "num_users") == 3
        assert cfg.get("frame", "duration_ms") == 160.0
        assert cfg.get("frame", "num_steps") == 100
        assert cfg.get("design", "coverage_p") == 0.97
        assert cfg.get("sweep", "trials") == 100

    def test_desk_overlay(self):
        cfg = parse_config(desk=True)
        assert cfg.get("array", "num_subcarriers") == 240
        assert cfg.get("frame", "num_steps") == 25
        assert cfg.get("sweep", "trials") == 20
        assert cfg.get("sweep", "offset_count") == 25
        # untouched keys keep full-scale values
        assert cfg.get("array", "num_antennas") == 32

    def test_file_beats_overlay(self, tmp_path):
        cfg = parse_text(tmp_path, "[array]\nnum_subcarriers = 480\n", desk=True)
        assert cfg.get("array", "num_subcarriers") == 480

    def test_inline_comments_ignored(self, tmp_path):
        text = "[link]\nchannel_gains = 1.0, 0.5, 2.0   ; per user\nsnr_db = -7.0  # quiet\n"
        cfg = parse_text(tmp_path, text)
        assert cfg.get("link", "channel_gains") == (1.0, 0.5, 2.0)
        assert cfg.get("link", "snr_db") == -7.0

    def test_materialized_types(self):
        cfg = parse_config()
        arr = cfg.array()
        assert arr.carrier_freq == 60e9
        assert arr.num_subcarriers == 1200
        base = cfg.base_trial()
        scen = base.scenario
        assert scen.var_theta == pytest.approx(2 * DEG**2)
        assert scen.velocity_range[1] == pytest.approx(80 * DEG)
        assert base.timing.duration == pytest.approx(0.16)
        assert base.budget.snr_db == -10.0
        assert base.solver == SolverOptions()
        assert base.offset_count == 100
        assert base.qpd_peak == pytest.approx(np.pi)
        assert base.range_override is None


class TestOverrides:
    def test_set_single_key(self):
        cfg = parse_config(overrides=["array.num_antennas=64"])
        assert cfg.get("array", "num_antennas") == 64
        assert cfg.get("array", "num_subcarriers") == 1200

    def test_set_list_and_optional(self):
        cfg = parse_config(overrides=[
            "sweep.values=0,10,20",
            "design.range_override_deg=20",
            "sweep.beams=slanted,stepped",
        ])
        assert cfg.get("sweep", "values") == (0.0, 10.0, 20.0)
        assert cfg.get("design", "range_override_deg") == 20.0
        assert cfg.get("sweep", "beams") == ("slanted", "stepped")
        assert cfg.base_trial().range_override == pytest.approx(20 * DEG)

    def test_set_beats_file(self, tmp_path):
        cfg = parse_text(tmp_path, "[frame]\nnum_steps = 7\n", overrides=["frame.num_steps=9"])
        assert cfg.get("frame", "num_steps") == 9

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            parse_config(overrides=["num_antennas=64"])

    @pytest.mark.parametrize("item, message", [
        ("frame.num_steps", "override 'frame.num_steps': expected section.key=value"),
        ("=5", "override '=5': expected section.key=value"),
        ("nosuch.key=1", "[nosuch] key: unknown key"),
    ])
    def test_override_syntax(self, item, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(overrides=[item])

    def test_file_items_then_overrides_go_through_one_check(self, tmp_path):
        # every override's syntax is read before any item is checked, and items
        # are checked file first: a malformed override wins over a bad file value,
        # and a bad file value over a bad override value
        text = "[frame]\nnum_steps = many\n"
        with pytest.raises(ConfigError, match="expected section.key=value"):
            parse_text(tmp_path, text, overrides=["frame.num_steps"])
        with pytest.raises(ConfigError, match=r"^\[frame\] num_steps: cannot parse 'many'"):
            parse_text(tmp_path, text, overrides=["link.snr_db=loud"])


NON_FINITE_ROWS = [
    ("link.snr_db=nan", r"\[link\] snr_db", "nan"),
    ("array.spacing_wavelengths=inf", r"\[array\] spacing_wavelengths", "inf"),
    ("design.qpd_peak_rad=inf", r"\[design\] qpd_peak_rad", "inf"),
    ("mobility.var_theta_deg2=inf", r"\[mobility\] var_theta_deg2", "inf"),
    ("design.range_override_deg=-inf", r"\[design\] range_override_deg", "-inf"),
    ("sweep.values=0,nan", r"\[sweep\] values", "nan"),
    ("link.channel_gains=1,inf,1", r"\[link\] channel_gains", "inf"),
    ("mobility.accel_mean_deg_s2=inf", r"\[mobility\] accel_mean_deg_s2", "inf"),
]


class TestRejections:
    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[array\] warp_factor"):
            parse_text(tmp_path, "[array]\nwarp_factor = 9\n")

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[engine\]"):
            parse_text(tmp_path, "[engine]\npower = 1\n")

    def test_type_mismatch_named(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[frame\] num_steps"):
            parse_text(tmp_path, "[frame]\nnum_steps = many\n")

    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigError, match=r"\[frame\] num_steps"):
            parse_config(overrides=["frame.num_steps=0"])

    def test_bad_axis(self):
        with pytest.raises(ConfigError, match=r"\[sweep\] axis"):
            parse_config(overrides=["sweep.axis=carrier"])

    def test_unsorted_values(self):
        with pytest.raises(ConfigError, match=r"\[sweep\] values"):
            parse_config(overrides=["sweep.values=5,1"])

    def test_unknown_beam(self):
        with pytest.raises(ConfigError, match=r"\[sweep\] beams"):
            parse_config(overrides=["sweep.beams=slanted,psycho"])

    def test_coverage_out_of_range(self):
        with pytest.raises(ConfigError, match=r"\[design\] coverage_p"):
            parse_config(overrides=["design.coverage_p=1.5"])

    @pytest.mark.parametrize("item, named, shown", NON_FINITE_ROWS)
    def test_non_finite_number_named(self, item, named, shown):
        with pytest.raises(ConfigError, match=rf"{named}: must be finite, got {shown}$"):
            parse_config(overrides=[item])

    def test_non_finite_number_in_file_named(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[frame\] duration_ms: must be finite"):
            parse_text(tmp_path, "[frame]\nduration_ms = inf\n")

    def test_unset_optional_float_still_parses(self):
        assert parse_config(overrides=["design.tau_max_ns=none"]).get("design", "tau_max_ns") is None

    @pytest.mark.parametrize("gains", ["1,2", "1,2,3,4", ""])
    def test_channel_gains_need_one_or_one_per_user(self, gains):
        with pytest.raises(ConfigError, match=r"\[link\] channel_gains: need one value or one per user"):
            parse_config(overrides=[f"link.channel_gains={gains}"])

    def test_channel_gains_follow_user_count(self):
        cfg = parse_config(overrides=["mobility.num_users=2", "link.channel_gains=1,2"])
        assert cfg.base_trial().channel_gains == (1.0, 2.0)
        assert parse_config(overrides=["link.channel_gains=0.5"]).get("link", "channel_gains") == (0.5,)


# one override per dataclass field that fails that field's own check
OUT_OF_RANGE = {
    "num_antennas": "array.num_antennas=0",
    "spacing": "array.spacing_wavelengths=0",
    "carrier_freq": "array.carrier_freq_ghz=0.5",
    "bandwidth": "array.bandwidth_ghz=0",
    "num_subcarriers": "array.num_subcarriers=25",
    "snr_db": "link.snr_db=4000",
    "channel_gains": "link.channel_gains=1,0,1",
    "num_users": "mobility.num_users=0",
    "aod_range": "mobility.aod_min_deg=50",
    "min_spacing": "mobility.min_spacing_deg=50",
    "velocity_range": "mobility.velocity_min_deg_s=90",
    "var_theta": "mobility.var_theta_deg2=-1",
    "var_omega": "mobility.var_omega_deg2_s2=-1",
    "var_alpha": "mobility.var_alpha_deg2_s4=-1",
    "duration": "frame.duration_ms=0",
    "num_steps": "frame.num_steps=0",
    "coverage_p": "design.coverage_p=1",
    "range_override": "design.range_override_deg=-1",
    "tau_max": "design.tau_max_ns=0",
    "max_iters": "design.max_iters=0",
    "objective_tolerance": "design.objective_tolerance=0",
    "delay_search_resolution": "design.delay_search_resolution=1",
    "qpd_peak": "design.qpd_peak_rad=-1",
    "axis": "sweep.axis=carrier",
    "values": "sweep.values=5,1",
    "trials": "sweep.trials=0",
    "max_offset": "sweep.max_offset_deg=-1",
    "offset_count": "sweep.offset_count=0",
    "beams": "sweep.beams=",
}

# fields whose only check rejects non-finite numbers; the parser rejects those
# first, so no config value reaches the check, and a NON_FINITE_ROWS row holds
# each override instead
FINITE_ONLY = {
    "accel_mean": "mobility.accel_mean_deg_s2=inf",
}

# sweep values that pass every base-config check but cannot run
SWEEP_VALUE_ROWS = [
    (["sweep.axis=num_users", "sweep.values=2,7"],
     "num_users=7: num_subcarriers 1200 not divisible by num_users 7"),
    (["sweep.axis=num_users", "sweep.values=2,3", "link.channel_gains=1,0.5,2"],
     "num_users=2: channel_gains need one value or one per user (2), got 3"),
    (["sweep.axis=num_users", "sweep.values=0,3"], "num_users=0: num_users must be >= 1"),
    (["sweep.axis=num_users", "sweep.values=3,10"], "num_users=10: min_spacing infeasible"),
    (["sweep.axis=num_users", "sweep.values=2.7"],
     "must be whole numbers on axis num_users, got 2.7"),
    (["sweep.axis=num_antennas", "sweep.values=0,8"], "num_antennas=0: num_antennas must be >= 1"),
    (["sweep.axis=mean_velocity", "sweep.values=-10,0"], "mean_velocity=-10 deg/s: velocity_range"),
    (["sweep.values=-5,0"], "offset_range=-5 deg: max_offset must be non-negative"),
    (["mobility.aod_max_deg=80", "sweep.values=0,20"],
     "offset_range=20 deg: aod_range: |aod_max| plus the largest offset "
     "reaches 100 deg, beyond 90 deg"),
    (["mobility.aod_min_deg=-80", "sweep.axis=mean_velocity", "sweep.values=0,80"],
     "mean_velocity=80 deg/s: aod_range: |aod_min| plus the frame's travel"),
]


NAN = float("nan")
INF = float("inf")
ARRAY = ArrayConfig(16, 0.5, 60e9, 2e9, 48)
PAIR = np.array([0.1, 0.2])

# one call per float range check with NaN where the check reads, and one with
# inf, which every check bounds above (accel_mean's finiteness check reads NaN
# and inf alike, so it has the NaN row only), plus one per anchor-center shape
# that AnchorSpec rejects before its finiteness check; each error starts with
# the checked field's name, which _FIELD_KEYS maps to its key
NAN_ROWS = {
    "ArrayConfig.spacing": ("spacing", lambda: ArrayConfig(16, NAN, 60e9, 2e9, 48)),
    "ArrayConfig.carrier_freq": ("carrier_freq", lambda: ArrayConfig(16, 0.5, NAN, 2e9, 48)),
    "ArrayConfig.bandwidth": ("bandwidth", lambda: ArrayConfig(16, 0.5, 60e9, NAN, 48)),
    "FrameTiming.duration": ("duration", lambda: FrameTiming(NAN, 5)),
    "ScenarioConfig.min_spacing": ("min_spacing", lambda: ScenarioConfig(min_spacing=NAN)),
    "ScenarioConfig.velocity_range": (
        "velocity_range", lambda: ScenarioConfig(velocity_range=(0.0, NAN))),
    "ScenarioConfig.accel_mean": ("accel_mean", lambda: ScenarioConfig(accel_mean=NAN)),
    "ScenarioConfig.var_theta": ("var_theta", lambda: ScenarioConfig(var_theta=NAN)),
    "ScenarioConfig.var_omega": ("var_omega", lambda: ScenarioConfig(var_omega=NAN)),
    "ScenarioConfig.var_alpha": ("var_alpha", lambda: ScenarioConfig(var_alpha=NAN)),
    "KinematicsEstimate.var_omega": (
        "var_omega", lambda: KinematicsEstimate(0.0, 0.0, 0.0, 1.0, NAN, 1.0)),
    "AnchorSpec.aod_range": ("aod_range", lambda: AnchorSpec(centers=(0.0,), aod_range=NAN)),
    "AnchorSpec.centers": ("centers", lambda: AnchorSpec(centers=(NAN, 0.1), aod_range=0.0)),
    "AnchorSpec.centers shape (2, 1)": ("centers", lambda: design_stepped([[0.1], [0.2]], ARRAY)),
    "AnchorSpec.centers shape (2, 2)": (
        "centers", lambda: design_stepped([[0.1, 0.2], [0.3, 0.4]], ARRAY)),
    "AnchorSpec.centers empty": ("centers", lambda: design_stepped([], ARRAY)),
    "SweepConfig.values": ("values", lambda: SweepConfig("offset_range", (0.0, NAN, 1.0))),
    "SweepConfig.values alone": ("values", lambda: SweepConfig("offset_range", (NAN,))),
    "SolverOptions.tau_max": ("tau_max", lambda: SolverOptions(tau_max=NAN)),
    "SolverOptions.objective_tolerance": (
        "objective_tolerance", lambda: SolverOptions(objective_tolerance=NAN)),
    "ArrayConfig.spacing=inf": ("spacing", lambda: ArrayConfig(16, INF, 60e9, 2e9, 48)),
    "ArrayConfig.carrier_freq=inf": ("carrier_freq", lambda: ArrayConfig(16, 0.5, INF, 2e9, 48)),
    "ArrayConfig.bandwidth=inf": ("bandwidth", lambda: ArrayConfig(16, 0.5, 60e9, INF, 48)),
    "FrameTiming.duration=inf": ("duration", lambda: FrameTiming(INF, 5)),
    "ScenarioConfig.aod_range=inf": (
        "aod_range", lambda: ScenarioConfig(aod_range=(0.0, INF))),
    "ScenarioConfig.min_spacing=inf": (
        "min_spacing", lambda: ScenarioConfig(num_users=1, min_spacing=INF)),
    "ScenarioConfig.velocity_range=inf": (
        "velocity_range", lambda: ScenarioConfig(velocity_range=(0.0, INF))),
    "ScenarioConfig.var_theta=inf": ("var_theta", lambda: ScenarioConfig(var_theta=INF)),
    "ScenarioConfig.var_omega=inf": ("var_omega", lambda: ScenarioConfig(var_omega=INF)),
    "ScenarioConfig.var_alpha=inf": ("var_alpha", lambda: ScenarioConfig(var_alpha=INF)),
    "KinematicsEstimate.var_omega=inf": (
        "var_omega", lambda: KinematicsEstimate(0.0, 0.0, 0.0, 1.0, INF, 1.0)),
    "AnchorSpec.aod_range=inf": ("aod_range", lambda: AnchorSpec(centers=(0.0,), aod_range=INF)),
    "AnchorSpec.centers=inf": ("centers", lambda: AnchorSpec(centers=(INF, 0.1), aod_range=0.0)),
    "SweepConfig.values=inf": ("values", lambda: SweepConfig("offset_range", (0.0, INF))),
    "SolverOptions.tau_max=inf": ("tau_max", lambda: SolverOptions(tau_max=INF)),
    "SolverOptions.objective_tolerance=inf": (
        "objective_tolerance", lambda: SolverOptions(objective_tolerance=INF)),
    "TrialConfig.max_offset": ("max_offset", lambda: TrialConfig(ARRAY, max_offset=NAN)),
    "TrialConfig.range_override": (
        "range_override", lambda: TrialConfig(ARRAY, range_override=NAN)),
    "TrialConfig.qpd_peak": ("qpd_peak", lambda: TrialConfig(ARRAY, qpd_peak=NAN)),
    "TrialConfig.channel_gains": (
        "channel_gains", lambda: TrialConfig(ARRAY, channel_gains=(1.0, NAN, 1.0))),
    "capacity_records.channel_gains": ("channel_gains", lambda: capacity_records(
        {}, np.zeros((1, 3)), ARRAY, LinkBudget(), channel_gains=(1.0, NAN, 1.0))),
    "offset_grid.max_offset": ("max_offset", lambda: offset_grid(NAN, 5)),
    "TrialConfig.max_offset=inf": ("max_offset", lambda: TrialConfig(ARRAY, max_offset=INF)),
    "TrialConfig.range_override=inf": (
        "range_override", lambda: TrialConfig(ARRAY, range_override=INF)),
    "TrialConfig.qpd_peak=inf": ("qpd_peak", lambda: TrialConfig(ARRAY, qpd_peak=INF)),
    "TrialConfig.channel_gains=inf": (
        "channel_gains", lambda: TrialConfig(ARRAY, channel_gains=(1.0, INF, 1.0))),
    "capacity_records.channel_gains=inf": ("channel_gains", lambda: capacity_records(
        {}, np.zeros((1, 3)), ARRAY, LinkBudget(), channel_gains=(1.0, INF, 1.0))),
    "offset_grid.max_offset=inf": ("max_offset", lambda: offset_grid(INF, 5)),
}


@pytest.mark.parametrize("case", sorted(NAN_ROWS))
def test_nan_fails_the_range_check(case):
    field, build = NAN_ROWS[case]
    with pytest.raises(ValueError, match=rf"^{field} "):
        build()


# one call per integer field with a value that is not a whole number, or below
# the field's bound where the check had none; each error starts with the field
INTEGER_ROWS = {
    "ArrayConfig.num_antennas": ("num_antennas", lambda: ArrayConfig(NAN, 0.5, 60e9, 2e9, 48)),
    "ArrayConfig.num_subcarriers": (
        "num_subcarriers", lambda: ArrayConfig(16, 0.5, 60e9, 2e9, 2.5)),
    "FrameTiming.num_steps": ("num_steps", lambda: FrameTiming(0.16, NAN)),
    "ScenarioConfig.num_users": ("num_users", lambda: ScenarioConfig(num_users=NAN)),
    "SolverOptions.max_iters": ("max_iters", lambda: SolverOptions(max_iters=NAN)),
    "SolverOptions.delay_search_resolution": (
        "delay_search_resolution", lambda: SolverOptions(delay_search_resolution="256")),
    "SweepConfig.trials": ("trials", lambda: SweepConfig("offset_range", (0.0,), trials=2.0)),
    "SweepConfig.master_seed fraction": (
        "master_seed", lambda: SweepConfig("offset_range", (0.0,), master_seed=1.5)),
    "SweepConfig.master_seed negative": (
        "master_seed", lambda: SweepConfig("offset_range", (0.0,), master_seed=-1)),
    "TrialConfig.offset_count": ("offset_count", lambda: TrialConfig(ARRAY, offset_count=NAN)),
    "offset_grid.count": ("count", lambda: offset_grid(0.1, 2.5)),
}


@pytest.mark.parametrize("case", sorted(INTEGER_ROWS))
def test_integer_field_rejects_other_values(case):
    field, build = INTEGER_ROWS[case]
    with pytest.raises(ValueError, match=rf"^{field} "):
        build()


def test_numpy_integers_are_integers():
    arr = ArrayConfig(np.int64(16), 0.5, 60e9, 2e9, np.int32(48))
    assert TrialConfig(arr, offset_count=np.int64(5)).offset_count == 5
    assert SweepConfig("offset_range", (0.0,), trials=np.int16(2), master_seed=np.uint8(0)).trials == 2


# bool is an int subclass, so True would pass as the count 1 (False as seed 0)
BOOL_COUNT_ROWS = {
    "ArrayConfig.num_antennas": ("num_antennas", lambda: ArrayConfig(True, 0.5, 60e9, 2e9, 48)),
    "ArrayConfig.num_subcarriers": (
        "num_subcarriers", lambda: ArrayConfig(16, 0.5, 60e9, 2e9, True)),
    "FrameTiming.num_steps": ("num_steps", lambda: FrameTiming(0.16, True)),
    "ScenarioConfig.num_users": ("num_users", lambda: ScenarioConfig(num_users=True)),
    "SolverOptions.max_iters": ("max_iters", lambda: SolverOptions(max_iters=True)),
    "SweepConfig.trials": ("trials", lambda: SweepConfig("offset_range", (0.0,), trials=True)),
    "SweepConfig.master_seed": (
        "master_seed", lambda: SweepConfig("offset_range", (0.0,), master_seed=False)),
    "TrialConfig.offset_count": ("offset_count", lambda: TrialConfig(ARRAY, offset_count=True)),
    "offset_grid.count": ("count", lambda: offset_grid(1.0, True)),
    "run_trial.master_seed": ("master_seed", lambda: run_trial(TrialConfig(ARRAY), False, 0)),
    "run_trial.trial_id": ("trial_id", lambda: run_trial(TrialConfig(ARRAY), 0, True)),
}


@pytest.mark.parametrize("case", sorted(BOOL_COUNT_ROWS))
def test_count_rejects_bool(case):
    field, build = BOOL_COUNT_ROWS[case]
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got (True|False)$"):
        build()


# every float of the library's dataclasses passes arrays._as_float: it takes a
# real scalar and keeps it as a built-in float, so that the dataclass hashes
# (the solver's plan cache hashes ArrayConfig and SolverOptions); arrays (0-d
# ones too), strings and bools are refused with the field's name
FLOAT_SCALAR_ROWS = {
    "ArrayConfig.spacing 0-d array": (
        "spacing", lambda: ArrayConfig(8, np.array(0.5), 60e9, 2e9, 24)),
    "ArrayConfig.carrier_freq string": (
        "carrier_freq", lambda: ArrayConfig(8, 0.5, "60e9", 2e9, 24)),
    "ArrayConfig.bandwidth bool": ("bandwidth", lambda: ArrayConfig(8, 0.5, 60e9, True, 24)),
    "SolverOptions.tau_max 1-d array": ("tau_max", lambda: SolverOptions(tau_max=np.array([1e-9]))),
    "SolverOptions.objective_tolerance 0-d array": (
        "objective_tolerance", lambda: SolverOptions(objective_tolerance=np.array(1e-3))),
    "LinkBudget.snr_db 1-d array": ("snr_db", lambda: LinkBudget(snr_db=np.array([1.0]))),
    "TrialConfig.max_offset 1-d array": (
        "max_offset", lambda: TrialConfig(ARRAY, max_offset=np.array([0.1]))),
    "SweepConfig.values string": ("values", lambda: SweepConfig("offset_range", ("5",))),
    "ScenarioConfig.aod_range entry 2-element array": (
        "aod_range", lambda: ScenarioConfig(aod_range=(PAIR, 0.5))),
    "ScenarioConfig.velocity_range entry 2-element array": (
        "velocity_range", lambda: ScenarioConfig(velocity_range=(0.0, PAIR))),
    "TrialConfig.channel_gains entry 2-element array": (
        "channel_gains", lambda: TrialConfig(ARRAY, channel_gains=(PAIR,))),
    "SweepConfig.values entry 2-element array": (
        "values", lambda: SweepConfig("offset_range", (0.0, PAIR))),
    "offset_grid.max_offset 2-element array": ("max_offset", lambda: offset_grid(PAIR, 5)),
}

# a valid instance of every library dataclass that has a float field; each such
# field gets a FLOAT_SCALAR_ROWS row that replaces it with a 2-element array
VALID = {
    ArrayConfig: ARRAY,
    SolverOptions: SolverOptions(),
    FrameTiming: FrameTiming(0.16, 10),
    UserKinematics: UserKinematics(0.1, 0.0, 0.0),
    KinematicsEstimate: KinematicsEstimate(0.1, 0.0, 0.0, 1e-4, 1e-3, 1e-2),
    AnchorSpec: AnchorSpec(centers=(0.0, 0.3), aod_range=0.1),
    ScenarioConfig: ScenarioConfig(),
    LinkBudget: LinkBudget(),
    TrialConfig: TrialConfig(ARRAY),
}


def _float_fields(cls) -> list:
    """Fields annotated ``float``; a module with ``from __future__ import
    annotations`` (montecarlo) holds the annotation as a string."""
    return [f.name for f in dataclasses.fields(cls) if f.type in (float, "float")]


FLOAT_SCALAR_ROWS.update({
    f"{cls.__name__}.{name} 2-element array": (
        name, lambda obj=obj, name=name: dataclasses.replace(obj, **{name: PAIR}))
    for cls, obj in VALID.items() for name in _float_fields(cls)})


def test_every_float_field_has_a_two_element_row():
    library = [cls for info in pkgutil.iter_modules(slantbeam.__path__)
               for mod in [importlib.import_module(f"slantbeam.{info.name}")]
               for cls in vars(mod).values()
               if isinstance(cls, type) and dataclasses.is_dataclass(cls)
               and cls.__module__ == mod.__name__]
    assert {cls for cls in library if _float_fields(cls)} == set(VALID)
    expected = {f"{cls.__name__}.{name} 2-element array"
                for cls in library for name in _float_fields(cls)}
    assert len(expected) > 20 and expected <= set(FLOAT_SCALAR_ROWS)


@pytest.mark.parametrize("case", sorted(FLOAT_SCALAR_ROWS))
def test_float_field_rejects_non_scalars(case):
    field, build = FLOAT_SCALAR_ROWS[case]
    with pytest.raises(ValueError, match=rf"^{field} must be a real number, got "):
        build()


# a (low, high) range with another number of entries; unpacking it used to raise
# "too many" or "not enough values to unpack", which named no field
PAIR_LENGTH_ROWS = {
    "ScenarioConfig.aod_range three entries": (
        "aod_range", lambda: ScenarioConfig(aod_range=(-0.5, 0.0, 0.5))),
    "ScenarioConfig.velocity_range one entry": (
        "velocity_range", lambda: ScenarioConfig(velocity_range=(0.1,))),
}


@pytest.mark.parametrize("case", sorted(PAIR_LENGTH_ROWS))
def test_range_pair_needs_two_entries(case):
    field, build = PAIR_LENGTH_ROWS[case]
    with pytest.raises(ValueError, match=rf"^{field} must hold exactly two entries \(low, high\)$"):
        build()


def test_float_fields_are_builtin_floats():
    arr = ArrayConfig(8, np.float64(0.5), 60_000_000_000, np.float32(2e9), 24)
    assert arr == ArrayConfig(8, 0.5, 60e9, 2e9, 24)
    assert hash(arr) == hash(ArrayConfig(8, 0.5, 60e9, 2e9, 24))
    assert all(type(getattr(arr, name)) is float for name in ("spacing", "carrier_freq", "bandwidth"))
    opts = SolverOptions(objective_tolerance=1, tau_max=np.float64(1e-9))
    assert (type(opts.objective_tolerance), type(opts.tau_max)) == (float, float)
    assert hash(opts) == hash(SolverOptions(objective_tolerance=1.0, tau_max=1e-9))
    assert SolverOptions().tau_max is None
    # numpy scalars and lists in every float of a trial config, nested ones too
    trial = TrialConfig(
        ARRAY, scenario=ScenarioConfig(aod_range=[np.float64(-0.5), 0], accel_mean=np.int64(1),
                                       velocity_range=[0, np.float32(0.5)]),
        timing=FrameTiming(np.float64(0.16), 10), budget=LinkBudget(np.int64(-10)),
        max_offset=np.float64(0.1), coverage_p=np.float32(0.5), range_override=np.int64(0),
        qpd_peak=3, channel_gains=[1, np.float64(2.0), np.float32(0.5)])
    same = TrialConfig(
        ARRAY, scenario=ScenarioConfig(aod_range=(-0.5, 0.0), accel_mean=1.0,
                                       velocity_range=(0.0, 0.5)),
        timing=FrameTiming(0.16, 10), budget=LinkBudget(-10.0), max_offset=0.1,
        coverage_p=0.5, range_override=0.0, qpd_peak=3.0, channel_gains=(1.0, 2.0, 0.5))
    assert trial == same and hash(trial) == hash(same)
    assert all(type(v) is float for v in (
        *trial.scenario.aod_range, *trial.scenario.velocity_range, trial.scenario.accel_mean,
        trial.timing.duration, trial.budget.snr_db, trial.max_offset, trial.coverage_p,
        trial.range_override, trial.qpd_peak, *trial.channel_gains))


class TestFieldKeys:
    def test_every_field_has_an_out_of_range_row(self):
        assert set(OUT_OF_RANGE) | set(FINITE_ONLY) == set(_FIELD_KEYS)
        assert not set(OUT_OF_RANGE) & set(FINITE_ONLY)
        non_finite = [item for item, _, _ in NON_FINITE_ROWS]
        for field, item in FINITE_ONLY.items():
            assert item in non_finite
            section, key = item.partition("=")[0].split(".")
            assert _FIELD_KEYS[field] == f"[{section}] {key}"

    @pytest.mark.parametrize("field", sorted(OUT_OF_RANGE))
    def test_dataclass_error_names_its_key(self, field):
        # the expected key comes from the override, not from the table under test
        section, name = OUT_OF_RANGE[field].partition("=")[0].split(".")
        key = f"[{section}] {name}"
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: ") as info:
            parse_config(overrides=[OUT_OF_RANGE[field]])
        # the key replaces the field name
        assert not str(info.value)[len(key) + 2:].startswith(field)

    @pytest.mark.parametrize("overrides, detail", SWEEP_VALUE_ROWS)
    def test_sweep_value_that_cannot_run_is_named(self, tmp_path, capsys, overrides, detail):
        # a sweep run judges every cell before any runs, so it exits 2 with no file
        out = tmp_path / "out"
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert main(["sweep", "--full", "--seed", "0", "--out", str(out), *sets]) == 2
        assert f"error: [sweep] values: {detail}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_parse_judges_no_sweep_cell(self):
        # whole numbers on a count axis are a SweepConfig rule; every other row
        # is a cell that only a sweep or cdf run builds
        for overrides, detail in SWEEP_VALUE_ROWS:
            if detail.startswith("must be whole numbers"):
                with pytest.raises(ConfigError, match=re.escape(f"[sweep] values: {detail}")):
                    parse_config(overrides=overrides)
            else:
                parse_config(overrides=overrides)

    def test_every_sweep_value_that_can_run_passes(self):
        cfg = parse_config(overrides=["sweep.axis=num_users", "sweep.values=1,2,3,4,5"])
        assert cfg.get("sweep", "values") == (1.0, 2.0, 3.0, 4.0, 5.0)


class TestRoundTrip:
    def test_defaults_round_trip(self, tmp_path):
        cfg = parse_config()
        again = parse_text(tmp_path, serialize_config(cfg))
        assert again == cfg

    def test_modified_round_trip(self, tmp_path):
        cfg = parse_config(
            desk=True,
            overrides=[
                "design.range_override_deg=20",
                "design.tau_max_ns=16",
                "sweep.values=0,2.5,5",
                "link.channel_gains=1.0,0.5,2.0",
                "mobility.var_theta_deg2=0",
            ],
        )
        again = parse_text(tmp_path, serialize_config(cfg))
        assert again == cfg

    def test_hash_is_stable_and_sensitive(self):
        a = parse_config()
        b = parse_config()
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 12
        c = parse_config(overrides=["array.num_antennas=64"])
        assert config_hash(c) != config_hash(a)

    def test_desk_and_full_hash_differ(self):
        assert config_hash(parse_config(desk=True)) != config_hash(parse_config())


class TestSweepMaterializer:
    def test_angle_axis_converts_to_radians(self):
        cfg = parse_config(overrides=["sweep.values=0,10,20", "sweep.trials=5"])
        sw = cfg.sweep(master_seed=3)
        assert sw.axis == "offset_range"
        np.testing.assert_allclose(sw.values, (0.0, 10 * DEG, 20 * DEG))
        assert sw.trials == 5
        assert sw.master_seed == 3

    def test_count_axis_keeps_raw_values(self):
        cfg = parse_config(overrides=["sweep.axis=num_antennas", "sweep.values=8,16,32"])
        sw = cfg.sweep(master_seed=0)
        assert sw.values == (8.0, 16.0, 32.0)

    def test_cli_level_overrides_win(self):
        cfg = parse_config()
        sw = cfg.sweep(master_seed=1, axis="mean_velocity", values=(0.0, 40.0), beams=("stepped",))
        assert sw.axis == "mean_velocity"
        np.testing.assert_allclose(sw.values, (0.0, 40 * DEG))
        assert sw.beams == ("stepped",)


# every key set away from its default; the expected fields below are written out
# in SI units rather than read from the schema
EVERY_KEY = [
    "array.carrier_freq_ghz=28", "array.bandwidth_ghz=0.8", "array.num_subcarriers=96",
    "array.num_antennas=8", "array.spacing_wavelengths=0.6",
    "link.snr_db=-5.5", "link.channel_gains=0.5,2",
    "mobility.num_users=2", "mobility.aod_min_deg=-30.3", "mobility.aod_max_deg=35.1",
    "mobility.min_spacing_deg=12.7", "mobility.velocity_min_deg_s=5.9",
    "mobility.velocity_max_deg_s=60.2", "mobility.accel_mean_deg_s2=-3.3",
    "mobility.var_theta_deg2=3.1", "mobility.var_omega_deg2_s2=7.3",
    "mobility.var_alpha_deg2_s4=4.7",
    "frame.duration_ms=120.7", "frame.num_steps=40",
    "design.coverage_p=0.9", "design.range_override_deg=7.3", "design.tau_max_ns=3.7",
    "design.max_iters=50", "design.objective_tolerance=0.002",
    "design.delay_search_resolution=128", "design.qpd_peak_rad=2.5",
    "sweep.axis=mean_velocity", "sweep.values=10.1,20.3", "sweep.trials=7",
    "sweep.max_offset_deg=15.1", "sweep.offset_count=9", "sweep.beams=stepped,slanted",
]


class TestEveryKeyReachesItsField:
    def test_every_key_is_set(self):
        keys = {item.partition("=")[0] for item in EVERY_KEY}
        assert keys == {f"{sec}.{key}" for sec, rows in _SCHEMA.items() for key in rows}
        defaults = parse_config()
        cfg = parse_config(overrides=EVERY_KEY)
        for item in EVERY_KEY:
            section, key = item.partition("=")[0].split(".")
            assert cfg.get(section, key) != defaults.get(section, key), item

    def test_base_trial_fields_in_si_units(self):
        base = parse_config(overrides=EVERY_KEY).base_trial()
        deg2 = np.deg2rad(1.0) ** 2
        assert base.array == ArrayConfig(
            num_antennas=8, spacing=0.6, carrier_freq=28.0 * 1e9, bandwidth=0.8 * 1e9,
            num_subcarriers=96)
        assert base.scenario == ScenarioConfig(
            num_users=2,
            aod_range=(np.deg2rad(-30.3), np.deg2rad(35.1)),
            min_spacing=np.deg2rad(12.7),
            velocity_range=(np.deg2rad(5.9), np.deg2rad(60.2)),
            accel_mean=np.deg2rad(-3.3),
            var_theta=deg2 * 3.1, var_omega=deg2 * 7.3, var_alpha=deg2 * 4.7)
        assert base.timing == FrameTiming(duration=120.7 * 1e-3, num_steps=40)
        assert base.budget == LinkBudget(snr_db=-5.5)
        assert base.solver == SolverOptions(
            max_iters=50, objective_tolerance=0.002, tau_max=3.7 * 1e-9,
            delay_search_resolution=128)
        assert base.mode == "offset"
        assert base.max_offset == np.deg2rad(15.1)
        assert base.offset_count == 9
        assert base.beams == ("stepped", "slanted")
        assert base.coverage_p == 0.9
        assert base.range_override == np.deg2rad(7.3)
        assert base.qpd_peak == 2.5
        assert base.channel_gains == (0.5, 2.0)

    def test_sweep_fields_in_si_units(self):
        sweep = parse_config(overrides=EVERY_KEY).sweep(0)
        assert sweep == SweepConfig(
            axis="mean_velocity", values=(np.deg2rad(10.1), np.deg2rad(20.3)), trials=7,
            master_seed=0, beams=("stepped", "slanted"))

    def test_only_beams_names_a_field_of_two_built_classes(self):
        # a field name routes a key to every built class that has it
        built = (ArrayConfig, ScenarioConfig, FrameTiming, LinkBudget, SolverOptions,
                 TrialConfig, SweepConfig)
        named = {row[2] for rows in _SCHEMA.values() for row in rows.values()}
        owners = Counter(f.name for cls in built for f in dataclasses.fields(cls)
                         if f.name in named)
        assert set(owners) == named
        assert {name for name, n in owners.items() if n > 1} == {"beams"}
