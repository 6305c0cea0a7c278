import re

import numpy as np
import pytest

from slantbeam.config import _FIELD_KEYS, ConfigError, config_hash, parse_config, serialize_config

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
        scen = cfg.scenario()
        assert scen.var_theta == pytest.approx(2 * DEG**2)
        assert scen.velocity_range[1] == pytest.approx(80 * DEG)
        assert cfg.timing().duration == pytest.approx(0.16)
        assert cfg.budget().snr_db == -10.0
        base = cfg.base_trial()
        assert base.plan.offset_count == 100
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

    @pytest.mark.parametrize("item, named, shown", [
        ("link.snr_db=nan", r"\[link\] snr_db", "nan"),
        ("array.spacing_wavelengths=inf", r"\[array\] spacing_wavelengths", "inf"),
        ("design.qpd_peak_rad=inf", r"\[design\] qpd_peak_rad", "inf"),
        ("mobility.var_theta_deg2=inf", r"\[mobility\] var_theta_deg2", "inf"),
        ("design.range_override_deg=-inf", r"\[design\] range_override_deg", "-inf"),
        ("sweep.values=0,nan", r"\[sweep\] values", "nan"),
        ("link.channel_gains=1,inf,1", r"\[link\] channel_gains", "inf"),
    ])
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


class TestFieldKeys:
    def test_every_field_has_an_out_of_range_row(self):
        assert set(OUT_OF_RANGE) == set(_FIELD_KEYS)

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
    def test_sweep_value_that_cannot_run_is_named(self, overrides, detail):
        with pytest.raises(ConfigError, match=re.escape(f"[sweep] values: {detail}")):
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
