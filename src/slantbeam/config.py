"""Sectioned key-value run configuration with defaults, units, and hashing.

The configuration format is INI-style with six sections (array, link,
mobility, frame, design, sweep). Every key carries its unit as a suffix and
has a default; an empty file therefore parses to the full-scale defaults.
A desk-scale overlay (fewer subcarriers, steps, trials, offsets) can be
applied before file values so quick runs stay quick unless the file or a
``--set`` override says otherwise. Range and consistency rules live in the
library's dataclasses: parsing builds them (the sweep and the base trial) and
turns any error they raise into a ``ConfigError`` that names the config key.
Whether every sweep value can run is judged by the commands that run sweeps.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig
from .designs import BEAM_KINDS
from .jpta import SolverOptions
from .link import LinkBudget
from .mobility import FrameTiming, ScenarioConfig
from .montecarlo import DEGREE_AXES, SweepConfig, TrialConfig


class ConfigError(ValueError):
    """Configuration problem, message always names the offending key."""


# section -> key -> (kind, default, the dataclass field built from the key or
# None); a range or consistency error raised by a dataclass starts with the
# field's name
_SCHEMA = {
    "array": {
        "carrier_freq_ghz": ("float", 60.0, "carrier_freq"),
        "bandwidth_ghz": ("float", 2.0, "bandwidth"),
        "num_subcarriers": ("int", 1200, "num_subcarriers"),
        "num_antennas": ("int", 32, "num_antennas"),
        "spacing_wavelengths": ("float", 0.5, "spacing"),
    },
    "link": {
        "snr_db": ("float", -10.0, None),
        "channel_gains": ("float_list", (1.0,), "channel_gains"),
    },
    "mobility": {
        "num_users": ("int", 3, "num_users"),
        "aod_min_deg": ("float", -45.0, "aod_range"),
        "aod_max_deg": ("float", 45.0, None),
        "min_spacing_deg": ("float", 10.0, "min_spacing"),
        "velocity_min_deg_s": ("float", 0.0, "velocity_range"),
        "velocity_max_deg_s": ("float", 80.0, None),
        "accel_mean_deg_s2": ("float", 0.0, None),
        "var_theta_deg2": ("float", 2.0, "var_theta"),
        "var_omega_deg2_s2": ("float", 10.0, "var_omega"),
        "var_alpha_deg2_s4": ("float", 5.0, "var_alpha"),
    },
    "frame": {
        "duration_ms": ("float", 160.0, "duration"),
        "num_steps": ("int", 100, "num_steps"),
    },
    "design": {
        "coverage_p": ("float", 0.97, "coverage_p"),
        "range_override_deg": ("opt_float", None, "range_override"),
        "tau_max_ns": ("opt_float", None, "tau_max"),
        "max_iters": ("int", 100, "max_iters"),
        "objective_tolerance": ("opt_float", None, "objective_tolerance"),
        "delay_search_resolution": ("int", 256, "delay_search_resolution"),
        "qpd_peak_rad": ("float", float(np.pi), "qpd_peak"),
    },
    "sweep": {
        "axis": ("str", "offset_range", "axis"),
        "values": ("float_list", (0.0, 5.0, 10.0, 15.0, 20.0), "values"),
        "trials": ("int", 100, "trials"),
        "max_offset_deg": ("float", 10.0, "max_offset"),
        "offset_count": ("int", 100, "offset_count"),
        "beams": ("str_list", tuple(BEAM_KINDS), "beams"),
    },
}

_FIELD_KEYS = {field: f"[{sec}] {key}" for sec, keys in _SCHEMA.items()
               for key, (_, _, field) in keys.items() if field is not None}

DESK_OVERLAY = {
    ("array", "num_subcarriers"): 240,
    ("frame", "num_steps"): 25,
    ("sweep", "trials"): 20,
    ("sweep", "offset_count"): 25,
}


def _parse_value(kind: str, raw, section: str, key: str):
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    if kind in ("str", "str_list"):
        return text if kind == "str" else tuple(p.strip() for p in text.split(",") if p.strip())
    if kind == "opt_float" and text.lower() in ("", "none"):
        return None
    try:
        if kind == "int":
            return int(text, 10)
        parts = [p.strip() for p in text.split(",") if p.strip()] if kind == "float_list" else [text]
        nums = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {kind}") from None
    bad = [v for v in nums if not np.isfinite(v)]
    if bad:
        raise ConfigError(f"[{section}] {key}: must be finite, got {bad[0]!r}")
    return tuple(nums) if kind == "float_list" else nums[0]


def _format_value(kind: str, value) -> str:
    if value is None:
        return ""
    if kind == "float_list":
        return ",".join(repr(float(v)) for v in value)
    if kind == "str_list":
        return ",".join(value)
    if kind in ("float", "opt_float"):
        return repr(float(value))
    return str(value)


@dataclass
class RunConfig:
    """Validated configuration values, grouped by section."""

    sections: dict

    def get(self, section: str, key: str):
        return self.sections[section][key]

    # materializers into the library's own types

    def array(self) -> ArrayConfig:
        a = self.sections["array"]
        return ArrayConfig(
            num_antennas=a["num_antennas"],
            spacing=a["spacing_wavelengths"],
            carrier_freq=a["carrier_freq_ghz"] * 1e9,
            bandwidth=a["bandwidth_ghz"] * 1e9,
            num_subcarriers=a["num_subcarriers"],
        )

    def budget(self) -> LinkBudget:
        return LinkBudget(snr_db=self.get("link", "snr_db"))

    def scenario(self) -> ScenarioConfig:
        m = self.sections["mobility"]
        unit_var = np.deg2rad(1.0) ** 2
        return ScenarioConfig(
            num_users=m["num_users"],
            aod_range=(np.deg2rad(m["aod_min_deg"]), np.deg2rad(m["aod_max_deg"])),
            min_spacing=np.deg2rad(m["min_spacing_deg"]),
            velocity_range=(
                np.deg2rad(m["velocity_min_deg_s"]),
                np.deg2rad(m["velocity_max_deg_s"]),
            ),
            accel_mean=np.deg2rad(m["accel_mean_deg_s2"]),
            var_theta=m["var_theta_deg2"] * unit_var,
            var_omega=m["var_omega_deg2_s2"] * unit_var,
            var_alpha=m["var_alpha_deg2_s4"] * unit_var,
        )

    def timing(self) -> FrameTiming:
        f = self.sections["frame"]
        return FrameTiming(duration=f["duration_ms"] * 1e-3, num_steps=f["num_steps"])

    def solver(self) -> SolverOptions:
        d = self.sections["design"]
        tau = d["tau_max_ns"]
        return SolverOptions(
            max_iters=d["max_iters"],
            objective_tolerance=d["objective_tolerance"],
            tau_max=tau * 1e-9 if tau is not None else None,
            delay_search_resolution=d["delay_search_resolution"],
        )

    def base_trial(self, beams=None) -> TrialConfig:
        d = self.sections["design"]
        s = self.sections["sweep"]
        override = d["range_override_deg"]
        return TrialConfig(
            array=self.array(),
            scenario=self.scenario(),
            timing=self.timing(),
            budget=self.budget(),
            max_offset=np.deg2rad(s["max_offset_deg"]),
            offset_count=s["offset_count"],
            beams=tuple(beams) if beams is not None else tuple(s["beams"]),
            coverage_p=d["coverage_p"],
            range_override=np.deg2rad(override) if override is not None else None,
            qpd_peak=d["qpd_peak_rad"],
            solver=self.solver(),
            channel_gains=tuple(self.get("link", "channel_gains")),
        )

    def sweep(self, master_seed: int, axis=None, values=None, beams=None) -> SweepConfig:
        s = self.sections["sweep"]
        axis = axis if axis is not None else s["axis"]
        raw = tuple(values) if values is not None else s["values"]
        if axis in DEGREE_AXES:
            converted = tuple(np.deg2rad(v) for v in raw)
        else:
            converted = raw
        return SweepConfig(
            axis=axis,
            values=converted,
            trials=s["trials"],
            master_seed=master_seed,
            beams=tuple(beams) if beams is not None else tuple(s["beams"]),
        )


def parse_config(path: str = None, overrides=None, desk: bool = False) -> RunConfig:
    """Build a RunConfig from defaults, optional desk overlay, file, and
    ``section.key=value`` override strings (applied in that order)."""

    values = {sec: {k: v for k, (_, v, _) in keys.items()} for sec, keys in _SCHEMA.items()}
    if desk:
        for (sec, key), v in DESK_OVERLAY.items():
            values[sec][key] = v

    items = []  # (section, key, raw) from the file, then from the overrides
    if path is not None:
        parser = configparser.ConfigParser(
            interpolation=None, inline_comment_prefixes=(";", "#"))
        parser.optionxform = str
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, configparser.Error) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"[{section}]: unknown section")
            items += [(section, key, raw) for key, raw in parser.items(section)]
    for item in overrides or ():
        dotted, eq, raw = item.partition("=")
        if not eq or "." not in dotted:
            raise ConfigError(f"override {item!r}: expected section.key=value")
        items.append((*dotted.split(".", 1), raw))

    for section, key, raw in items:
        if key not in _SCHEMA.get(section, ()):
            raise ConfigError(f"[{section}] {key}: unknown key")
        values[section][key] = _parse_value(_SCHEMA[section][key][0], raw, section, key)

    cfg = RunConfig(values)
    try:
        cfg.sweep(0)
        cfg.base_trial()
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{_FIELD_KEYS[field.rstrip(':')]}: {rest}") from exc
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parsing it back yields an equal RunConfig."""
    out = io.StringIO()
    for section, keys in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for key, (kind, _, _) in keys.items():
            out.write(f"{key} = {_format_value(kind, cfg.sections[section][key])}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(cfg: RunConfig) -> str:
    """First 12 hex digits of the SHA-256 of the canonical serialization."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()[:12]
