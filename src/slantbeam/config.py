"""Sectioned key-value run configuration with defaults, units, and hashing.

The configuration format is INI-style with six sections (array, link,
mobility, frame, design, sweep). Every key carries its unit as a suffix and
has a default; an empty file therefore parses to the full-scale defaults.
A desk-scale overlay (fewer subcarriers, steps, trials, offsets) can be
applied before file values so quick runs stay quick unless the file or a
``--set`` override says otherwise. One ``_SCHEMA`` row per key gives its
kind, its default, the dataclass field it builds and the factor from its unit
to the field's SI unit; ``RunConfig`` builds every dataclass from that table.
Range and consistency rules live in the library's dataclasses: parsing builds
them (the sweep and the base trial) and turns any error they raise into a
``ConfigError`` that names the config key.
Whether every sweep value can run is judged by the commands that run sweeps.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, fields

import numpy as np

from .arrays import ArrayConfig
from .designs import BEAM_KINDS
from .jpta import SolverOptions
from .link import LinkBudget
from .mobility import FrameTiming, ScenarioConfig
from .montecarlo import DEGREE_AXES, SweepConfig, TrialConfig


class ConfigError(ValueError):
    """Configuration problem, message always names the offending key."""


# degrees and square degrees to radians; x * _DEG equals np.deg2rad(x) bit for bit
_DEG = float(np.deg2rad(1.0))
_DEG2 = float(np.deg2rad(1.0) ** 2)

# section -> key -> (kind, default, the dataclass field built from the key,
# the factor from the key's unit to the field's or None to use the value as
# parsed); two keys naming one field build a (low, high) pair in this order
_SCHEMA = {
    "array": {
        "carrier_freq_ghz": ("float", 60.0, "carrier_freq", 1e9),
        "bandwidth_ghz": ("float", 2.0, "bandwidth", 1e9),
        "num_subcarriers": ("int", 1200, "num_subcarriers", None),
        "num_antennas": ("int", 32, "num_antennas", None),
        "spacing_wavelengths": ("float", 0.5, "spacing", None),
    },
    "link": {
        "snr_db": ("float", -10.0, "snr_db", None),
        "channel_gains": ("float_list", (1.0,), "channel_gains", None),
    },
    "mobility": {
        "num_users": ("int", 3, "num_users", None),
        "aod_min_deg": ("float", -45.0, "aod_range", _DEG),
        "aod_max_deg": ("float", 45.0, "aod_range", _DEG),
        "min_spacing_deg": ("float", 10.0, "min_spacing", _DEG),
        "velocity_min_deg_s": ("float", 0.0, "velocity_range", _DEG),
        "velocity_max_deg_s": ("float", 80.0, "velocity_range", _DEG),
        "accel_mean_deg_s2": ("float", 0.0, "accel_mean", _DEG),
        "var_theta_deg2": ("float", 2.0, "var_theta", _DEG2),
        "var_omega_deg2_s2": ("float", 10.0, "var_omega", _DEG2),
        "var_alpha_deg2_s4": ("float", 5.0, "var_alpha", _DEG2),
    },
    "frame": {
        "duration_ms": ("float", 160.0, "duration", 1e-3),
        "num_steps": ("int", 100, "num_steps", None),
    },
    "design": {
        "coverage_p": ("float", 0.97, "coverage_p", None),
        "range_override_deg": ("opt_float", None, "range_override", _DEG),
        "tau_max_ns": ("opt_float", None, "tau_max", 1e-9),
        "max_iters": ("int", 100, "max_iters", None),
        "objective_tolerance": ("opt_float", None, "objective_tolerance", None),
        "delay_search_resolution": ("int", 256, "delay_search_resolution", None),
        "qpd_peak_rad": ("float", float(np.pi), "qpd_peak", None),
    },
    "sweep": {
        "axis": ("str", "offset_range", "axis", None),
        # in degrees or deg/s on a DEGREE_AXES axis, which sweep() converts
        "values": ("float_list", (0.0, 5.0, 10.0, 15.0, 20.0), "values", None),
        "trials": ("int", 100, "trials", None),
        "max_offset_deg": ("float", 10.0, "max_offset", _DEG),
        "offset_count": ("int", 100, "offset_count", None),
        "beams": ("str_list", tuple(BEAM_KINDS), "beams", None),
    },
}

# a range or consistency error raised by a dataclass starts with the field's
# name; the first key that names a field labels it
_FIELD_KEYS = dict(reversed([(field, f"[{sec}] {key}") for sec, keys in _SCHEMA.items()
                             for key, (_, _, field, _) in keys.items()]))

DESK_OVERLAY = {
    ("array", "num_subcarriers"): 240,
    ("frame", "num_steps"): 25,
    ("sweep", "trials"): 20,
    ("sweep", "offset_count"): 25,
}


def _parse_value(kind: str, raw: str, section: str, key: str):
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

    def _build(self, cls, **given):
        """``cls`` from every key that names one of its fields, the value times
        the key's unit factor; an argument in ``given`` other than None is
        used as passed."""
        names = {f.name for f in fields(cls)}
        built = {}
        for section, keys in _SCHEMA.items():
            for key, (_, _, field, factor) in keys.items():
                if field in names:
                    v = self.sections[section][key]
                    if v is not None and factor is not None:
                        v = v * factor
                    built.setdefault(field, []).append(v)
        kwargs = {field: vs[0] if len(vs) == 1 else tuple(vs) for field, vs in built.items()}
        kwargs.update((name, v) for name, v in given.items() if v is not None)
        return cls(**kwargs)

    def array(self) -> ArrayConfig:
        return self._build(ArrayConfig)

    def base_trial(self, beams=None) -> TrialConfig:
        return self._build(
            TrialConfig, array=self.array(), scenario=self._build(ScenarioConfig),
            timing=self._build(FrameTiming), budget=self._build(LinkBudget),
            solver=self._build(SolverOptions), beams=None if beams is None else tuple(beams))

    def sweep(self, master_seed: int, axis=None, values=None, beams=None) -> SweepConfig:
        axis = self.get("sweep", "axis") if axis is None else axis
        values = self.get("sweep", "values") if values is None else values
        if axis in DEGREE_AXES:
            values = tuple(v * _DEG for v in values)
        return self._build(SweepConfig, axis=axis, values=values, master_seed=master_seed,
                           beams=None if beams is None else tuple(beams))


def parse_config(path: str = None, overrides=None, desk: bool = False) -> RunConfig:
    """Build a RunConfig from defaults, optional desk overlay, file, and
    ``section.key=value`` override strings (applied in that order)."""

    values = {sec: {k: row[1] for k, row in keys.items()} for sec, keys in _SCHEMA.items()}
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
        for key, (kind, *_) in keys.items():
            out.write(f"{key} = {_format_value(kind, cfg.sections[section][key])}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(cfg: RunConfig) -> str:
    """First 12 hex digits of the SHA-256 of the canonical serialization."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()[:12]
