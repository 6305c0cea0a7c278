"""Beam designs: slanted, stepped, rainbow, quadratic-phase, and genies.

Analog designs take one estimate per sub-band, in sub-band order, and produce
one :class:`BeamDesign` (a phase/delay bank plus provenance); the genie
baselines are evaluation-time policies that re-point using the true user
directions at every evaluated instant.  Every policy answers ``gains(b,
angles)`` for ``angles``, one true direction per sub-band in band order, and
``b = band_steering(angles)``, the (N, K) conjugate steering; no design or
policy holds an assignment, and analog policies score weight columns against b.
"""

from dataclasses import dataclass, field

import numpy as np

from .arrays import (
    TWO_PI, AnalogWeights, ArrayConfig, _as_float, _checked_angles, _matched_gains, awv_matrix,
    wrap_phase)
from .arrays import response_matrix  # noqa: F401  perfbench wraps designs.response_matrix
from .jpta import SolverOptions, SolverReport, TargetProfile, jpta_solve
from .link import subband_users
from .mobility import AnchorSpec, FrameTiming, anchor_selection

BEAM_KINDS = ("slanted", "stepped", "rainbow", "qpd", "stepped_genie", "digital_genie")

ANALOG_KINDS = ("slanted", "stepped", "rainbow", "qpd")


@dataclass(frozen=True)
class BeamDesign:
    """A realized analog design: kind label, phase/delay bank, and (for the
    solver-based kinds) the anchors and solver report behind it."""

    kind: str
    weights: AnalogWeights
    anchor: AnchorSpec = None
    report: SolverReport = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in BEAM_KINDS:
            raise ValueError(f"unknown beam kind {self.kind!r}")

    def to_json_dict(self, assignment) -> dict:
        """The design as JSON values; an anchor is written per user, user u's
        center being the one of its sub-band ``assignment[u]``, and a ValueError
        is raised unless ``assignment`` is a permutation of the anchor's users."""
        doc = {
            "kind": self.kind,
            "phases_rad": [float(x) for x in self.weights.phases],
            "delays_s": [float(x) for x in self.weights.delays],
        }
        if self.anchor is not None:
            subband_users(assignment, self.anchor.num_users, self.anchor.num_users)
            doc["anchor"] = {
                "centers_deg": [float(np.rad2deg(c)) for c in self.anchor.centers[assignment]],
                "range_deg": float(np.rad2deg(self.anchor.aod_range)),
                "assignment": [int(b) for b in assignment],
            }
        if self.report is not None:
            doc["solver_objective"] = self.report.objective
        return doc


def target_directions(anchor: AnchorSpec, cfg: ArrayConfig) -> TargetProfile:
    """Per-subcarrier target directions from anchors in sub-band order.

    Sub-band b sweeps linearly from centers[b] - r/2 + r*U/K up to
    centers[b] + r/2 (inclusive), so adjacent sub-bands tile disjoint angle
    intervals when the centers are r apart and all sub-bands share the same
    slope in subcarrier index.  Directions are clipped to the visible
    half-plane.
    """
    band = subband_users(None, cfg.num_subcarriers, anchor.num_users)
    r = anchor.aod_range
    slope = r * anchor.num_users / cfg.num_subcarriers
    k_one_based = np.arange(1, cfg.num_subcarriers + 1)
    g = anchor.centers[band] + r / 2 - r * (band + 1) + slope * k_one_based
    return TargetProfile(np.clip(g, -np.pi / 2, np.pi / 2), cfg)


def _solve_anchor(anchor: AnchorSpec, cfg: ArrayConfig, opts: SolverOptions, kind: str) -> BeamDesign:
    profile = target_directions(anchor, cfg)
    report = jpta_solve(profile, opts)
    return BeamDesign(kind=kind, weights=report.weights, anchor=anchor, report=report)


def design_slanted(
    estimates,
    p: float,
    cfg: ArrayConfig,
    timing: FrameTiming,
    opts: SolverOptions = None,
    range_override: float = None,
) -> BeamDesign:
    """Slanted beams: anchor selection over the predicted coverage intervals,
    then joint phase/delay solving of the linear per-sub-band profile.

    ``estimates`` hold one user's estimate per sub-band, in sub-band order;
    ``range_override`` (radians) replaces the selected shared range r while
    keeping the centers.
    """
    anchor = anchor_selection(estimates, p, timing)
    if range_override is not None:
        r = _as_float("range_override", range_override, "non-negative")
        anchor = AnchorSpec(anchor.centers, r)
    return _solve_anchor(anchor, cfg, opts, "slanted")


def design_slanted_at(anchor: AnchorSpec, cfg: ArrayConfig, opts: SolverOptions = None) -> BeamDesign:
    """Slanted design from an explicit anchor, bypassing coverage prediction."""
    return _solve_anchor(anchor, cfg, opts, "slanted")


def design_stepped(aod_estimates, cfg: ArrayConfig, opts: SolverOptions = None) -> BeamDesign:
    """Stepped beams: constant direction per sub-band at the estimated AoDs, one
    per sub-band in sub-band order (a slanted design with the range forced to zero)."""
    return _solve_anchor(AnchorSpec(aod_estimates, 0.0), cfg, opts, "stepped")


def design_rainbow(cfg: ArrayConfig) -> BeamDesign:
    """Rainbow beams: a fixed dispersive delay ramp, scenario independent.

    Element n (1-based) gets delay (N - n) / (2W) -- a 1/(2W) decrement per
    element shifted to keep delays non-negative -- and phase 2*pi*n*f_c/W
    wrapped; the per-subcarrier beam then sweeps the band monotonically
    across angle.
    """
    n_one = np.arange(1, cfg.num_antennas + 1)
    delays = (cfg.num_antennas - n_one) / (2.0 * cfg.bandwidth)
    phases = wrap_phase(TWO_PI * n_one * cfg.carrier_freq / cfg.bandwidth)
    return BeamDesign(kind="rainbow", weights=AnalogWeights(phases, delays))


def qpd_phase_profile(num_antennas: int, peak_phase: float) -> np.ndarray:
    """Quadratic phase offsets 4*peak*((2n - N - 1) / (2(N+1)))^2, n 1-based."""
    n_one = np.arange(1, num_antennas + 1)
    frac = (2.0 * n_one - num_antennas - 1) / (2.0 * (num_antennas + 1))
    return 4.0 * peak_phase * frac**2


def design_qpd(theta_first: float, peak_phase: float, cfg: ArrayConfig) -> BeamDesign:
    """Quadratic-phase design: a delay-free phased array steered at the first
    user's estimated AoD with a quadratic broadening term added.

    ``peak_phase`` controls the broadening (0 recovers a conventionally
    steered phased array).  Only the first user is served, and ``theta_first``
    must lie in [-pi/2, pi/2].
    """
    n = np.arange(cfg.num_antennas)
    steer = TWO_PI * cfg.spacing * n * np.sin(_checked_angles(theta_first))
    phases = wrap_phase(steer + qpd_phase_profile(cfg.num_antennas, peak_phase))
    return BeamDesign(kind="qpd", weights=AnalogWeights(phases, np.zeros(cfg.num_antennas)))


def genie_stepped(aods, cfg: ArrayConfig, opts: SolverOptions = None) -> BeamDesign:
    """Stepped design re-pointed at one instant's true AoDs, one per sub-band in
    sub-band order, from an independent (cold-started) solve."""
    return _solve_anchor(AnchorSpec(aods, 0.0), cfg, opts, "stepped_genie")


class FixedBeamPolicy:
    """Evaluation policy for a frozen analog design: the same per-subcarrier
    weights regardless of where the users actually are, held once as (N, K)
    columns."""

    def __init__(self, design: BeamDesign, cfg: ArrayConfig):
        self.kind = design.kind
        self._cols = awv_matrix(design.weights, cfg)

    def gains(self, b, angles) -> np.ndarray:
        return _matched_gains(b, self._cols)


class SteppedGeniePolicy:
    """Oracle baseline: re-solves a stepped design at the true directions of every
    evaluated instant and scores it from its own solve.  The solve targets the
    per-sub-band ``angles``, the directions ``b`` steers toward, so the gains are
    N * |v_k^H u_k|^2 from the report's ``alignment``, and ``b`` is not read; no
    weight columns are built.  They match ``FixedBeamPolicy``'s product with ``b``
    to rounding only.  Solves start cold, so results do not depend on how
    evaluation points split across workers."""

    kind = "stepped_genie"

    def __init__(self, cfg: ArrayConfig, opts: SolverOptions = None):
        self.cfg = cfg
        self.opts = opts

    def gains(self, b, angles) -> np.ndarray:
        design = genie_stepped(angles, self.cfg, self.opts)
        return self.cfg.num_antennas * design.report.alignment**2


class DigitalGeniePolicy:
    """Oracle upper bound: per-subcarrier matched filtering a/sqrt(N) to the true
    direction of the sub-band's user, whose gain |a^H a|^2 / N is N everywhere."""

    kind = "digital_genie"

    def __init__(self, cfg: ArrayConfig):
        self.cfg = cfg

    def gains(self, b, angles) -> np.ndarray:
        return np.full(self.cfg.num_subcarriers, float(self.cfg.num_antennas))
