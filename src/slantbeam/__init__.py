"""Slanted true-time-delay beams for mmWave OFDMA arrays under mobility."""

__version__ = "0.1.0"

from .arrays import (
    AnalogWeights,
    ArrayConfig,
    awv_matrix,
    db_to_linear,
    gain_profile,
    linear_to_db,
    pattern_heatmap,
    wrap_phase,
)
from .config import ConfigError, RunConfig, config_hash, parse_config, serialize_config
from .designs import (
    ANALOG_KINDS,
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
    genie_stepped,
    qpd_phase_profile,
    target_directions,
)
from .jpta import SolverOptions, SolverReport, TargetProfile, jpta_solve, line_fit_delays
from .link import (
    CapacityRecord,
    LinkBudget,
    min_capacity,
    offset_grid,
    subband_users,
    subcarrier_snr,
    user_capacity,
)
from .mobility import (
    AnchorSpec,
    FrameTiming,
    KinematicsEstimate,
    ScenarioConfig,
    UserKinematics,
    anchor_selection,
    coverage_halfwidth,
    predicted_mean,
    predicted_variance,
    sample_scenario,
    true_aod,
)
from .montecarlo import (
    SWEEP_AXES,
    CdfSeries,
    SweepConfig,
    SweepResult,
    TrialConfig,
    TrialDesign,
    TrialResult,
    apply_axis,
    capacity_cdf,
    design_trial,
    run_sweep,
    run_trial,
)
