"""Uniform linear array response, true-time-delay weights, and gain patterns.

Conventions used throughout the package:

* angles are radians at the API boundary of this module (degrees only in
  CSV/CLI land),
* element spacing is expressed in carrier wavelengths,
* the steering phase grows proportionally with the absolute subcarrier
  frequency, so wideband squint is part of the model rather than an
  afterthought.

Phasors over an evenly spaced axis (antenna index, subcarrier index) come from
``_phasor_ramp``, which factors exp(j(x0 + dx*m)) so that an (R, M) matrix
costs about 2*sqrt(M) complex exponentials per row plus one complex product
per entry, instead of M exponentials per row: ``response_matrix`` along the
antennas (any angle per frequency), ``band_steering`` along the subcarriers of
each sub-band (its conjugate, (N, K)).  ``awv_matrix`` keeps plain ``np.exp``.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_phase(phi):
    """Wrap phase (scalar or array) into [-pi, pi)."""
    return np.mod(np.asarray(phi, dtype=float) + np.pi, TWO_PI) - np.pi


def _check_count(name: str, value, low: int = 1) -> None:
    """Raise a ValueError that starts with ``name`` unless ``value`` is an
    integer (numpy integers included) of at least ``low``."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * np.log10(x)


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry and OFDM numerology of the transmit array.

    Parameters
    ----------
    num_antennas : int
        Number of elements in the uniform linear array.
    spacing : float
        Element spacing in carrier wavelengths (0.5 = half wavelength).
    carrier_freq : float
        Carrier frequency f_c in Hz.
    bandwidth : float
        Total signal bandwidth W in Hz.
    num_subcarriers : int
        Number of OFDM subcarriers K across the bandwidth.
    """

    num_antennas: int
    spacing: float
    carrier_freq: float
    bandwidth: float
    num_subcarriers: int

    def __post_init__(self):
        _check_count("num_antennas", self.num_antennas)
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        _check_count("num_subcarriers", self.num_subcarriers)
        if not self.carrier_freq > self.bandwidth / 2:
            raise ValueError("carrier_freq must exceed half the bandwidth")

    @property
    def subcarrier_spacing(self) -> float:
        """Subcarrier width W/K in Hz."""
        return self.bandwidth / self.num_subcarriers

    def band_edges(self) -> tuple[float, float]:
        half = self.bandwidth / 2.0
        return self.carrier_freq - half, self.carrier_freq + half

    def subcarrier_centers(self) -> np.ndarray:
        """Center frequencies of all K subcarriers, Hz, ascending."""
        k = np.arange(self.num_subcarriers)
        lo, _ = self.band_edges()
        return lo + (k + 0.5) * self.subcarrier_spacing

    def default_tau_max(self) -> float:
        """Default delay budget: num_antennas / bandwidth, seconds."""
        return self.num_antennas / self.bandwidth


def _phasor_ramp(start, step, m: int) -> np.ndarray:
    """exp(j(start_r + step_r * i)) for i = 0..m-1, shape (R, m).

    ``start`` and ``step`` are scalars or length-R vectors (broadcast against
    each other).  Writing i = a*B + b with B = ceil(sqrt(m)) takes one
    exponential per (r, a) and one per (r, b); each entry is their product.
    The padded tail past m is sliced off, so any m >= 1 works.
    """
    start, step = np.reshape(start, (-1, 1)), np.reshape(step, (-1, 1))
    fine_len = math.isqrt(m - 1) + 1
    coarse_len = -(-m // fine_len)
    coarse = np.exp(1j * (start + step * (fine_len * np.arange(coarse_len))))  # (R, A)
    fine = np.exp(1j * step * np.arange(fine_len))  # (R, B)
    out = coarse[:, :, None] * fine[:, None, :]
    return out.reshape(out.shape[0], -1)[:, :m]


def _checked_angles(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    bad = theta[~(np.abs(theta) <= np.pi / 2)]
    if bad.size:
        raise ValueError(f"angle of departure {float(bad[0])!r} outside [-pi/2, pi/2]")
    return theta


def response_matrix(theta, freqs: np.ndarray, cfg: ArrayConfig) -> np.ndarray:
    """Steering vectors across frequencies, shape (F, N), toward one angle or
    toward one angle per frequency (``theta`` of shape (F,)).

    Row k is exp(j*n*phase_k) over the antenna index n, built by
    ``_phasor_ramp`` with step phase_k = 2*pi*spacing*sin(theta_k)*f_k/f_c.
    """
    theta = _checked_angles(theta)
    freqs = np.asarray(freqs, dtype=float)
    if theta.size not in (1, freqs.size):
        raise ValueError(
            f"got {theta.size} angles for {freqs.size} frequencies; "
            f"pass one angle or one per frequency"
        )
    phase = TWO_PI * cfg.spacing * np.sin(theta) / cfg.carrier_freq
    return _phasor_ramp(0.0, np.reshape(phase, -1) * np.reshape(freqs, -1), cfg.num_antennas)


def band_steering(angles, cfg: ArrayConfig) -> np.ndarray:
    """Conjugate steering conj(a) over the K subcarrier centers, shape (N, K), toward
    one angle per equal contiguous sub-band (one angle covers the band). The phase
    -n*2*pi*spacing*sin(theta_u)*f_k/f_c is linear in k within sub-band u, so each
    n-major (n, u) is one ``_phasor_ramp`` along k, and the ramps reshape to (N, K)."""
    angles = np.atleast_1d(_checked_angles(angles))
    k = cfg.num_subcarriers
    if angles.size == 0 or k % angles.size:
        raise ValueError(f"{angles.size} angles do not split {k} subcarriers into equal sub-bands")
    per = k // angles.size
    per_hz = -TWO_PI * cfg.spacing * np.sin(angles) / cfg.carrier_freq
    rate = np.outer(np.arange(cfg.num_antennas), per_hz)  # (N, U)
    first = cfg.subcarrier_centers()[::per]
    return _phasor_ramp(rate * first, rate * cfg.subcarrier_spacing, per).reshape(-1, k)


@dataclass(frozen=True)
class AnalogWeights:
    """Per-element phase shifts (radians) and true-time delays (seconds).

    The realized antenna weight vector at frequency f has entries
    exp(j*(phase_n - 2*pi*delay_n*f)) / sqrt(num_antennas), i.e. one common
    phase-shifter plus one delay line per element, normalized to unit power.
    """

    phases: np.ndarray
    delays: np.ndarray

    def __post_init__(self):
        phases = np.atleast_1d(np.asarray(self.phases, dtype=float))
        delays = np.atleast_1d(np.asarray(self.delays, dtype=float))
        if phases.shape != delays.shape or phases.ndim != 1:
            raise ValueError("phases and delays must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(phases)) and np.all(np.isfinite(delays))):
            raise ValueError("phases and delays must be finite")
        if np.any(np.abs(phases) > np.pi + 1e-9):
            raise ValueError("phases must lie in [-pi, pi]")
        if np.any(delays < 0):
            raise ValueError("delays must be non-negative")
        phases.setflags(write=False)
        delays.setflags(write=False)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "delays", delays)

    @property
    def num_antennas(self) -> int:
        return self.phases.shape[0]


def awv_matrix(weights: AnalogWeights, freqs: np.ndarray, cfg: ArrayConfig) -> np.ndarray:
    """Realized weight vectors across frequencies, shape (F, N), rows unit-norm."""
    if weights.num_antennas != cfg.num_antennas:
        raise ValueError("weights sized for a different array")
    freqs = np.asarray(freqs, dtype=float)
    phase = weights.phases[None, :] - TWO_PI * np.outer(freqs, weights.delays)
    return np.exp(1j * phase) / np.sqrt(cfg.num_antennas)


def gain_profile(theta, freqs: np.ndarray, v_rows: np.ndarray, cfg: ArrayConfig) -> np.ndarray:
    """Per-frequency gains |a(theta_k, f_k)^H v_k|^2 for row-matched weights.

    ``v_rows`` holds one weight vector per frequency (shape (F, N)) and
    ``theta`` one angle or one angle per frequency; the sum runs along each
    row of ``response_matrix``, independent of ``band_steering``.
    """
    return np.abs(np.sum(np.conj(response_matrix(theta, freqs, cfg)) * v_rows, axis=1)) ** 2


def _matched_gains(b: np.ndarray, v_cols: np.ndarray) -> np.ndarray:
    """|sum_n b_nk * v_nk|^2 per subcarrier k of two (N, K) arrays, where ``b``
    is ``band_steering`` (already conjugated) and ``v_cols`` the weights."""
    return np.abs(np.sum(b * v_cols, axis=0)) ** 2


def pattern_heatmap(weights: AnalogWeights, theta_grid: np.ndarray, cfg: ArrayConfig) -> np.ndarray:
    """Gain map over (angle, subcarrier), shape (len(theta_grid), K)."""
    v_cols = np.ascontiguousarray(awv_matrix(weights, cfg.subcarrier_centers(), cfg).T)
    theta_grid = np.asarray(theta_grid, dtype=float)
    out = np.empty((theta_grid.size, cfg.num_subcarriers))
    for i, theta in enumerate(theta_grid):
        out[i] = _matched_gains(band_steering(theta, cfg), v_cols)
    return out
