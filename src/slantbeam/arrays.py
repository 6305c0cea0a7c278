"""Uniform linear array response, true-time-delay weights, and gain patterns.

Conventions used throughout the package:

* angles are radians at the API boundary of this module (degrees only in
  CSV/CLI land),
* element spacing is expressed in carrier wavelengths,
* the steering phase grows proportionally with the absolute subcarrier
  frequency, so wideband squint is part of the model rather than an
  afterthought,
* every steering or weight matrix is a C-contiguous complex (N, K) array over
  ``ArrayConfig.subcarrier_centers``: row n is antenna n, column k subcarrier k,
* a float input passes one rule, ``_as_float`` for a scalar and
  ``_as_float_array`` for a 1-D array (held read-only); either raises a
  ValueError that starts with the field's name.

Phasors over an evenly spaced axis come from ``_phasor_ramp``, which factors
exp(j(x0 + dx*m)) so that an (R, M) matrix costs about 2*sqrt(M) complex
exponentials per row plus one complex product per entry, instead of M per row.
It takes a start and a step, never a frequency array, so it cannot be handed an
unevenly spaced axis.  ``response_matrix`` ramps along the antennas, so it takes
any angle per subcarrier (the solver's slanted targets change within a band);
``band_steering`` ramps along each sub-band's subcarriers and returns conj(a),
which every beam scores with one product and one sum over the antennas.
``awv_matrix`` keeps plain ``np.exp``.  The scalar one-frequency forms and the
digital genie's matched filter are test oracles in ``tests/oracles.py``.
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
    integer (numpy integers included, bool not) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


def _as_int_array(name: str, values) -> np.ndarray:
    """``values`` as a new int array; a ValueError that starts with ``name`` unless every
    entry is an integer (numpy integers included; bool and float, whole ones too, not)."""
    arr = np.array(values)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{name} must hold integers, got {arr.tolist()!r}")
    return arr.astype(int, copy=False)


def _as_float(name: str, value, sign: str = "") -> float:
    """``value`` as a built-in float, so that a frozen dataclass holding it stays
    hashable; a ValueError that starts with ``name`` unless it is a finite real
    scalar (numpy scalars included; bool and arrays, 0-d ones too, not) that is
    > 0 for ``sign="positive"`` and >= 0 for ``sign="non-negative"``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    signed = {"": True, "positive": value > 0, "non-negative": value >= 0}[sign]
    if not (signed and math.isfinite(value)):
        raise ValueError(f"{name} must be {sign + ' and ' if sign else ''}finite, got {value!r}")
    return value


def _as_float_array(name: str, values, sign: str = "") -> np.ndarray:
    """``values`` as a new read-only 1-D float array (a scalar is one entry), each entry
    checked as ``_as_float`` does; bool (a bool entry of a list too), complex, string, ragged
    and empty input are refused too."""
    try:
        arr = np.array(values, ndmin=1)
    except ValueError:  # a ragged nesting
        raise ValueError(f"{name} must be a non-empty 1-D real array, got a ragged nesting") \
            from None
    if arr.dtype.kind not in "iuf" or arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D real array, got {arr.dtype} of shape "
                         f"{arr.shape}")
    if isinstance(values, (list, tuple)) and any(np.asarray(v).dtype == bool for v in values):
        raise ValueError(f"{name} must be a real array, got a bool entry")
    arr = arr.astype(float, copy=False)
    ok = np.isfinite(arr) & {"": True, "positive": arr > 0, "non-negative": arr >= 0}[sign]
    if not ok.all():
        _as_float(name, arr[~ok][0], sign)  # raises: the first bad entry fails the same rule
    arr.setflags(write=False)
    return arr


def _set_floats(obj, sign: str, *names: str) -> None:
    """Store ``_as_float(name, <field>, sign)`` back into each named field of the
    frozen dataclass ``obj``."""
    for name in names:
        object.__setattr__(obj, name, _as_float(name, getattr(obj, name), sign))


def _set_float_tuple(obj, sign: str, name: str) -> tuple:
    """Store field ``name`` of the frozen dataclass ``obj`` back as the tuple of
    ``_as_float`` of its entries, and return that tuple."""
    values = tuple(_as_float(name, v, sign) for v in getattr(obj, name))
    object.__setattr__(obj, name, values)
    return values


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
        _set_floats(self, "positive", "spacing", "bandwidth")
        _check_count("num_subcarriers", self.num_subcarriers)
        _set_floats(self, "", "carrier_freq")
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


def _phasor_ramp(start, step, m: int, dtype=complex) -> np.ndarray:
    """exp(j(start_r + step_r * i)) for i = 0..m-1, shape (R, m).

    ``start`` and ``step`` are scalars or length-R vectors (broadcast against
    each other).  Writing i = a*B + b with B = ceil(sqrt(m)) takes one
    exponential per (r, a) and one per (r, b); each entry is their product.
    The padded tail past m is sliced off, so any m >= 1 works.  With
    ``dtype=np.complex64`` each complex128 product is rounded as it is
    written, as ``.astype(np.complex64)`` of the complex128 ramp would round
    it, and the complex128 ramp is never held.
    """
    start, step = np.reshape(start, (-1, 1)), np.reshape(step, (-1, 1))
    fine_len = math.isqrt(m - 1) + 1
    coarse_len = -(-m // fine_len)
    coarse = np.exp(1j * (start + step * (fine_len * np.arange(coarse_len))))  # (R, A)
    fine = np.exp(1j * step * np.arange(fine_len))  # (R, B)
    out = np.empty((coarse.shape[0], coarse_len, fine_len), dtype)
    np.multiply(coarse[:, :, None], fine[:, None, :], out=out, casting="same_kind")
    return out.reshape(out.shape[0], -1)[:, :m]


def _checked_angles(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    bad = theta[~(np.abs(theta) <= np.pi / 2)]
    if bad.size:
        raise ValueError(f"angle of departure {float(bad[0])!r} outside [-pi/2, pi/2]")
    return theta


def response_matrix(theta, cfg: ArrayConfig) -> np.ndarray:
    """Steering vectors over the subcarrier centers, shape (N, K), toward one angle
    or one per subcarrier: column k is exp(j*n*phase_k) over the antenna index n,
    a ``_phasor_ramp`` with step phase_k = 2*pi*spacing*sin(theta_k)*f_k/f_c."""
    theta = _checked_angles(theta).ravel()
    k = cfg.num_subcarriers
    if theta.size not in (1, k):
        raise ValueError(f"got {theta.size} angles for {k} subcarriers; pass 1 or {k}")
    step = TWO_PI * cfg.spacing * np.sin(theta) / cfg.carrier_freq * cfg.subcarrier_centers()
    return np.ascontiguousarray(_phasor_ramp(0.0, step, cfg.num_antennas).T)


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
        object.__setattr__(self, "phases", _as_float_array("phases", self.phases))
        object.__setattr__(self, "delays", _as_float_array("delays", self.delays, "non-negative"))
        if self.phases.size != self.delays.size:
            raise ValueError("phases and delays must be of equal length")
        if np.any(np.abs(self.phases) > np.pi + 1e-9):
            raise ValueError("phases must lie in [-pi, pi]")

    @property
    def num_antennas(self) -> int:
        return self.phases.shape[0]


def awv_matrix(weights: AnalogWeights, cfg: ArrayConfig) -> np.ndarray:
    """Realized weight vectors over the subcarrier centers, shape (N, K), columns unit-norm."""
    if weights.num_antennas != cfg.num_antennas:
        raise ValueError("weights sized for a different array")
    phase = weights.phases[:, None] - TWO_PI * np.outer(weights.delays, cfg.subcarrier_centers())
    return np.exp(1j * phase) / np.sqrt(cfg.num_antennas)


def gain_profile(theta, v_cols: np.ndarray, cfg: ArrayConfig) -> np.ndarray:
    """Per-subcarrier gains |a(theta_k, f_k)^H v_k|^2 of (N, K) weight columns toward
    one angle or one per subcarrier; the sum runs along each column of
    ``response_matrix``, independent of ``band_steering``."""
    return np.abs(np.sum(np.conj(response_matrix(theta, cfg)) * v_cols, axis=0)) ** 2


def _matched_gains(b: np.ndarray, v_cols: np.ndarray) -> np.ndarray:
    """|sum_n b_nk * v_nk|^2 per subcarrier k of two (N, K) arrays, where ``b``
    is ``band_steering`` (already conjugated) and ``v_cols`` the weights."""
    return np.abs(np.sum(b * v_cols, axis=0)) ** 2


def pattern_heatmap(weights: AnalogWeights, theta_grid: np.ndarray, cfg: ArrayConfig) -> np.ndarray:
    """Gain map over (angle, subcarrier) of a 1-D angle grid, shape (len(theta_grid), K)."""
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.ndim != 1:
        raise ValueError(f"theta_grid must be 1-D, got shape {theta_grid.shape}")
    v_cols = awv_matrix(weights, cfg)
    out = np.empty((theta_grid.size, cfg.num_subcarriers))
    for i, theta in enumerate(theta_grid):
        out[i] = _matched_gains(band_steering(theta, cfg), v_cols)
    return out
