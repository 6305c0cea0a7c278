"""Joint phase-time array solver.

Finds one phase shift and one true-time delay per antenna element so that the
realized per-subcarrier weight vectors align with a prescribed per-subcarrier
target direction profile.  The figure of merit is

    sum_k | v_k(phi, tau)^H u_k |

where u_k is the unit-norm steering vector of target direction g_k at
subcarrier k; each term is at most 1, so the objective is at most K and
equals K only when every subcarrier is perfectly served.

The maximization alternates three closed-form/1-D steps: auxiliary phases
that rotate every inner product onto the positive real axis, a per-element
delay line search, and per-element phases set to the argument of the aligned
sum.  The delay search scans a coarse grid, then refines each element's grid
maximum with a few Newton steps on |S(tau)|^2, where
S(tau) = sum_k c_k exp(j 2 pi tau f_k) has closed-form derivatives.  A step is
taken only where the second derivative is negative, is clamped to one grid
cell either side of the grid maximum (within [0, tau_max]), and the best point
seen, the grid maximum included, is kept.  Each full iteration cannot decrease
the objective, which the returned trace records.

The subcarriers are evenly spaced, so every exp(j 2 pi tau f_k) matrix (grid
scan, delay sums, phase step, inner products) is a row-wise phasor ramp with
start 2 pi tau f_0 and step 2 pi tau df, built by ``arrays._phasor_ramp`` from
about 2*sqrt(K) exponentials per row instead of K.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arrays import (
    TWO_PI,
    AnalogWeights,
    ArrayConfig,
    _phasor_ramp,
    awv_matrix,
    response_matrix,
    wrap_phase,
)

# Newton steps per element and iteration. The default grid samples the
# 1/bandwidth lobe of |S| about 8 times, so the grid maximum starts within one
# cell of the peak; on seeded random sums 4 steps reach it to 1e-7 of a cell
# and 5 to rounding.
NEWTON_STEPS = 5


@dataclass(frozen=True)
class TargetProfile:
    """Per-subcarrier target directions (radians), one entry per subcarrier."""

    directions: np.ndarray
    cfg: ArrayConfig

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.directions, dtype=float))
        if d.size == 0:
            raise ValueError("target profile must contain at least one direction")
        if d.size != self.cfg.num_subcarriers:
            raise ValueError(
                f"profile has {d.size} directions but the array carries "
                f"{self.cfg.num_subcarriers} subcarriers"
            )
        if np.any(np.abs(d) > np.pi / 2) or not np.all(np.isfinite(d)):
            raise ValueError("target directions must lie in [-pi/2, pi/2]")
        d.setflags(write=False)
        object.__setattr__(self, "directions", d)


@dataclass(frozen=True)
class SolverOptions:
    """Stopping and search controls.

    ``objective_tolerance`` and ``tau_max`` may be left as None to use the
    defaults 1e-6 * K and num_antennas / bandwidth respectively.
    """

    max_iters: int = 100
    objective_tolerance: float = None
    tau_max: float = None
    delay_search_resolution: int = 256

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.objective_tolerance is not None and self.objective_tolerance <= 0:
            raise ValueError("objective_tolerance must be positive")
        if self.tau_max is not None and self.tau_max <= 0:
            raise ValueError("tau_max must be positive")
        if self.delay_search_resolution < 2:
            raise ValueError("delay_search_resolution must be >= 2")

    def resolved(self, cfg: ArrayConfig) -> tuple[float, float]:
        tol = self.objective_tolerance
        if tol is None:
            tol = 1e-6 * cfg.num_subcarriers
        tau_max = self.tau_max
        if tau_max is None:
            tau_max = cfg.default_tau_max()
        return tol, tau_max


@dataclass(frozen=True)
class SolverReport:
    """Solver outcome: final weights plus the per-iteration objective trace.

    ``objective_trace[0]`` is the objective of the initial weights and one
    entry follows per iteration; the sequence never decreases by more than
    floating-point slack.
    """

    weights: AnalogWeights
    objective_trace: np.ndarray
    converged: bool

    @property
    def objective(self) -> float:
        return float(self.objective_trace[-1])

    @property
    def iterations(self) -> int:
        return self.objective_trace.size - 1


def jpta_objective(weights: AnalogWeights, profile: TargetProfile) -> float:
    """sum_k |v_k^H u_k| with unit-norm realized and target vectors."""
    cfg = profile.cfg
    freqs = cfg.subcarrier_centers()
    v = awv_matrix(weights, freqs, cfg)
    u = response_matrix(profile.directions, freqs, cfg) / np.sqrt(cfg.num_antennas)
    return float(np.sum(np.abs(np.sum(np.conj(v) * u, axis=1))))


def line_fit_delays(profile: TargetProfile, tau_max: float) -> np.ndarray:
    """Initial delays from a least-squares line through the target profile.

    Fits sin(g_k) * f_k / f_c against frequency; the slope maps to the
    per-element delay decrement and the profile is shifted to start at zero.
    Exact for constant-direction profiles.
    """
    cfg = profile.cfg
    freqs = cfg.subcarrier_centers()
    fb = freqs - cfg.carrier_freq
    y = np.sin(profile.directions) * freqs / cfg.carrier_freq
    if fb.size < 2:
        slope = 0.0
    else:
        fb0 = fb - fb.mean()
        denom = np.dot(fb0, fb0)
        slope = float(np.dot(fb0, y - y.mean()) / denom) if denom > 0 else 0.0
    raw = -np.arange(cfg.num_antennas) * cfg.spacing * slope
    raw -= raw.min()
    return np.clip(raw, 0.0, tau_max)


class _Baseband(NamedTuple):
    """Baseband subcarrier axis fb_k = start + k*step (Hz), k = 0..K-1, with
    the (K, 3) derivative weights [1, j2πfb, (j2πfb)²] of a delay sum."""

    start: float
    step: float
    weights: np.ndarray


def _baseband(cfg: ArrayConfig) -> _Baseband:
    fb = cfg.subcarrier_centers() - cfg.carrier_freq
    jw = 1j * TWO_PI * fb
    weights = np.stack([np.ones_like(jw), jw, jw * jw], axis=1)
    return _Baseband(fb[0], cfg.subcarrier_spacing, weights)


def _delay_sums(c_t: np.ndarray, band: _Baseband, tau: np.ndarray) -> np.ndarray:
    """S, S' and S'' of every element's delay sum, as the columns of an (N, 3) array.

    S_n(tau) = sum_k c_t[n, k] exp(j 2 pi tau_n fb_k): one (N, K) phasor ramp
    and one product with the band's (K, 3) derivative weights.
    """
    rot = _phasor_ramp(TWO_PI * tau * band.start, TWO_PI * tau * band.step, c_t.shape[1])
    return (rot * c_t) @ band.weights


def _refine_delays(c_t: np.ndarray, band: _Baseband, grid: np.ndarray, best: np.ndarray):
    """Refine each element's grid maximum of |S(tau)| by safeguarded Newton ascent.

    Steps by -g'/g'' on g = |S|^2 only where g'' < 0, clamped to one grid cell
    either side of ``grid[best]`` within [grid[0], grid[-1]]. Returns the best
    delay seen per element and its |S|; the grid point itself is the first
    point seen, so the result is never worse than the coarse scan.
    """
    cell = grid[1] - grid[0]
    tau = grid[best]
    lo = np.clip(tau - cell, grid[0], grid[-1])
    hi = np.clip(tau + cell, grid[0], grid[-1])
    cand = tau
    g_cand = np.full(tau.shape, -np.inf)
    for step in range(NEWTON_STEPS + 1):
        s0, s1, s2 = _delay_sums(c_t, band, tau).T
        g = np.abs(s0)
        better = g > g_cand
        cand = np.where(better, tau, cand)
        g_cand = np.where(better, g, g_cand)
        if step == NEWTON_STEPS:
            break
        # g'/2 and g''/2 (the 2 cancels in -g'/g''); no step where g'' >= 0
        d1 = np.real(np.conj(s0) * s1)
        d2 = np.abs(s1) ** 2 + np.real(np.conj(s0) * s2)
        tau = np.clip(tau - d1 / np.where(d2 < 0, d2, np.inf), lo, hi)
    return cand, g_cand


def jpta_solve(profile: TargetProfile, opts: SolverOptions = None) -> SolverReport:
    """Alternating maximization of the per-subcarrier alignment objective.

    Phases start at zero and delays at the line-fit profile.

    Parameters
    ----------
    profile : TargetProfile
    opts : SolverOptions, optional

    Returns
    -------
    SolverReport
        Weights with phases wrapped to [-pi, pi] and delays in [0, tau_max],
        plus the non-decreasing objective trace.
    """
    cfg = profile.cfg
    opts = opts or SolverOptions()
    tol, tau_max = opts.resolved(cfg)

    freqs = cfg.subcarrier_centers()
    num_k = cfg.num_subcarriers
    band = _baseband(cfg)
    u0 = response_matrix(profile.directions, freqs, cfg).T  # (N, K)

    phases = np.zeros(cfg.num_antennas)
    delays = line_fit_delays(profile, tau_max)

    grid = np.linspace(0.0, tau_max, opts.delay_search_resolution)
    e_grid = _phasor_ramp(TWO_PI * grid * band.start, TWO_PI * grid * band.step, num_k)  # (G, K)

    def full_band_ramp(ta, ph=0.0):
        """exp(j(2 pi ta_n f_k - ph_n)) at the full subcarrier frequencies, (N, K)."""
        return _phasor_ramp(TWO_PI * ta * freqs[0] - ph, TWO_PI * ta * band.step, num_k)

    def inner_products(ph, ta):
        return np.mean(u0 * full_band_ramp(ta, ph), axis=0)

    ip = inner_products(phases, delays)
    trace = [float(np.sum(np.abs(ip)))]
    converged = False

    for _ in range(opts.max_iters):
        psi = -np.angle(ip)
        c_t = u0 * np.exp(1j * psi)  # (N, K) coefficients of the per-element sums

        # coarse grid: first index wins ties, i.e. the smallest delay
        mag = np.abs(e_grid @ c_t.T)  # (G, N)
        cand, g_cand = _refine_delays(c_t, band, grid, np.argmax(mag, axis=0))
        g_cur = np.abs(_delay_sums(c_t, band, delays)[:, 0])
        take = (g_cand > g_cur) | ((g_cand == g_cur) & (cand < delays))
        delays = np.where(take, cand, delays)

        # aligned per-element sums at the full (not baseband) frequencies
        phases = wrap_phase(np.angle(np.sum(full_band_ramp(delays) * c_t, axis=1)))

        ip = inner_products(phases, delays)
        trace.append(float(np.sum(np.abs(ip))))
        if trace[-1] - trace[-2] < tol:
            converged = True
            break

    weights = AnalogWeights(phases=phases, delays=delays)
    return SolverReport(
        weights=weights,
        objective_trace=np.asarray(trace),
        converged=converged,
    )
