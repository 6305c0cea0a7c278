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
delay line search (coarse grid plus two golden-section refinement stages),
and per-element phases set to the argument of the aligned sum.  Each full
iteration cannot decrease the objective, which the returned trace records.
"""

from dataclasses import dataclass

import numpy as np

from .arrays import TWO_PI, AnalogWeights, ArrayConfig, awv_matrix, wrap_phase

INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


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


def _target_steering(profile: TargetProfile) -> np.ndarray:
    """Unnormalized target steering matrix U0[k, n] = exp(j*ang_kn)."""
    cfg = profile.cfg
    freqs = cfg.subcarrier_centers()
    n = np.arange(cfg.num_antennas)
    ang = TWO_PI * cfg.spacing / cfg.carrier_freq * np.outer(
        freqs * np.sin(profile.directions), n
    )
    return np.exp(1j * ang)


def jpta_objective(weights: AnalogWeights, profile: TargetProfile) -> float:
    """sum_k |v_k^H u_k| with unit-norm realized and target vectors."""
    cfg = profile.cfg
    freqs = cfg.subcarrier_centers()
    v = awv_matrix(weights, freqs, cfg)
    u = _target_steering(profile) / np.sqrt(cfg.num_antennas)
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


def _golden_stage(g_eval, lo, hi, iters):
    """Vectorized golden-section maximization over [lo, hi] per element."""
    c = hi - INVPHI * (hi - lo)
    d = lo + INVPHI * (hi - lo)
    fc, fd = g_eval(c), g_eval(d)
    for _ in range(iters):
        move_up = fc < fd
        lo = np.where(move_up, c, lo)
        hi = np.where(move_up, hi, d)
        c = hi - INVPHI * (hi - lo)
        d = lo + INVPHI * (hi - lo)
        fc, fd = g_eval(c), g_eval(d)
    return lo, hi


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
    fb = freqs - cfg.carrier_freq
    u0 = _target_steering(profile)  # (K, N)

    phases = np.zeros(cfg.num_antennas)
    delays = line_fit_delays(profile, tau_max)

    grid = np.linspace(0.0, tau_max, opts.delay_search_resolution)
    e_grid = np.exp(1j * TWO_PI * np.outer(grid, fb))  # (G, K)
    cell = grid[1] - grid[0]

    def inner_products(ph, ta):
        rot = np.exp(1j * (TWO_PI * np.outer(freqs, ta) - ph[None, :]))
        return np.mean(u0 * rot, axis=1)

    trace = [float(np.sum(np.abs(inner_products(phases, delays))))]
    converged = False

    for _ in range(opts.max_iters):
        ip = inner_products(phases, delays)
        psi = -np.angle(ip)
        c_mat = np.exp(1j * psi)[:, None] * u0  # (K, N)
        c_t = c_mat.T  # (N, K) view for per-element sums

        def g_eval(tau_vec):
            rot = np.exp(1j * TWO_PI * tau_vec[:, None] * fb[None, :])
            return np.abs(np.sum(rot * c_t, axis=1))

        # coarse grid: first index wins ties, i.e. the smallest delay
        mag = np.abs(e_grid @ c_mat)  # (G, N)
        best = np.argmax(mag, axis=0)
        lo = np.clip(grid[best] - cell, 0.0, tau_max)
        hi = np.clip(grid[best] + cell, 0.0, tau_max)
        lo, hi = _golden_stage(g_eval, lo, hi, 14)
        lo, hi = _golden_stage(g_eval, lo, hi, 14)
        cand = 0.5 * (lo + hi)

        g_cand = g_eval(cand)
        g_cur = g_eval(delays)
        take = (g_cand > g_cur) | ((g_cand == g_cur) & (cand < delays))
        delays = np.where(take, cand, delays)

        # aligned per-element sums at the full (not baseband) frequencies
        rot = np.exp(1j * TWO_PI * np.outer(delays, freqs))
        phases = wrap_phase(np.angle(np.sum(rot * c_t, axis=1)))

        trace.append(float(np.sum(np.abs(inner_products(phases, delays)))))
        if trace[-1] - trace[-2] < tol:
            converged = True
            break

    weights = AnalogWeights(phases=phases, delays=delays)
    return SolverReport(
        weights=weights,
        objective_trace=np.asarray(trace),
        converged=converged,
    )
