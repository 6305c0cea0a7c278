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
the objective beyond rounding, which the returned trace records.

The subcarriers are evenly spaced, so every exp(j 2 pi tau f_k) matrix (grid
scan, moment expansion, steered product) is a row-wise phasor ramp with start
2 pi tau f_0 and step 2 pi tau df, built by ``arrays._phasor_ramp`` from about
2*sqrt(K) exponentials per row instead of K.

One (N, K) array lives across iterations: the steered product
prod[n, k] = u0[n, k] exp(j 2 pi tau_n f_k) at the current delays, with u0
C-contiguous. With rot = exp(j psi) for the auxiliary phases psi, prod @ rot
is every element's sum at the full frequencies, which differs from the
baseband S_n by one phase per row: its magnitude is the current delays' |S|
for the take rule, and once the delays have moved and prod is rebuilt, its
argument is the phase step. exp(-j phi) @ prod / N gives the inner products.
The take rule thus compares the refinement's |S| (the expansion's ramp times
the baseband derivative weights) with the current |S| from prod @ rot; the two
add the same terms in different orders, so they agree only to rounding, and
where rounding decides the comparison the objective may fall by a few units
of roundoff, far inside the 1e-9 slack the trace is held to.

Newton points never leave one grid cell of the grid maximum tau0, so the
refinement expands each delay sum once about tau0 instead of summing over the
band at every point: with x = (tau - tau0)/cell, S is a sum over blocks of
exp(j w_b x) P_b(x), where w_b is the block centre's phase and P_b a degree
M-1 polynomial whose coefficients are the block's Taylor moments, one (N, K)
by (K, M) product with a table built once per solve. Blocks keep every
block's radius at most 1, so the series never cancels: the default grid
(r = 2 pi max|fb| cell = pi N/255) needs one block, a coarse grid or a long
delay budget more. M is the least term count whose truncation of S, S' and
S'' stays below one unit roundoff of their scale (16 at N = 32). Each Newton
point then costs O(N M) per block, and an iteration builds two (N, K) ramps,
the expansion and the rebuilt steered product; the current |S|, the phase
step and the inner products are matrix-vector products with prod.

The grid scan runs in single precision, and its (G, K) matrix exists only in
complex64: ``_phasor_ramp`` rounds each entry as it writes it, as a cast of
the complex128 matrix would. The refinement and the take rule compare in
float64, so the scan matters only through which grid index wins, and that
index is the complex128 scan's: ``_scan_error_bound`` bounds the float32 error
of every element's |S| by 4 (K+2) 2^-24 sum_k |u0[n, k]|, and where a second
grid index lies within twice that bound of the float32 top, only those
candidate rows are rebuilt in complex128 and the first index of their largest
|S| wins (the smallest delay, as in a complex128 scan).

Each iteration allocates c_t's complex64 copy for the scan and the two ramps
as (N, K) arrays. c_t = u0 rot is written into prod's buffer once the current
|S| is read, and that buffer is freed before the rebuilt prod is built; the
expansion's product with c_t is written into its ramp (into a zero-padded
buffer instead when its moment blocks do not tile K), and the rebuilt prod's
product with u0 into its ramp. One full-scale solve (K = 1200, N = 32, the
default 256-point grid) peaks at 4.91 MiB traced, 2.34 MiB of it the
complex64 grid matrix.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arrays import (
    TWO_PI,
    AnalogWeights,
    ArrayConfig,
    _check_count,
    _phasor_ramp,
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
    defaults 1e-6 * K and num_antennas / bandwidth respectively; a value given
    must be positive and finite.
    """

    max_iters: int = 100
    objective_tolerance: float = None
    tau_max: float = None
    delay_search_resolution: int = 256

    def __post_init__(self):
        _check_count("max_iters", self.max_iters)
        for name in ("objective_tolerance", "tau_max"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        _check_count("delay_search_resolution", self.delay_search_resolution, 2)

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


class _Moments(NamedTuple):
    """Taylor moments of exp(j 2 pi d fb_k) for delay offsets |d| <= ``cell``.

    The subcarriers split into ``centers.size`` blocks of ``table.shape[0]``,
    the last one zero-padded. With x = d/cell, subcarrier l of block b has
    2 pi d fb = (w_b + u_l) x, where w_b = ``centers[b]`` is the block centre's
    phase at x = 1 and u_l = 2 pi cell df (l - (L-1)/2) is the same in every
    block. ``table[l, m]`` = (j u_l)^m / m!.
    """

    cell: float
    centers: np.ndarray
    table: np.ndarray


def _taylor_moments(band: _Baseband, cell: float, num_k: int) -> _Moments:
    """Moments for the delay grid spacing ``cell``.

    Blocks are as few and as even as keeps each block's radius
    rho = max|u_l| <= 1: one block on the default grid (r = 2 pi max|fb| cell
    = pi N/255), more on a coarse grid or a long delay budget. The term count
    M is the least with rho^(M-2)/(M-2)! <= 2^-54, so truncating P, P' and P''
    costs at most one unit roundoff of sum|a|, sum|a|*rho and sum|a|*rho^2 (the
    tail after the first omitted term is at most as large again).
    """
    w_step = TWO_PI * cell * band.step
    max_len = num_k if (num_k - 1) * w_step <= 2.0 else int(2.0 / w_step) + 1
    num_blocks = -(-num_k // max_len)
    block_len = -(-num_k // num_blocks)
    rho = 0.5 * (block_len - 1) * w_step
    n = 1
    while rho**n / math.factorial(n) > 2.0**-54:
        n += 1
    terms = n + 2
    u = w_step * (np.arange(block_len) - 0.5 * (block_len - 1))
    table = np.vander(1j * u, terms, increasing=True) / np.cumprod([1.0, *range(1, terms)])
    first = band.start + 0.5 * (block_len - 1) * band.step
    centers = TWO_PI * cell * (first + block_len * band.step * np.arange(num_blocks))
    return _Moments(cell, centers, table)


def _moment_expansion(c_t: np.ndarray, band: _Baseband, moments: _Moments, tau0: np.ndarray):
    """Expand every element's delay sum about its own tau0 = tau0[n].

    One (N, K) phasor ramp moves the terms to tau0. Their product with the
    band's (K, 3) derivative weights gives S, S' and S'' at tau0, (N, 3); their
    product with the moment table gives the coefficients that ``_moment_sums``
    evaluates at any tau0 + x*cell, |x| <= 1.
    """
    num_n, num_k = c_t.shape
    block_len, terms = moments.table.shape
    num_blocks = moments.centers.size
    rot = _phasor_ramp(TWO_PI * tau0 * band.start, TWO_PI * tau0 * band.step, num_k)
    if num_blocks * block_len == num_k:  # the blocks tile the band (one block by default)
        padded = np.multiply(rot, c_t, out=rot)
    else:  # zero-pad the ragged last block
        padded = np.zeros((num_n, num_blocks * block_len), dtype=complex)
        np.multiply(rot, c_t, out=padded[:, :num_k])
    sums = padded[:, :num_k] @ band.weights
    p = (padded.reshape(-1, block_len) @ moments.table).reshape(num_n, num_blocks, terms)
    # block b adds exp(j w_b x) P_b(x) to S, so exp(j w_b x) multiplies
    # P, P' + jw P and P'' + 2jw P' + (jw)^2 P in S, dS/dx and d2S/dx2;
    # their x-coefficients, scaled to derivatives in tau, are (N, 3, B, M)
    m = np.arange(terms)
    coef = np.zeros((num_n, 3, num_blocks, terms), dtype=complex)
    coef[:, 0] = p
    coef[:, 1, :, :-1] = p[..., 1:] * m[1:]
    coef[:, 2, :, :-2] = coef[:, 1, :, 1:-1] * m[1:-1]
    jw = 1j * moments.centers[:, None]
    coef[:, 2] += jw * (2.0 * coef[:, 1] + jw * p)
    coef[:, 1] += jw * p
    coef /= np.array([1.0, moments.cell, moments.cell**2])[:, None, None]
    return sums, coef.reshape(num_n, 3, -1)


def _moment_sums(coef: np.ndarray, moments: _Moments, x: np.ndarray) -> np.ndarray:
    """S, S' and S'' of every element's delay sum at tau0[n] + x[n]*cell, (N, 3)."""
    powers = np.empty((moments.table.shape[1], x.size))
    powers[0] = 1.0
    powers[1:] = x
    np.multiply.accumulate(powers, axis=0, out=powers)  # x^m, (M, N)
    basis = np.exp(1j * moments.centers[:, None] * x)[:, None, :] * powers  # (B, M, N)
    return (coef @ basis.reshape(-1, x.size).T[:, :, None])[..., 0]


def _refine_delays(c_t: np.ndarray, band: _Baseband, moments: _Moments, grid: np.ndarray,
                   best: np.ndarray):
    """Refine each element's grid maximum of |S(tau)| by safeguarded Newton ascent.

    Steps by -g'/g'' on g = |S|^2 only where g'' < 0, clamped to one grid cell
    either side of ``grid[best]`` within [grid[0], grid[-1]]. Returns the best
    delay seen per element and its |S|; the grid point itself is the first
    point seen, so the result is never worse than the coarse scan. The grid
    point's sums are the expansion's ramp times the band's derivative weights,
    and every Newton point's come from the expansion's moments.
    """
    cell = moments.cell
    tau0 = grid[best]
    lo = np.clip(tau0 - cell, grid[0], grid[-1])
    hi = np.clip(tau0 + cell, grid[0], grid[-1])
    sums, coef = _moment_expansion(c_t, band, moments, tau0)
    tau = tau0
    cand = tau
    g_cand = np.abs(sums[:, 0])
    for _ in range(NEWTON_STEPS):
        s0, s1, s2 = sums.T
        # g'/2 and g''/2 (the 2 cancels in -g'/g''); no step where g'' >= 0
        d1 = np.real(np.conj(s0) * s1)
        d2 = np.abs(s1) ** 2 + np.real(np.conj(s0) * s2)
        tau = np.clip(tau - d1 / np.where(d2 < 0, d2, np.inf), lo, hi)
        sums = _moment_sums(coef, moments, (tau - tau0) / cell)
        g = np.abs(sums[:, 0])
        better = g > g_cand
        cand = np.where(better, tau, cand)
        g_cand = np.where(better, g, g_cand)
    return cand, g_cand


def _scan_error_bound(u0: np.ndarray) -> np.ndarray:
    """Per-element bound on | |S|_32 - |S|_64 | over the delay grid, (N,).

    |S|_32 is ``_grid_argmax``'s single-precision |e_grid @ c_t[n]| and |S|_64
    the same product in complex128, over K terms with |e| = 1 and
    |c_t[n, k]| = |u0[n, k]| (psi only rotates). With u = 2^-24 and
    A = sum_k |u0[n, k]|, rounding e and c_t to complex64 moves each product
    by at most 2u|e||c|, the complex64 dot product errs by at most
    sqrt(2) gamma_(K+2) A in any summation order (Higham, complex inner
    products), and |.| in float32 by at most 2u A: about (sqrt(2)(K+2) + 4)u A
    in all. The complex128 product errs by 2^-29 times as much. 4(K+2)u A
    covers the sum for every K >= 1 with room for the last bits of |e| and A.
    """
    return 4.0 * (u0.shape[1] + 2) * 2.0**-24 * np.abs(u0).sum(axis=1)


def _grid_argmax(grid: np.ndarray, e_grid32: np.ndarray, band: _Baseband, c_t: np.ndarray,
                 bound: np.ndarray) -> np.ndarray:
    """Each element's first grid index of the complex128 maximum of |S(grid[g])|, (N,).

    Scans |e_grid32 @ c_t.T| in complex64. An element whose float32 magnitudes
    put a second grid index within 2*bound[n] of its top may have its
    complex128 maximum at any index so near, and only there: those candidate
    rows are rebuilt in complex128 (bit for bit the rows of the complex128
    grid matrix) and the first candidate with the largest complex128 |S| wins.
    Indices that tie in exact arithmetic are told apart by the last bits of
    the (C, K) product, which BLAS may round differently from a (G, K) one.
    """
    num_n, num_k = c_t.shape
    mag = np.abs(e_grid32 @ c_t.T.astype(np.complex64))  # (G, N) float32
    best = np.argmax(mag, axis=0)
    near = mag >= mag[best, np.arange(num_n)] - 2.0 * bound
    tied = np.flatnonzero(np.count_nonzero(near, axis=0) > 1)
    if tied.size:
        rows = np.flatnonzero(near[:, tied].any(axis=1))
        e_rows = _phasor_ramp(TWO_PI * grid[rows] * band.start, TWO_PI * grid[rows] * band.step,
                              num_k)
        exact = np.where(near[rows], np.abs(e_rows @ c_t.T), -1.0)  # (C, N)
        best[tied] = rows[np.argmax(exact[:, tied], axis=0)]
    return best


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
        plus the objective trace, non-decreasing up to rounding.
    """
    cfg = profile.cfg
    opts = opts or SolverOptions()
    tol, tau_max = opts.resolved(cfg)

    freqs = cfg.subcarrier_centers()
    num_k = cfg.num_subcarriers
    band = _baseband(cfg)
    u0 = np.ascontiguousarray(response_matrix(profile.directions, freqs, cfg).T)  # (N, K)

    phases = np.zeros(cfg.num_antennas)
    delays = line_fit_delays(profile, tau_max)

    grid = np.linspace(0.0, tau_max, opts.delay_search_resolution)
    moments = _taylor_moments(band, grid[1] - grid[0], num_k)
    e_grid32 = _phasor_ramp(TWO_PI * grid * band.start, TWO_PI * grid * band.step, num_k,
                            np.complex64)  # (G, K)
    bound = _scan_error_bound(u0)

    def steered(ta):
        """u0[n, k] exp(j 2 pi ta_n f_k) at the full subcarrier frequencies, written
        into its ramp, (N, K)."""
        ramp = _phasor_ramp(TWO_PI * ta * freqs[0], TWO_PI * ta * band.step, num_k)
        return np.multiply(ramp, u0, out=ramp)

    prod = steered(delays)
    ip = np.exp(-1j * phases) @ prod / cfg.num_antennas
    trace = [float(np.sum(np.abs(ip)))]
    converged = False

    for _ in range(opts.max_iters):
        rot = np.exp(-1j * np.angle(ip))  # exp(j psi), psi the auxiliary phases
        # |S_n| at the current delays, at the full frequencies: the baseband
        # sums differ by the phase exp(j 2 pi delays_n f_c) alone
        g_cur = np.abs(prod @ rot)
        c_t = np.multiply(u0, rot, out=prod)  # (N, K) coefficients of the per-element sums

        # coarse grid: first index wins ties, i.e. the smallest delay
        best = _grid_argmax(grid, e_grid32, band, c_t, bound)
        cand, g_cand = _refine_delays(c_t, band, moments, grid, best)
        # g_cand and g_cur add the same terms in different orders: equal to rounding
        take = (g_cand > g_cur) | ((g_cand == g_cur) & (cand < delays))
        delays = np.where(take, cand, delays)

        del c_t, prod  # free the buffer before the rebuilt product takes one
        prod = steered(delays)
        phases = wrap_phase(np.angle(prod @ rot))
        ip = np.exp(-1j * phases) @ prod / cfg.num_antennas
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
