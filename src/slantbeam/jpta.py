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
the objective beyond rounding, which the returned trace records, and the solver
is deterministic.

Everything a solve reads from the array and the options alone is one private
plan, built by ``_plan(cfg, opts)``: the resolved tolerance, the delay grid
(its last point is tau_max) and its (G, K) complex64 grid matrix, the
subcarrier frequencies, the baseband axis with its (K, 3) derivative weights,
and the moment table below. It depends on the two frozen dataclasses alone, so
``_plan`` caches the last one built (``functools.lru_cache(maxsize=1)``), its
arrays read-only: the solves of a run, one per stepped-genie instant too, share
it. A solve is that plan, its start (the steering matrix u0 and the line-fit
delays) and the loop ``_ascend(plan, u0, delays, max_iters)``, which takes any
start and the iteration budget as arguments, so that a probe from another
start shares the run's plan and u0 and the plan holds no budget.

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
argument is the phase step. exp(-j phi) @ prod / N gives the inner products,
whose magnitudes are the objective's terms; the report keeps the last ones as
``alignment``, so a caller scores the weights toward the targets (the stepped
genie's gains N |ip_k|^2) without rebuilding them.
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
by (K, M) product with the plan's table. Blocks keep every block's radius at
most 1, so the series never cancels: the default grid (r = 2 pi max|fb| cell
= pi N/255, 0.39 at N = 32) needs one block, a coarse grid or a long delay
budget (``[design] tau_max_ns``) more. M is the least term count whose
truncation of S, S' and S'' stays below one unit roundoff of their scale
(16 at N = 32, 12 at N = 8). Each Newton point then costs O(N M) per block,
and an iteration builds two (N, K) ramps, the expansion and the rebuilt
steered product; the current |S|, the phase step and the inner products are
matrix-vector products with prod.

The grid scan runs in single precision, and its (G, K) matrix exists only in
complex64: ``_phasor_ramp`` rounds each entry as it writes it, as a cast of
the complex128 matrix would. The float32 |S| of element n is within
4 (K+2) 2^-24 sum_k |u0[n, k]| of its complex128 value (c_t only rotates u0),
so the grid index it picks, the first of its maxima (the smallest delay), has
a complex128 |S| within twice that of the grid maximum. The refinement and
the take rule compare in float64.

Each iteration allocates c_t's complex64 copy for the scan and the two ramps
as (N, K) arrays. c_t = u0 rot is written into prod's buffer once the current
|S| is read, and that buffer is freed before the rebuilt prod is built; the
expansion's product with c_t is written into its ramp (into a zero-padded
buffer instead when its moment blocks do not tile K), and the rebuilt prod's
product with u0 into its ramp. One full-scale solve (K = 1200, N = 32, the
default 256-point grid) that builds its plan peaks at 4.91 MiB traced, 2.34
MiB of it the complex64 grid matrix; in complex128 that matrix alone would
take 4.7 MiB. The cached plan keeps the grid matrix resident between solves,
so a process holds those 2.34 MiB from its first solve until the cache is
cleared, and a solve on the cached plan adds only the rest of the peak. The
``pattern`` command clears it (``_plan.cache_clear()``) once its designs are
solved, since nothing after that solves; the next solve rebuilds the plan in
about 1.7 ms at K=1200.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arrays import (
    TWO_PI,
    AnalogWeights,
    ArrayConfig,
    _as_float_array,
    _check_count,
    _checked_angles,
    _phasor_ramp,
    _set_floats,
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
        d = _checked_angles(_as_float_array("directions", self.directions))
        if d.size != self.cfg.num_subcarriers:
            raise ValueError(
                f"profile has {d.size} directions but the array carries "
                f"{self.cfg.num_subcarriers} subcarriers"
            )
        object.__setattr__(self, "directions", d)


@dataclass(frozen=True)
class SolverOptions:
    """Stopping and search controls.

    ``objective_tolerance`` and ``tau_max`` may be left as None to use the
    defaults 1e-6 * K and num_antennas / bandwidth respectively; a value given
    must be positive and passes ``arrays._as_float``, which keeps it as a
    built-in float, so that the options hash as the key of the solver's plan cache.
    """

    max_iters: int = 100
    objective_tolerance: float = None
    tau_max: float = None
    delay_search_resolution: int = 256

    def __post_init__(self):
        _check_count("max_iters", self.max_iters)
        _set_floats(self, "positive", *(name for name in ("objective_tolerance", "tau_max")
                                        if getattr(self, name) is not None))
        _check_count("delay_search_resolution", self.delay_search_resolution, 2)


@dataclass(frozen=True)
class SolverReport:
    """Solver outcome: final weights plus the per-iteration objective trace.

    ``objective_trace[0]`` is the objective of the initial weights and one
    entry follows per iteration; the sequence never decreases by more than
    floating-point slack. ``alignment`` holds the final weights' terms
    |v_k^H u_k|, read-only, (K,); the objective is their sum, bit for bit, and
    N * alignment**2 are the weights' gains toward the target directions.
    """

    weights: AnalogWeights
    objective_trace: np.ndarray
    converged: bool
    alignment: np.ndarray

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
    fb0 = fb - fb.mean()
    denom = np.dot(fb0, fb0)
    slope = float(np.dot(fb0, y - y.mean()) / denom) if denom > 0 else 0.0
    raw = -np.arange(cfg.num_antennas) * cfg.spacing * slope
    raw -= raw.min()
    return np.clip(raw, 0.0, tau_max)


class _Plan(NamedTuple):
    """Everything a solve reads from the array and the options alone.

    ``grid[-1]`` is tau_max exactly (``np.linspace`` writes its endpoint). The
    baseband axis is fb_k = ``start`` + k*``step`` (Hz), and ``weights`` are a
    delay sum's (K, 3) derivative weights [1, j2πfb, (j2πfb)²]. The moment
    fields expand exp(j 2 pi d fb_k) for |d| <= ``cell``, the grid spacing, in
    ``centers.size`` blocks of ``table.shape[0]`` subcarriers, the last one
    zero-padded: with x = d/cell, subcarrier l of block b has 2 pi d fb =
    (w_b + u_l) x, where w_b = ``centers[b]`` is the block centre's phase at
    x = 1 and u_l = 2 pi cell df (l - (L-1)/2). ``table[l, m]`` = (j u_l)^m / m!.
    """

    tol: float
    grid: np.ndarray
    e_grid32: np.ndarray
    freqs: np.ndarray
    start: float
    step: float
    weights: np.ndarray
    cell: float
    centers: np.ndarray
    table: np.ndarray


@functools.lru_cache(maxsize=1)
def _plan(cfg: ArrayConfig, opts: SolverOptions) -> _Plan:
    """The plan of a solve on ``cfg`` with ``opts``, defaults resolved, its
    arrays read-only. The last plan built is cached, keyed by the (equal, hash
    equal) frozen pair, so the solves of one run build it once.

    Moment blocks are as few and as even as keeps each block's radius
    rho = max|u_l| <= 1. The term count M is the least with
    rho^(M-2)/(M-2)! <= 2^-54, so truncating P, P' and P'' costs at most one
    unit roundoff of sum|a|, sum|a|*rho and sum|a|*rho^2 (the tail after the
    first omitted term is at most as large again).
    """
    num_k = cfg.num_subcarriers
    tol = 1e-6 * num_k if opts.objective_tolerance is None else opts.objective_tolerance
    tau_max = cfg.default_tau_max() if opts.tau_max is None else opts.tau_max
    freqs = cfg.subcarrier_centers()
    fb = freqs - cfg.carrier_freq
    start, step = fb[0], cfg.subcarrier_spacing
    jw = 1j * TWO_PI * fb
    weights = np.stack([np.ones_like(jw), jw, jw * jw], axis=1)
    grid = np.linspace(0.0, tau_max, opts.delay_search_resolution)
    e_grid32 = _phasor_ramp(TWO_PI * grid * start, TWO_PI * grid * step, num_k, np.complex64)

    cell = grid[1] - grid[0]
    w_step = TWO_PI * cell * step
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
    first = start + 0.5 * (block_len - 1) * step
    centers = TWO_PI * cell * (first + block_len * step * np.arange(num_blocks))
    for array in (grid, e_grid32, freqs, weights, centers, table):
        array.setflags(write=False)
    return _Plan(tol, grid, e_grid32, freqs, start, step, weights, cell, centers, table)


def _moment_expansion(c_t: np.ndarray, plan: _Plan, tau0: np.ndarray):
    """Expand every element's delay sum about its own tau0 = tau0[n].

    One (N, K) phasor ramp moves the terms to tau0. Their product with the
    plan's (K, 3) derivative weights gives S, S' and S'' at tau0, (N, 3); their
    product with the moment table gives the coefficients that ``_moment_sums``
    evaluates at any tau0 + x*cell, |x| <= 1.
    """
    num_n, num_k = c_t.shape
    block_len, terms = plan.table.shape
    num_blocks = plan.centers.size
    rot = _phasor_ramp(TWO_PI * tau0 * plan.start, TWO_PI * tau0 * plan.step, num_k)
    if num_blocks * block_len == num_k:  # the blocks tile the band (one block by default)
        padded = np.multiply(rot, c_t, out=rot)
    else:  # zero-pad the ragged last block
        padded = np.zeros((num_n, num_blocks * block_len), dtype=complex)
        np.multiply(rot, c_t, out=padded[:, :num_k])
    sums = padded[:, :num_k] @ plan.weights
    p = (padded.reshape(-1, block_len) @ plan.table).reshape(num_n, num_blocks, terms)
    # block b adds exp(j w_b x) P_b(x) to S, so exp(j w_b x) multiplies
    # P, P' + jw P and P'' + 2jw P' + (jw)^2 P in S, dS/dx and d2S/dx2;
    # their x-coefficients, scaled to derivatives in tau, are (N, 3, B, M)
    m = np.arange(terms)
    coef = np.zeros((num_n, 3, num_blocks, terms), dtype=complex)
    coef[:, 0] = p
    coef[:, 1, :, :-1] = p[..., 1:] * m[1:]
    coef[:, 2, :, :-2] = coef[:, 1, :, 1:-1] * m[1:-1]
    jw = 1j * plan.centers[:, None]
    coef[:, 2] += jw * (2.0 * coef[:, 1] + jw * p)
    coef[:, 1] += jw * p
    coef /= np.array([1.0, plan.cell, plan.cell**2])[:, None, None]
    return sums, coef.reshape(num_n, 3, -1)


def _moment_sums(coef: np.ndarray, plan: _Plan, x: np.ndarray) -> np.ndarray:
    """S, S' and S'' of every element's delay sum at tau0[n] + x[n]*cell, (N, 3)."""
    powers = np.empty((plan.table.shape[1], x.size))
    powers[0] = 1.0
    powers[1:] = x
    np.multiply.accumulate(powers, axis=0, out=powers)  # x^m, (M, N)
    basis = np.exp(1j * plan.centers[:, None] * x)[:, None, :] * powers  # (B, M, N)
    return (coef @ basis.reshape(-1, x.size).T[:, :, None])[..., 0]


def _refine_delays(c_t: np.ndarray, plan: _Plan, best: np.ndarray):
    """Refine each element's grid maximum of |S(tau)| by safeguarded Newton ascent.

    Steps by -g'/g'' on g = |S|^2 only where g'' < 0, clamped to one grid cell
    either side of ``plan.grid[best]`` within the grid. Returns the best
    delay seen per element and its |S|; the grid point itself is the first
    point seen, so the result is never worse than the coarse scan. The grid
    point's sums are the expansion's ramp times the plan's derivative weights,
    and every Newton point's come from the expansion's moments.
    """
    grid, cell = plan.grid, plan.cell
    tau0 = grid[best]
    lo = np.clip(tau0 - cell, grid[0], grid[-1])
    hi = np.clip(tau0 + cell, grid[0], grid[-1])
    sums, coef = _moment_expansion(c_t, plan, tau0)
    tau = tau0
    cand = tau
    g_cand = np.abs(sums[:, 0])
    for _ in range(NEWTON_STEPS):
        s0, s1, s2 = sums.T
        # g'/2 and g''/2 (the 2 cancels in -g'/g''); no step where g'' >= 0
        d1 = np.real(np.conj(s0) * s1)
        d2 = np.abs(s1) ** 2 + np.real(np.conj(s0) * s2)
        tau = np.clip(tau - d1 / np.where(d2 < 0, d2, np.inf), lo, hi)
        sums = _moment_sums(coef, plan, (tau - tau0) / cell)
        g = np.abs(sums[:, 0])
        better = g > g_cand
        cand = np.where(better, tau, cand)
        g_cand = np.where(better, g, g_cand)
    return cand, g_cand


def _ascend(plan: _Plan, u0: np.ndarray, delays: np.ndarray, max_iters: int) -> SolverReport:
    """The alternating maximization from zero phases and ``delays``, toward the
    C-contiguous (N, K) steering matrix ``u0``, for at most ``max_iters``
    iterations; it stops early once an iteration gains less than ``plan.tol``."""
    num_n, num_k = u0.shape
    phases = np.zeros(num_n)

    def steered(ta):
        """u0[n, k] exp(j 2 pi ta_n f_k) at the full subcarrier frequencies, written
        into its ramp, (N, K)."""
        ramp = _phasor_ramp(TWO_PI * ta * plan.freqs[0], TWO_PI * ta * plan.step, num_k)
        return np.multiply(ramp, u0, out=ramp)

    prod = steered(delays)
    trace = []
    while True:
        ip = np.exp(-1j * phases) @ prod / num_n
        alignment = np.abs(ip)
        trace.append(float(np.sum(alignment)))
        converged = len(trace) > 1 and trace[-1] - trace[-2] < plan.tol
        if converged or len(trace) > max_iters:
            break
        rot = np.exp(-1j * np.angle(ip))  # exp(j psi), psi the auxiliary phases
        # |S_n| at the current delays, at the full frequencies: the baseband
        # sums differ by the phase exp(j 2 pi delays_n f_c) alone
        g_cur = np.abs(prod @ rot)
        c_t = np.multiply(u0, rot, out=prod)  # (N, K) coefficients of the per-element sums

        # coarse grid: first index wins ties, i.e. the smallest delay
        best = np.argmax(np.abs(plan.e_grid32 @ c_t.T.astype(np.complex64)), axis=0)
        cand, g_cand = _refine_delays(c_t, plan, best)
        # g_cand and g_cur add the same terms in different orders: equal to rounding
        take = (g_cand > g_cur) | ((g_cand == g_cur) & (cand < delays))
        delays = np.where(take, cand, delays)

        del c_t, prod  # free the buffer before the rebuilt product takes one
        prod = steered(delays)
        phases = wrap_phase(np.angle(prod @ rot))

    alignment.setflags(write=False)
    return SolverReport(AnalogWeights(phases, delays), np.asarray(trace), converged, alignment)


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
    opts = opts or SolverOptions()
    plan = _plan(profile.cfg, opts)
    u0 = response_matrix(profile.directions, profile.cfg)  # (N, K)
    return _ascend(plan, u0, line_fit_delays(profile, plan.grid[-1]), opts.max_iters)
