import tracemalloc

import numpy as np
import pytest

from slantbeam import jpta
from slantbeam.arrays import TWO_PI, AnalogWeights, ArrayConfig, _phasor_ramp, response_matrix
from slantbeam.jpta import (
    SolverOptions,
    SolverReport,
    TargetProfile,
    _baseband,
    _grid_argmax,
    _moment_expansion,
    _moment_sums,
    _refine_delays,
    _scan_error_bound,
    _taylor_moments,
    jpta_solve,
    line_fit_delays,
)

from oracles import delay_sums, jpta_objective

CFG64 = ArrayConfig(num_antennas=32, spacing=0.5, carrier_freq=60e9, bandwidth=2e9, num_subcarriers=64)


def exact_constant_weights(theta: float, cfg: ArrayConfig) -> AnalogWeights:
    """Closed-form delay-only weights serving one direction on every subcarrier."""
    raw = -np.arange(cfg.num_antennas) * cfg.spacing * np.sin(theta) / cfg.carrier_freq
    return AnalogWeights(np.zeros(cfg.num_antennas), raw - raw.min())


class TestObjective:
    def test_hand_aligned_two_by_two(self):
        # written out long-hand: 2 antennas, 2 subcarriers, both targets 30 deg
        cfg = ArrayConfig(2, 0.5, 60e9, 2e9, 2)
        theta = np.deg2rad(30.0)
        tau1 = 0.5 * np.sin(theta) / 60e9  # element-1 delay that undoes the tilt
        w = AnalogWeights(np.zeros(2), np.array([tau1, 0.0]))
        freqs = np.array([59.5e9, 60.5e9])
        total = 0.0
        for f in freqs:
            v = np.exp(1j * (0.0 - 2 * np.pi * np.array([tau1, 0.0]) * f)) / np.sqrt(2)
            u = np.exp(1j * 2 * np.pi * np.arange(2) * 0.5 * np.sin(theta) * f / 60e9) / np.sqrt(2)
            total += abs(np.vdot(v, u))
        assert total == pytest.approx(2.0, abs=1e-12)
        profile = TargetProfile(np.full(2, theta), cfg)
        assert jpta_objective(w, profile) == pytest.approx(total, abs=1e-12)

    def test_bounded_by_num_subcarriers(self):
        rng = np.random.default_rng(0)
        profile = TargetProfile(rng.uniform(-1.0, 1.0, 64), CFG64)
        w = AnalogWeights(
            np.random.default_rng(1).uniform(-np.pi, np.pi, 32),
            np.random.default_rng(2).uniform(0, 16e-9, 32),
        )
        assert 0.0 <= jpta_objective(w, profile) <= 64.0 + 1e-9

    def test_common_delay_shift_invariance(self):
        rng = np.random.default_rng(3)
        profile = TargetProfile(np.linspace(-0.2, 0.2, 64), CFG64)
        w = AnalogWeights(rng.uniform(-np.pi, np.pi, 32), rng.uniform(0, 4e-9, 32))
        shifted = AnalogWeights(w.phases, w.delays + 2.7e-9)
        assert jpta_objective(shifted, profile) == pytest.approx(
            jpta_objective(w, profile), abs=1e-9
        )

    def test_single_antenna_is_always_perfect(self):
        cfg = ArrayConfig(1, 0.5, 60e9, 2e9, 16)
        profile = TargetProfile(np.linspace(-0.5, 0.5, 16), cfg)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            w = AnalogWeights(rng.uniform(-np.pi, np.pi, 1), rng.uniform(0, 8e-9, 1))
            assert jpta_objective(w, profile) == pytest.approx(16.0, abs=1e-9)


class TestTargetProfile:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TargetProfile(np.array([]), CFG64)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TargetProfile(np.zeros(63), CFG64)

    def test_out_of_halfplane_rejected(self):
        bad = np.zeros(64)
        bad[10] = 2.0
        with pytest.raises(ValueError):
            TargetProfile(bad, CFG64)


class TestLineFitInit:
    def test_exact_for_constant_profile(self):
        theta = np.deg2rad(20.0)
        profile = TargetProfile(np.full(64, theta), CFG64)
        delays = line_fit_delays(profile, 16e-9)
        expected = exact_constant_weights(theta, CFG64).delays
        np.testing.assert_allclose(delays, expected, atol=1e-18)
        w = AnalogWeights(np.zeros(32), delays)
        assert jpta_objective(w, profile) >= 64.0 * (1 - 1e-12)

    def test_respects_delay_budget(self):
        profile = TargetProfile(np.full(64, np.deg2rad(-35.0)), CFG64)
        delays = line_fit_delays(profile, 1e-12)
        assert delays.min() == 0.0 and delays.max() <= 1e-12


def refinement_case(num_subcarriers: int, seed: int, num_antennas: int = 32,
                    resolution: int = 256, tau_cells: float = 1.0):
    """Random per-element coefficients c (8, K), the baseband grid fb and the
    solver's axis for it, a delay grid of ``resolution`` points over
    ``tau_cells`` times the default delay budget, its Taylor moments and each
    element's coarse-grid maximum."""
    cfg = ArrayConfig(num_antennas, 0.5, 60e9, 2e9, num_subcarriers)
    fb = cfg.subcarrier_centers() - cfg.carrier_freq
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(8, num_subcarriers)) + 1j * rng.normal(size=(8, num_subcarriers))
    grid = np.linspace(0.0, tau_cells * cfg.default_tau_max(), resolution)
    mag = np.abs(np.exp(2j * np.pi * np.outer(grid, fb)) @ c.T)
    band = _baseband(cfg)
    moments = _taylor_moments(band, grid[1] - grid[0], num_subcarriers)
    return c, fb, band, grid, moments, np.argmax(mag, axis=0)


def abs_sum(c_row, fb, tau):
    """|S(tau)| = |sum_k c_k exp(j 2 pi tau f_k)| at each tau, summed directly."""
    return np.abs(np.exp(2j * np.pi * np.outer(tau, fb)) @ c_row)


@pytest.mark.parametrize("num_subcarriers", [64, 240])
@pytest.mark.parametrize("seed", [0, 1, 20])  # 20: an element whose grid maximum is at tau = 0
class TestDelayRefinement:
    @pytest.fixture
    def geometry(self):
        """refinement_case keywords: the default array and delay grid."""
        return {}

    def test_matches_dense_scan_of_bracket(self, num_subcarriers, seed, geometry):
        c, fb, band, grid, moments, best = refinement_case(num_subcarriers, seed, **geometry)
        cand, g_cand = _refine_delays(c, band, moments, grid, best)
        cell = grid[1] - grid[0]
        for n in range(c.shape[0]):
            lo = max(grid[best[n]] - cell, 0.0)
            hi = min(grid[best[n]] + cell, grid[-1])
            dense = np.linspace(lo, hi, 10_001)
            scan = abs_sum(c[n], fb, dense)
            assert abs(cand[n] - dense[np.argmax(scan)]) <= dense[1] - dense[0]
            assert g_cand[n] >= scan.max() * (1 - 1e-12)
            assert g_cand[n] == pytest.approx(abs_sum(c[n], fb, cand[n:n + 1])[0], rel=1e-12)

    def test_never_worse_than_grid_point(self, num_subcarriers, seed, geometry):
        c, fb, band, grid, moments, best = refinement_case(num_subcarriers, seed, **geometry)
        _, g_cand = _refine_delays(c, band, moments, grid, best)
        g_grid = np.abs(delay_sums(c, band, grid[best])[:, 0])
        assert np.all(g_cand >= g_grid)


class TestDelayRefinementTwoBlocks(TestDelayRefinement):
    """The same checks with two moment blocks: the moment radius
    r = 2 pi max|fb| cell is about 1.6 (N=128, or a 64-point grid), against
    0.39 on the default grid. A cell is then about half the 1/W lobe of |S|
    (W the bandwidth), so Newton still reaches the dense scan's maximum."""

    @pytest.fixture(params=[{"num_antennas": 128}, {"resolution": 64}], ids=["n128", "grid64"])
    def geometry(self, request):
        return request.param


class TestDelayRefinementManyBlocks(TestDelayRefinement):
    """r about 3.2 (N=256: four blocks) and about 115 (an 8-point grid over
    8 N/W: blocks of 3 subcarriers). A cell this wide spans one or more 1/W
    lobes of |S|, so the bracket holds several local maxima, and Newton ascent
    from the grid maximum need not reach the dense scan's (a direct-sum Newton
    misses it on the same elements); that check is left out."""

    test_matches_dense_scan_of_bracket = None

    @pytest.fixture(params=[{"num_antennas": 256}, {"resolution": 8, "tau_cells": 8.0}],
                    ids=["n256", "grid8"])
    def geometry(self, request):
        return request.param

    def test_value_is_the_direct_sum_in_the_bracket(self, num_subcarriers, seed, geometry):
        c, fb, band, grid, moments, best = refinement_case(num_subcarriers, seed, **geometry)
        cand, g_cand = _refine_delays(c, band, moments, grid, best)
        cell = grid[1] - grid[0]
        assert np.all(cand >= np.maximum(grid[best] - cell, 0.0))
        assert np.all(cand <= np.minimum(grid[best] + cell, grid[-1]))
        # against the sum's scale: phases 2 pi fb tau reach 800 rad on the
        # 8-point grid, and both sides round them
        for n in range(c.shape[0]):
            direct = abs_sum(c[n], fb, cand[n:n + 1])[0]
            assert abs(g_cand[n] - direct) <= 1e-12 * np.abs(c[n]).sum()


@pytest.mark.parametrize("geometry", [
    {"num_antennas": 4},  # r = 0.05
    {},  # r = 0.39
    {"num_antennas": 256},  # r = 3.2, four blocks
    {"tau_cells": 8.0},  # r = 3.1, four blocks
    {"resolution": 8, "tau_cells": 8.0},  # r = 115, blocks of 3 subcarriers
], ids=["n4", "default", "n256", "tau8", "grid8"])
@pytest.mark.parametrize("num_subcarriers", [64, 241])
def test_moment_sums_match_direct_sums(geometry, num_subcarriers):
    c, fb, band, grid, moments, best = refinement_case(num_subcarriers, 6, **geometry)
    tau0 = grid[best]
    head, coef = _moment_expansion(c, band, moments, tau0)
    # the expansion multiplies into its ramp where the blocks tile K (one
    # block, or 64 subcarriers in 4 or 64 blocks) and into a zero-padded
    # buffer where they do not (241 subcarriers in several blocks); either
    # way the grid point's sums are delay_sums' to the bit
    np.testing.assert_array_equal(head, delay_sums(c, band, tau0))
    # relative to each sum's scale sum_k |c_k| |2 pi fb_k|^d: one sum can
    # cancel far below it, and both sides round the phases 2 pi fb tau
    jw = 2j * np.pi * fb
    weights = np.abs(jw)[:, None] ** np.arange(3)
    for x in (-1.0, -0.37, 0.0, 0.5, 1.0):
        sums = _moment_sums(coef, moments, np.full(c.shape[0], x))
        tau = tau0 + x * moments.cell
        for n in range(c.shape[0]):
            terms = c[n] * np.exp(jw * tau[n])
            direct = np.array([terms.sum(), terms @ jw, terms @ jw**2])
            assert np.all(np.abs(sums[n] - direct) <= 1e-12 * (np.abs(c[n]) @ weights))


def test_delay_sums_match_direct_sums_with_ragged_tail():
    # K = 241 is not a multiple of ceil(sqrt(241)) = 16, so the phasor ramp
    # behind the delay sums pads its last block and slices it off
    c, fb, band, grid, _, _ = refinement_case(241, 4)
    tau = np.random.default_rng(5).uniform(0.0, grid[-1], c.shape[0])
    sums = delay_sums(c, band, tau)
    jw = 2j * np.pi * fb
    for n in range(c.shape[0]):
        terms = c[n] * np.exp(jw * tau[n])
        assert abs(sums[n, 0]) == pytest.approx(abs_sum(c[n], fb, tau[n:n + 1])[0], rel=1e-12)
        np.testing.assert_allclose(sums[n], [terms.sum(), terms @ jw, terms @ jw**2], rtol=1e-11)


def scan_case(num_subcarriers: int, num_antennas: int, resolution: int):
    """The baseband axis, a default-budget delay grid of ``resolution`` points
    and its grid matrix in complex128 and, as the solver scans it, complex64."""
    cfg = ArrayConfig(num_antennas, 0.5, 60e9, 2e9, num_subcarriers)
    band = _baseband(cfg)
    grid = np.linspace(0.0, cfg.default_tau_max(), resolution)
    start, step = TWO_PI * grid * band.start, TWO_PI * grid * band.step
    e128 = _phasor_ramp(start, step, num_subcarriers)
    e32 = _phasor_ramp(start, step, num_subcarriers, np.complex64)
    return cfg, band, grid, e128, e32


def solver_coefficients(cfg: ArrayConfig, resolution: int, monkeypatch) -> list:
    """The (c_t, bound) of every grid scan in two iterations of a solve of a
    seeded four-step profile."""
    seen = []
    scan = jpta._grid_argmax

    def record(grid, e_grid32, band, c_t, bound):
        seen.append((c_t, bound))
        return scan(grid, e_grid32, band, c_t, bound)

    monkeypatch.setattr(jpta, "_grid_argmax", record)
    k = cfg.num_subcarriers
    steps = np.random.default_rng(k).uniform(-0.6, 0.6, 4)[np.arange(k) * 4 // k]
    opts = SolverOptions(max_iters=2, delay_search_resolution=resolution)
    jpta_solve(TargetProfile(steps, cfg), opts)
    return seen


@pytest.mark.parametrize("resolution", [8, 64, 256])
@pytest.mark.parametrize("num_antennas", [8, 32, 256])
@pytest.mark.parametrize("num_subcarriers", [64, 240, 241, 1200])
def test_scan_error_bound_holds(num_subcarriers, num_antennas, resolution, monkeypatch):
    cfg, band, grid, e128, e32 = scan_case(num_subcarriers, num_antennas, resolution)
    rng = np.random.default_rng(num_subcarriers + num_antennas)
    u0 = response_matrix(rng.uniform(-1.2, 1.2, num_subcarriers), cfg.subcarrier_centers(), cfg).T
    c_random = u0 * np.exp(1j * rng.uniform(-np.pi, np.pi, num_subcarriers))
    cases = [(c_random, _scan_error_bound(u0))]
    cases += solver_coefficients(cfg, resolution, monkeypatch)
    worst = 0.0
    for c_t, bound in cases:
        err = np.abs(np.abs(e32 @ c_t.T.astype(np.complex64)) - np.abs(e128 @ c_t.T))
        assert np.all(err <= bound)
        worst = max(worst, float(np.max(err / bound)))
    # the bound takes every rounding at its worst; the observed error is far below
    assert worst < 0.05


@pytest.mark.parametrize("resolution", [8, 64, 256])
@pytest.mark.parametrize("num_subcarriers", [64, 240, 241, 1200])
def test_grid_argmax_decides_ties_in_complex128(num_subcarriers, resolution):
    cfg, band, grid, e128, e32 = scan_case(num_subcarriers, 8, resolution)
    rng = np.random.default_rng(resolution)
    # one even and one odd grid index per element, so no grid point is the midpoint
    i, j = 2 * rng.integers(0, resolution // 2, (2, 8)) + [[0], [1]]
    cols = np.arange(8)
    # the fallback rebuilds a candidate row bit for bit as the grid matrix holds it
    rows = np.concatenate([i, j])
    rebuilt = _phasor_ramp(TWO_PI * grid[rows] * band.start, TWO_PI * grid[rows] * band.step,
                           num_subcarriers)
    np.testing.assert_array_equal(rebuilt, e128[rows])
    for scale in (1.0, 1.0 + 1e-9, 1.0 - 1e-9):
        # S(g) = D(g - i) + scale D(g - j) with D real and even (the band is
        # symmetric about the carrier), so at scale 1 the grid points g and
        # i + j - g tie in exact arithmetic, the top pair included; at 1 +- 1e-9
        # float32 cannot resolve the pair and complex128 can
        c = np.conj(e128[i] + scale * e128[j])
        bound = _scan_error_bound(c)
        mag32 = np.abs(e32 @ c.T.astype(np.complex64))
        near = mag32 >= mag32.max(axis=0) - 2 * bound
        assert np.all(np.count_nonzero(near, axis=0) > 1)  # every element takes the fallback
        mag128 = np.abs(e128 @ c.T)
        got = _grid_argmax(grid, e32, band, c, bound)
        if scale == 1.0 and num_subcarriers % 2:
            # an exact tie is decided by the last bits of the complex128
            # products, and BLAS may round the few candidate rows' product
            # differently from the full grid's (OpenBLAS 0.3.31 does on odd K):
            # the choice is then a complex128 maximum to the product's rounding
            gap = mag128.max(axis=0) - mag128[got, cols]
            assert np.all(gap <= 2.0**-50 * num_subcarriers * np.abs(c).sum(axis=1))
        else:
            np.testing.assert_array_equal(got, np.argmax(mag128, axis=0))


def test_full_scale_solve_holds_the_grid_only_in_complex64():
    # one solve at K=1200, N=32 on the default 256-point grid. Live at its
    # peak, inside the refinement: the complex64 grid matrix and about four
    # (N, K) complex128 arrays (u0, c_t in the steered product's buffer, the
    # expansion's ramp and the (K, 16) moment table, half of one), plus
    # numpy's ufunc buffers, the ramps' padding and the (G, N) scan, within
    # 1 MiB. A complex128 grid matrix alone is 4.7 MiB.
    num_k, num_n, num_g = 1200, 32, 256
    cfg = ArrayConfig(num_n, 0.5, 60e9, 2e9, num_k)
    profile = TargetProfile(np.repeat(np.deg2rad([-30.0, -5.0, 12.0, 38.0]), num_k // 4), cfg)
    jpta_solve(TargetProfile(np.zeros(64), CFG64))  # numpy's first-call allocations
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        jpta_solve(profile)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    grid_bytes = num_g * num_k * np.dtype(np.complex64).itemsize
    nk_bytes = num_n * num_k * np.dtype(complex).itemsize
    assert peak <= grid_bytes + 4 * nk_bytes + 2**20


def test_iteration_builds_two_steered_ramps(monkeypatch):
    # the solve's set-up ramps are the (G, K) complex64 grid matrix and the
    # first steered product; after it, an iteration builds the expansion's
    # ramp and the rebuilt product, and the scan's tie fallback its own rows
    num_k, num_n = 1200, 32
    cfg = ArrayConfig(num_n, 0.5, 60e9, 2e9, num_k)
    built, in_scan = [], [False]
    ramp, scan = jpta._phasor_ramp, jpta._grid_argmax

    def record_ramp(*args, **kwargs):
        out = ramp(*args, **kwargs)
        if not in_scan[0]:
            built.append((out.shape, out.dtype))
        return out

    def record_scan(*args):
        in_scan[0] = True
        try:
            return scan(*args)
        finally:
            in_scan[0] = False

    monkeypatch.setattr(jpta, "_phasor_ramp", record_ramp)
    monkeypatch.setattr(jpta, "_grid_argmax", record_scan)
    steps = np.random.default_rng(3).uniform(-0.6, 0.6, 4)[np.arange(num_k) * 4 // num_k]
    report = jpta_solve(TargetProfile(steps, cfg))
    assert report.iterations >= 2
    assert built[0] == ((256, num_k), np.complex64)
    assert built[1:] == [((num_n, num_k), np.complex128)] * (1 + 2 * report.iterations)


@pytest.mark.parametrize("num_subcarriers", [240, 1200])
@pytest.mark.parametrize("kind", ["stepped", "slanted"])
def test_report_objective_is_the_oracle_objective(kind, num_subcarriers):
    # the trace's last entry comes from exp(-j phi) @ prod / N, not from a
    # per-subcarrier sum: it must still be the objective of the weights returned
    cfg = ArrayConfig(32, 0.5, 60e9, 2e9, num_subcarriers)
    rng = np.random.default_rng(num_subcarriers)
    k = np.arange(num_subcarriers)
    if kind == "stepped":
        directions = rng.uniform(-0.6, 0.6, 4)[k * 4 // num_subcarriers]
    else:
        directions = np.linspace(*np.sort(rng.uniform(-0.6, 0.6, 2)), num_subcarriers)
    profile = TargetProfile(directions, cfg)
    report = jpta_solve(profile)
    assert abs(report.objective - jpta_objective(report.weights, profile)) <= 1e-12 * num_subcarriers


class TestSolver:
    def test_constant_profile_meets_target(self):
        profile = TargetProfile(np.full(64, np.deg2rad(20.0)), CFG64)
        report = jpta_solve(profile)
        assert report.objective >= 0.95 * 64
        assert report.objective >= 64.0 * (1 - 1e-9)
        assert report.converged

    def test_trace_monotone_within_slack(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            steps = np.repeat(rng.uniform(-0.6, 0.6, 4), 16)
            report = jpta_solve(TargetProfile(steps, CFG64))
            assert np.all(np.diff(report.objective_trace) >= -1e-9)

    def test_feasible_output(self):
        profile = TargetProfile(np.linspace(-0.3, 0.3, 64), CFG64)
        opts = SolverOptions(tau_max=5e-9)
        report = jpta_solve(profile, opts)
        w = report.weights
        assert np.all(np.abs(w.phases) <= np.pi)
        assert np.all(w.delays >= 0.0) and np.all(w.delays <= 5e-9)

    def test_report_objective_matches_public_evaluation(self):
        profile = TargetProfile(np.linspace(-0.25, 0.4, 64), CFG64)
        report = jpta_solve(profile)
        assert report.objective == pytest.approx(jpta_objective(report.weights, profile), abs=1e-9)

    def test_slanted_profile_beats_every_constant_design(self):
        # brute-force scan: all 1-degree-spaced constant-direction designs
        profile = TargetProfile(np.deg2rad(np.linspace(-10.0, 10.0, 64)), CFG64)
        best_constant = max(
            jpta_objective(exact_constant_weights(np.deg2rad(t), CFG64), profile)
            for t in range(-90, 91)
        )
        report = jpta_solve(profile)
        assert report.objective > best_constant

    def test_multi_user_stepped_profile_converges_high(self):
        steps = np.concatenate([
            np.full(16, np.deg2rad(-30.0)),
            np.full(16, np.deg2rad(-5.0)),
            np.full(16, np.deg2rad(12.0)),
            np.full(16, np.deg2rad(38.0)),
        ])
        profile = TargetProfile(steps, CFG64)
        best_constant = max(
            jpta_objective(exact_constant_weights(np.deg2rad(t), CFG64), profile)
            for t in range(-90, 91)
        )
        report = jpta_solve(profile)
        # a single phase/delay bank cannot align four separated steps
        # perfectly, but it must clearly beat pointing at any one direction
        assert report.objective > best_constant
        assert report.objective >= 0.75 * 64
        assert np.all(np.diff(report.objective_trace) >= -1e-9)

    def test_iteration_budget_respected(self):
        steps = np.repeat(np.deg2rad([-40.0, 0.0, 40.0, 10.0]), 16)
        opts = SolverOptions(max_iters=1, objective_tolerance=1e-15)
        report = jpta_solve(TargetProfile(steps, CFG64), opts)
        assert report.iterations == 1
        assert not report.converged

    def test_smallest_delay_wins_ties(self):
        # single subcarrier at the carrier: the objective is delay-invariant,
        # so the initial zero delays must survive
        cfg = ArrayConfig(4, 0.5, 60e9, 2e9, 1)
        report = jpta_solve(TargetProfile(np.zeros(1), cfg))
        np.testing.assert_allclose(report.weights.delays, 0.0, atol=1e-15)

    def test_bad_options_rejected(self):
        with pytest.raises(ValueError):
            SolverOptions(max_iters=0)
        with pytest.raises(ValueError):
            SolverOptions(objective_tolerance=-1.0)
        with pytest.raises(ValueError):
            SolverOptions(tau_max=0.0)
        with pytest.raises(ValueError):
            SolverOptions(delay_search_resolution=1)

    def test_deterministic(self):
        profile = TargetProfile(np.deg2rad(np.linspace(-15, 15, 64)), CFG64)
        a = jpta_solve(profile)
        b = jpta_solve(profile)
        np.testing.assert_array_equal(a.weights.phases, b.weights.phases)
        np.testing.assert_array_equal(a.weights.delays, b.weights.delays)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
