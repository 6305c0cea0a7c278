import operator
import tracemalloc

import numpy as np
import pytest

from slantbeam import jpta
from slantbeam.arrays import TWO_PI, AnalogWeights, ArrayConfig, _phasor_ramp, response_matrix
from slantbeam.jpta import (
    SolverOptions,
    TargetProfile,
    _moment_expansion,
    _moment_sums,
    _plan,
    _refine_delays,
    jpta_solve,
    line_fit_delays,
)

from oracles import awv, delay_sums, gain, genie_gain_atol, jpta_objective, scan_error_bound

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
    """Random per-element coefficients c (8, K), the baseband grid fb, the
    solver's plan for a delay grid of ``resolution`` points over ``tau_cells``
    times the default delay budget, and each element's coarse-grid maximum."""
    cfg = ArrayConfig(num_antennas, 0.5, 60e9, 2e9, num_subcarriers)
    fb = cfg.subcarrier_centers() - cfg.carrier_freq
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(8, num_subcarriers)) + 1j * rng.normal(size=(8, num_subcarriers))
    plan = _plan(cfg, SolverOptions(tau_max=tau_cells * cfg.default_tau_max(),
                                    delay_search_resolution=resolution))
    mag = np.abs(np.exp(2j * np.pi * np.outer(plan.grid, fb)) @ c.T)
    return c, fb, plan, np.argmax(mag, axis=0)


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
        c, fb, plan, best = refinement_case(num_subcarriers, seed, **geometry)
        cand, g_cand = _refine_delays(c, plan, best)
        grid, cell = plan.grid, plan.cell
        for n in range(c.shape[0]):
            lo = max(grid[best[n]] - cell, 0.0)
            hi = min(grid[best[n]] + cell, grid[-1])
            dense = np.linspace(lo, hi, 10_001)
            scan = abs_sum(c[n], fb, dense)
            assert abs(cand[n] - dense[np.argmax(scan)]) <= dense[1] - dense[0]
            assert g_cand[n] >= scan.max() * (1 - 1e-12)
            assert g_cand[n] == pytest.approx(abs_sum(c[n], fb, cand[n:n + 1])[0], rel=1e-12)

    def test_never_worse_than_grid_point(self, num_subcarriers, seed, geometry):
        c, _, plan, best = refinement_case(num_subcarriers, seed, **geometry)
        _, g_cand = _refine_delays(c, plan, best)
        g_grid = np.abs(delay_sums(c, plan, plan.grid[best])[:, 0])
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
        c, fb, plan, best = refinement_case(num_subcarriers, seed, **geometry)
        cand, g_cand = _refine_delays(c, plan, best)
        grid, cell = plan.grid, plan.cell
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
    c, fb, plan, best = refinement_case(num_subcarriers, 6, **geometry)
    tau0 = plan.grid[best]
    head, coef = _moment_expansion(c, plan, tau0)
    # the expansion multiplies into its ramp where the blocks tile K (one
    # block, or 64 subcarriers in 4 or 64 blocks) and into a zero-padded
    # buffer where they do not (241 subcarriers in several blocks); either
    # way the grid point's sums are delay_sums' to the bit
    np.testing.assert_array_equal(head, delay_sums(c, plan, tau0))
    # relative to each sum's scale sum_k |c_k| |2 pi fb_k|^d: one sum can
    # cancel far below it, and both sides round the phases 2 pi fb tau
    jw = 2j * np.pi * fb
    weights = np.abs(jw)[:, None] ** np.arange(3)
    for x in (-1.0, -0.37, 0.0, 0.5, 1.0):
        sums = _moment_sums(coef, plan, np.full(c.shape[0], x))
        tau = tau0 + x * plan.cell
        for n in range(c.shape[0]):
            terms = c[n] * np.exp(jw * tau[n])
            direct = np.array([terms.sum(), terms @ jw, terms @ jw**2])
            assert np.all(np.abs(sums[n] - direct) <= 1e-12 * (np.abs(c[n]) @ weights))


def test_delay_sums_match_direct_sums_with_ragged_tail():
    # K = 241 is not a multiple of ceil(sqrt(241)) = 16, so the phasor ramp
    # behind the delay sums pads its last block and slices it off
    c, fb, plan, _ = refinement_case(241, 4)
    tau = np.random.default_rng(5).uniform(0.0, plan.grid[-1], c.shape[0])
    sums = delay_sums(c, plan, tau)
    jw = 2j * np.pi * fb
    for n in range(c.shape[0]):
        terms = c[n] * np.exp(jw * tau[n])
        assert abs(sums[n, 0]) == pytest.approx(abs_sum(c[n], fb, tau[n:n + 1])[0], rel=1e-12)
        np.testing.assert_allclose(sums[n], [terms.sum(), terms @ jw, terms @ jw**2], rtol=1e-11)


def scan_case(num_subcarriers: int, num_antennas: int, resolution: int):
    """The array, the solver's grid matrix over a default-budget delay grid of
    ``resolution`` points in complex128 and, as the solver scans it, complex64."""
    cfg = ArrayConfig(num_antennas, 0.5, 60e9, 2e9, num_subcarriers)
    plan = _plan(cfg, SolverOptions(delay_search_resolution=resolution))
    e128 = _phasor_ramp(TWO_PI * plan.grid * plan.start, TWO_PI * plan.grid * plan.step,
                        num_subcarriers)
    return cfg, e128, plan.e_grid32


def stepped_solve(cfg: ArrayConfig, opts: SolverOptions, monkeypatch) -> tuple:
    """The steering matrix u0 of a seeded four-step profile and the
    (c_t, plan, best) of every refinement in its solve."""
    seen = []
    refine = jpta._refine_delays

    def record(c_t, plan, best):
        seen.append((c_t, plan, best))
        return refine(c_t, plan, best)

    monkeypatch.setattr(jpta, "_refine_delays", record)
    k = cfg.num_subcarriers
    steps = np.random.default_rng(k).uniform(-0.6, 0.6, 4)[np.arange(k) * 4 // k]
    jpta_solve(TargetProfile(steps, cfg), opts)
    return response_matrix(steps, cfg), seen


@pytest.mark.parametrize("resolution", [8, 64, 256])
@pytest.mark.parametrize("num_antennas", [8, 32, 256])
@pytest.mark.parametrize("num_subcarriers", [64, 240, 241, 1200])
def test_scan_error_bound_holds(num_subcarriers, num_antennas, resolution, monkeypatch):
    cfg, e128, e32 = scan_case(num_subcarriers, num_antennas, resolution)
    rng = np.random.default_rng(num_subcarriers + num_antennas)
    u0 = response_matrix(rng.uniform(-1.2, 1.2, num_subcarriers), cfg)
    c_random = u0 * np.exp(1j * rng.uniform(-np.pi, np.pi, num_subcarriers))
    cases = [(c_random, scan_error_bound(u0))]
    # the coefficients of every grid scan in two iterations of a stepped solve
    opts = SolverOptions(max_iters=2, delay_search_resolution=resolution)
    u0_solve, seen = stepped_solve(cfg, opts, monkeypatch)
    cases += [(c_t, scan_error_bound(u0_solve)) for c_t, *_ in seen]
    worst = 0.0
    for c_t, bound in cases:
        err = np.abs(np.abs(e32 @ c_t.T.astype(np.complex64)) - np.abs(e128 @ c_t.T))
        assert np.all(err <= bound)
        worst = max(worst, float(np.max(err / bound)))
    # the bound takes every rounding at its worst; the observed error is far below
    assert worst < 0.05


@pytest.mark.parametrize("num_subcarriers", [240, 1200])
def test_scan_picks_a_grid_maximum_within_twice_the_bound(num_subcarriers, monkeypatch):
    # the float32 scan's pick is a complex128 grid maximum up to twice the
    # bound on the float32 error of |S|, at every iteration of a full solve
    cfg = ArrayConfig(32, 0.5, 60e9, 2e9, num_subcarriers)
    u0, seen = stepped_solve(cfg, SolverOptions(), monkeypatch)
    bound = scan_error_bound(u0)
    assert len(seen) >= 2
    for c_t, plan, best in seen:
        e128 = _phasor_ramp(TWO_PI * plan.grid * plan.start, TWO_PI * plan.grid * plan.step,
                            num_subcarriers)
        mag = np.abs(e128 @ c_t.T)  # (G, N)
        assert np.all(mag[best, np.arange(cfg.num_antennas)] >= mag.max(axis=0) - 2 * bound)


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
    # the solve's set-up ramps are the (G, K) complex64 grid matrix (its plan
    # is not cached yet) and the first steered product; after it, an iteration
    # builds the expansion's ramp and the rebuilt product, and nothing else
    jpta._plan.cache_clear()
    num_k, num_n = 1200, 32
    cfg = ArrayConfig(num_n, 0.5, 60e9, 2e9, num_k)
    built = []
    ramp = jpta._phasor_ramp

    def record(*args, **kwargs):
        out = ramp(*args, **kwargs)
        built.append((out.shape, out.dtype))
        return out

    monkeypatch.setattr(jpta, "_phasor_ramp", record)
    steps = np.random.default_rng(3).uniform(-0.6, 0.6, 4)[np.arange(num_k) * 4 // num_k]
    report = jpta_solve(TargetProfile(steps, cfg))
    assert report.iterations >= 2
    assert built == ([((256, num_k), np.complex64)]
                     + [((num_n, num_k), np.complex128)] * (1 + 2 * report.iterations))


def test_plan_is_built_once_per_array_and_options(monkeypatch):
    # equal but distinct (cfg, opts) instances, the defaults' None included,
    # share the cached plan: the (G, K) complex64 grid matrix is built once,
    # and the solve on the cached plan is the same to the bit. Another grid
    # resolution is another key, so it builds its own grid matrix
    grids = []
    ramp = jpta._phasor_ramp

    def record(*args, **kwargs):
        out = ramp(*args, **kwargs)
        if out.dtype == np.complex64:
            grids.append(out.shape)
        return out

    monkeypatch.setattr(jpta, "_phasor_ramp", record)
    jpta._plan.cache_clear()
    directions = np.repeat(np.deg2rad([-20.0, 15.0]), 32)
    reports = [jpta_solve(TargetProfile(directions, ArrayConfig(32, 0.5, 60e9, 2e9, 64)), opts)
               for opts in (None, SolverOptions(max_iters=100, delay_search_resolution=256))]
    assert grids == [(256, 64)]
    for field in ("objective_trace", "weights.phases", "weights.delays"):
        first, second = (operator.attrgetter(field)(r) for r in reports)
        assert first.tobytes() == second.tobytes(), field
    jpta_solve(TargetProfile(directions, CFG64), SolverOptions(delay_search_resolution=64))
    assert grids == [(256, 64), (64, 64)]


def test_plan_arrays_are_read_only():
    # the cached plan is shared by every solve, so no solve may write into it
    plan = _plan(CFG64, SolverOptions())
    for name in ("grid", "e_grid32", "freqs", "weights", "centers", "table"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(plan, name)[0] = 0


@pytest.mark.parametrize("num_subcarriers, num_antennas",
                         [(240, 32), (1200, 32), (240, 128), (1200, 128)],
                         ids=["240", "1200", "240-n128", "1200-n128"])
@pytest.mark.parametrize("kind", ["stepped", "slanted"])
def test_report_objective_is_the_oracle_objective(kind, num_subcarriers, num_antennas):
    # the trace's last entry comes from exp(-j phi) @ prod / N, not from a
    # per-subcarrier sum: it must still be the objective of the weights returned.
    # N = 128 refines with two moment blocks on the default grid
    cfg = ArrayConfig(num_antennas, 0.5, 60e9, 2e9, num_subcarriers)
    rng = np.random.default_rng(num_subcarriers)
    k = np.arange(num_subcarriers)
    if kind == "stepped":
        directions = rng.uniform(-0.6, 0.6, 4)[k * 4 // num_subcarriers]
    else:
        directions = np.linspace(*np.sort(rng.uniform(-0.6, 0.6, 2)), num_subcarriers)
    profile = TargetProfile(directions, cfg)
    report = jpta_solve(profile)
    assert abs(report.objective - jpta_objective(report.weights, profile)) <= 1e-12 * num_subcarriers
    # the objective is the sum of the final terms |v_k^H u_k|, bit for bit
    assert report.alignment.shape == (num_subcarriers,)
    assert not report.alignment.flags.writeable
    assert report.objective == float(np.sum(report.alignment))


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

    def test_alignment_gives_the_weights_gains(self):
        # N*alignment**2 are the returned weights' gains toward the targets, to
        # the bound the stepped genie's scoring is held to
        profile = TargetProfile(np.linspace(-0.25, 0.4, 64), CFG64)
        report = jpta_solve(profile)
        gains = [gain(theta, f, awv(report.weights, f, CFG64), CFG64)
                 for theta, f in zip(profile.directions, CFG64.subcarrier_centers())]
        np.testing.assert_allclose(CFG64.num_antennas * report.alignment**2, gains, rtol=0,
                                   atol=genie_gain_atol(CFG64, CFG64.default_tau_max()))

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
