import numpy as np
import pytest

from slantbeam.arrays import AnalogWeights, ArrayConfig
from slantbeam.jpta import (
    SolverOptions,
    SolverReport,
    TargetProfile,
    _baseband,
    _delay_sums,
    _refine_delays,
    jpta_objective,
    jpta_solve,
    line_fit_delays,
)

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


def refinement_case(num_subcarriers: int, seed: int):
    """Random per-element coefficients c (8, K), the baseband grid fb and the
    solver's axis for it, the default delay grid and each element's coarse-grid
    maximum."""
    cfg = ArrayConfig(32, 0.5, 60e9, 2e9, num_subcarriers)
    fb = cfg.subcarrier_centers() - cfg.carrier_freq
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(8, num_subcarriers)) + 1j * rng.normal(size=(8, num_subcarriers))
    grid = np.linspace(0.0, cfg.default_tau_max(), 256)
    mag = np.abs(np.exp(2j * np.pi * np.outer(grid, fb)) @ c.T)
    return c, fb, _baseband(cfg), grid, np.argmax(mag, axis=0)


def abs_sum(c_row, fb, tau):
    """|S(tau)| = |sum_k c_k exp(j 2 pi tau f_k)| at each tau, summed directly."""
    return np.abs(np.exp(2j * np.pi * np.outer(tau, fb)) @ c_row)


@pytest.mark.parametrize("num_subcarriers", [64, 240])
@pytest.mark.parametrize("seed", [0, 1, 20])  # 20: an element whose grid maximum is at tau = 0
class TestDelayRefinement:
    def test_matches_dense_scan_of_bracket(self, num_subcarriers, seed):
        c, fb, band, grid, best = refinement_case(num_subcarriers, seed)
        cand, g_cand = _refine_delays(c, band, grid, best)
        cell = grid[1] - grid[0]
        for n in range(c.shape[0]):
            lo = max(grid[best[n]] - cell, 0.0)
            hi = min(grid[best[n]] + cell, grid[-1])
            dense = np.linspace(lo, hi, 10_001)
            scan = abs_sum(c[n], fb, dense)
            assert abs(cand[n] - dense[np.argmax(scan)]) <= dense[1] - dense[0]
            assert g_cand[n] >= scan.max() * (1 - 1e-12)
            assert g_cand[n] == pytest.approx(abs_sum(c[n], fb, cand[n:n + 1])[0], rel=1e-12)

    def test_never_worse_than_grid_point(self, num_subcarriers, seed):
        c, fb, band, grid, best = refinement_case(num_subcarriers, seed)
        _, g_cand = _refine_delays(c, band, grid, best)
        g_grid = np.abs(_delay_sums(c, band, grid[best])[:, 0])
        assert np.all(g_cand >= g_grid)


def test_delay_sums_match_direct_sums_with_ragged_tail():
    # K = 241 is not a multiple of ceil(sqrt(241)) = 16, so the phasor ramp
    # behind the delay sums pads its last block and slices it off
    c, fb, band, grid, _ = refinement_case(241, 4)
    tau = np.random.default_rng(5).uniform(0.0, grid[-1], c.shape[0])
    sums = _delay_sums(c, band, tau)
    jw = 2j * np.pi * fb
    for n in range(c.shape[0]):
        terms = c[n] * np.exp(jw * tau[n])
        assert abs(sums[n, 0]) == pytest.approx(abs_sum(c[n], fb, tau[n:n + 1])[0], rel=1e-12)
        np.testing.assert_allclose(sums[n], [terms.sum(), terms @ jw, terms @ jw**2], rtol=1e-11)


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
