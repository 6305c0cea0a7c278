import numpy as np
import pytest

from slantbeam.arrays import (
    ArrayConfig,
    _matched_gains,
    awv_matrix,
    band_steering,
    gain_profile,
    pattern_heatmap,
    wrap_phase,
)
from slantbeam.designs import (
    ANALOG_KINDS,
    BeamDesign,
    DigitalGeniePolicy,
    FixedBeamPolicy,
    SteppedGeniePolicy,
    design_qpd,
    design_rainbow,
    design_slanted,
    design_stepped,
    genie_stepped,
    qpd_phase_profile,
    target_directions,
)
from slantbeam.jpta import SolverOptions
from slantbeam.mobility import AnchorSpec, FrameTiming, KinematicsEstimate

from oracles import awv, gain, genie_gain_atol, matched_filter

DEG = np.pi / 180.0
TIMING = FrameTiming(0.16, 100)
CFG48 = ArrayConfig(32, 0.5, 60e9, 2e9, 48)


def static_estimate(theta_deg, var_theta=0.0):
    return KinematicsEstimate(theta_deg * DEG, 0.0, 0.0, var_theta, 0.0, 0.0)


class TestTargetDirections:
    def test_full_scale_first_user_span(self):
        # 3 users, 1200 subcarriers, 20 deg range centered at 0:
        # first target -9.95 deg, last target of the band exactly +10 deg
        cfg = ArrayConfig(32, 0.5, 60e9, 2e9, 1200)
        anchor = AnchorSpec(centers=np.array([0.0, 30 * DEG, -30 * DEG]), aod_range=20 * DEG)
        prof = target_directions(anchor, cfg)
        assert prof.directions[0] / DEG == pytest.approx(-9.95, abs=1e-9)
        assert prof.directions[399] / DEG == pytest.approx(10.0, abs=1e-9)

    def test_tiny_single_user_case(self):
        # 1 user, 4 subcarriers, 4 deg range: targets (-1, 0, 1, 2) deg
        cfg = ArrayConfig(4, 0.5, 60e9, 2e9, 4)
        anchor = AnchorSpec(centers=np.array([0.0]), aod_range=4 * DEG)
        prof = target_directions(anchor, cfg)
        np.testing.assert_allclose(prof.directions / DEG, [-1.0, 0.0, 1.0, 2.0], atol=1e-9)

    def test_band_end_hits_center_plus_half_range(self):
        cfg = ArrayConfig(8, 0.5, 60e9, 2e9, 60)
        centers = np.array([-20.0, 5.0, 25.0]) * DEG
        anchor = AnchorSpec(centers=centers, aod_range=12 * DEG)
        prof = target_directions(anchor, cfg)
        per = 20
        for u in range(3):
            last = prof.directions[(u + 1) * per - 1]
            assert last == pytest.approx(centers[u] + 6 * DEG, abs=1e-12)
            first = prof.directions[u * per]
            assert first == pytest.approx(centers[u] - 6 * DEG + 12 * DEG * 3 / 60, abs=1e-12)

    def test_all_users_share_the_slope(self):
        cfg = ArrayConfig(8, 0.5, 60e9, 2e9, 60)
        anchor = AnchorSpec(centers=np.array([-20.0, 5.0, 25.0]) * DEG, aod_range=9 * DEG)
        g = target_directions(anchor, cfg).directions
        slopes = np.diff(g.reshape(3, 20), axis=1)
        np.testing.assert_allclose(slopes, 9 * DEG * 3 / 60, atol=1e-12)

    def test_indivisible_subcarriers_rejected(self):
        cfg = ArrayConfig(8, 0.5, 60e9, 2e9, 64)
        anchor = AnchorSpec(centers=np.zeros(3), aod_range=0.1)
        with pytest.raises(ValueError):
            target_directions(anchor, cfg)


class TestSlantedDesign:
    def test_anchor_range_from_moving_user(self):
        est = KinematicsEstimate(15 * DEG, 60 * DEG, 0.0, 2 * DEG**2, 10 * DEG**2, 5 * DEG**2)
        design = design_slanted([est], 0.97, CFG48, TIMING)
        assert design.kind == "slanted"
        assert design.anchor.aod_range / DEG == pytest.approx(15.92903583818871, abs=1e-9)
        assert design.anchor.centers[0] / DEG == pytest.approx(19.89554667553892, abs=1e-9)

    def test_range_override_keeps_centers(self):
        est = static_estimate(10.0, var_theta=2 * DEG**2)
        design = design_slanted([est], 0.97, CFG48, TIMING, range_override=20 * DEG)
        assert design.anchor.aod_range == 20 * DEG
        assert design.anchor.centers[0] == pytest.approx(10 * DEG, rel=1e-12)

    def test_mainlobe_walks_across_the_subband(self):
        est = static_estimate(0.0)
        design = design_slanted([est], 0.97, CFG48, TIMING, range_override=10 * DEG)
        grid = np.deg2rad(np.arange(-20.0, 20.0, 0.1))
        heat = pattern_heatmap(design.weights, grid, CFG48)
        peaks = np.rad2deg(grid[np.argmax(heat, axis=0)])
        assert np.all(np.diff(peaks) >= -0.15)
        assert peaks[-1] - peaks[0] == pytest.approx(10.0 * (1 - 1 / 48), abs=1.0)

    @pytest.mark.parametrize("bad", [True, "abc", np.array([0.1]), -0.1, np.nan])
    def test_range_override_must_be_a_non_negative_real(self, bad):
        with pytest.raises(ValueError, match=r"^range_override"):
            design_slanted([static_estimate(5.0)], 0.97, CFG48, TIMING, range_override=bad)

    def test_solver_trace_attached(self):
        design = design_slanted([static_estimate(5.0)], 0.97, CFG48, TIMING)
        assert design.report is not None
        assert design.report.objective_trace[-1] == pytest.approx(design.report.objective)
        assert design.report.weights is design.weights


class TestSteppedDesign:
    def test_bitwise_equal_to_zero_range_slanted(self):
        ests = [static_estimate(-25.0), static_estimate(3.0), static_estimate(30.0)]
        # the users' estimates handed over in sub-band order under assignment [1, 2, 0]
        by_band = [ests[u] for u in np.argsort([1, 2, 0])]
        slanted = design_slanted(by_band, 0.97, CFG48, TIMING)
        stepped = design_stepped([est.theta0 for est in by_band], CFG48)
        assert slanted.anchor.aod_range == 0.0
        np.testing.assert_array_equal(slanted.weights.phases, stepped.weights.phases)
        np.testing.assert_array_equal(slanted.weights.delays, stepped.weights.delays)

    def test_own_subband_separation(self):
        # 3 users at -30/0/30 deg: at each band center the scheduled user's
        # direction collects at least 10 dB more gain than the other users'
        angles = np.array([-30.0, 0.0, 30.0]) * DEG
        design = design_stepped(angles, CFG48)
        freqs = CFG48.subcarrier_centers()
        cols = awv_matrix(design.weights, CFG48)
        per = 16
        for u in range(3):
            k_mid = u * per + per // 2
            own = gain(angles[u], freqs[k_mid], cols[:, k_mid], CFG48)
            for other in range(3):
                if other == u:
                    continue
                cross = gain(angles[other], freqs[k_mid], cols[:, k_mid], CFG48)
                assert own >= 10.0 * cross


class TestRainbowDesign:
    def test_delay_ladder_values(self):
        cfg = ArrayConfig(32, 0.5, 60e9, 2e9, 48)
        design = design_rainbow(cfg)
        d = design.weights.delays
        assert d[0] == pytest.approx(7.75e-9, rel=1e-12)   # (N-1)/(2W)
        assert d[-1] == 0.0
        np.testing.assert_allclose(np.diff(d), -0.25e-9, rtol=1e-12)

    def test_integer_cycle_phases_vanish(self):
        # f_c/W = 30 is an integer, so every wrapped phase is a full turn
        design = design_rainbow(ArrayConfig(32, 0.5, 60e9, 2e9, 48))
        np.testing.assert_allclose(np.exp(1j * design.weights.phases), 1.0, atol=1e-9)

    def test_scenario_independent(self):
        a = design_rainbow(CFG48)
        b = design_rainbow(CFG48)
        np.testing.assert_array_equal(a.weights.delays, b.weights.delays)
        np.testing.assert_array_equal(a.weights.phases, b.weights.phases)

    def test_argmax_sweeps_monotonically_across_band(self):
        # frozen from an argmax-scan oracle: the per-subcarrier peak walks
        # from about -30 deg to about +30 deg across the 2 GHz band
        cfg = ArrayConfig(32, 0.5, 60e9, 2e9, 128)
        design = design_rainbow(cfg)
        grid = np.deg2rad(np.arange(-90.0, 90.0, 0.25))
        heat = pattern_heatmap(design.weights, grid, cfg)
        peaks = np.rad2deg(grid[np.argmax(heat, axis=0)])
        assert np.all(np.diff(peaks) >= -0.3)
        span = peaks[-1] - peaks[0]
        assert 55.0 <= span <= 62.0


class TestQpdDesign:
    def test_quadratic_profile_first_element(self):
        # 4*pi*((2-32-1)/(2*33))^2 = 4*pi*(31/66)^2
        prof = qpd_phase_profile(32, np.pi)
        expected = 4 * np.pi * (31.0 / 66.0) ** 2
        assert prof[0] == pytest.approx(expected, rel=1e-12)
        assert prof[0] == pytest.approx(2.772, abs=5e-4)
        # symmetric and smallest in the middle
        np.testing.assert_allclose(prof, prof[::-1], atol=1e-12)
        assert prof.min() == min(prof[15], prof[16])

    def test_zero_peak_reduces_to_steered_array(self):
        theta = 17 * DEG
        design = design_qpd(theta, 0.0, CFG48)
        n = np.arange(32)
        expected = wrap_phase(2 * np.pi * 0.5 * n * np.sin(theta))
        np.testing.assert_allclose(design.weights.phases, expected, atol=1e-12)
        assert np.all(design.weights.delays == 0.0)

    def test_broadening_widens_3db_beamwidth(self):
        theta = 0.0
        grid = np.deg2rad(np.linspace(-30, 30, 2401))
        f_c = 60e9

        def width_3db(design):
            v = awv(design.weights, f_c, CFG48)
            pattern = np.array([gain(t, f_c, v, CFG48) for t in grid])
            above = pattern >= pattern.max() / 2
            return np.rad2deg(grid[above][-1] - grid[above][0])

        narrow = width_3db(design_qpd(theta, 0.0, CFG48))
        wide = width_3db(design_qpd(theta, np.pi, CFG48))
        assert wide > narrow

    @pytest.mark.parametrize("theta", [2.0, np.nan])
    def test_direction_outside_the_half_plane_rejected(self, theta):
        # sin(2.0) == sin(pi - 2.0): 2.0 rad would steer at 65 degrees unannounced
        with pytest.raises(ValueError, match=rf"^angle of departure {theta!r} outside"):
            design_qpd(theta, 0.0, CFG48)


class TestGenies:
    def test_digital_genie_is_matched(self):
        # the closed-form gain N is the gain of the unit-norm matched filter
        theta = -23 * DEG
        freqs = CFG48.subcarrier_centers()
        gains = DigitalGeniePolicy(CFG48).gains(band_steering(theta, CFG48), [theta])
        np.testing.assert_array_equal(gains, np.full(48, 32.0))
        v = matched_filter([theta], [0], CFG48)[:, 7]
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(np.abs(v), 1 / np.sqrt(32), atol=1e-12)
        assert gain(theta, freqs[7], v, CFG48) == pytest.approx(32.0, rel=1e-12)

    def test_stepped_genie_matches_design_stepped_when_static(self):
        angles = np.array([-10.0, 15.0, 40.0]) * DEG
        by_policy = genie_stepped(angles, CFG48)
        direct = design_stepped(angles, CFG48)
        np.testing.assert_array_equal(by_policy.weights.phases, direct.weights.phases)
        np.testing.assert_array_equal(by_policy.weights.delays, direct.weights.delays)
        assert by_policy.kind == "stepped_genie"

    def test_single_user_full_gain_across_band(self):
        cfg = ArrayConfig(32, 0.5, 60e9, 2e9, 16)
        theta = 12 * DEG
        design = genie_stepped([theta], cfg)
        gains = gain_profile(theta, awv_matrix(design.weights, cfg), cfg)
        assert np.all(gains >= 0.9 * 32)

    def test_single_analog_bank_trails_digital_for_separated_users(self):
        # one phase/delay bank serving three well separated users cannot hold
        # the matched gain everywhere; fully digital weights can
        cfg = ArrayConfig(32, 0.5, 60e9, 2e9, 240)
        angles = np.array([-30.0, 0.0, 30.0]) * DEG
        design = genie_stepped(angles, cfg)
        cols = awv_matrix(design.weights, cfg)
        per = 240 // 3
        analog_min = np.inf
        for u, th in enumerate(angles):
            sl = slice(u * per, (u + 1) * per)
            analog_min = min(analog_min, gain_profile(th, cols, cfg)[sl].min())
        assert analog_min < 0.5 * 32

        digital = DigitalGeniePolicy(cfg).gains(band_steering(angles, cfg), angles)
        assert digital.min() == 32.0


class TestPolicies:
    def test_fixed_policy_precomputes_rows(self):
        # the columns are fixed at construction: the true directions passed to
        # gains() do not move them, only the steering they are scored against
        design = design_rainbow(CFG48)
        pol = FixedBeamPolicy(design, CFG48)
        assert pol.kind == "rainbow"
        b = band_steering(np.array([-5.0, 20.0, -35.0]) * DEG, CFG48)
        first = pol.gains(b, np.array([-5.0, 20.0, -35.0]) * DEG)
        np.testing.assert_array_equal(pol.gains(b, np.zeros(3)), first)
        cols = awv_matrix(design.weights, CFG48)
        np.testing.assert_array_equal(first, _matched_gains(b, cols))

    def test_stepped_genie_policy_equals_direct_solve(self):
        # each call re-solves at the directions it is given; nothing is carried
        # from one evaluated instant to the next. The gains are the direct
        # solve's N*|ip|^2 to the bit, and its columns scored against b to the
        # derived rounding bound. Under the identity assignment the band order is
        # the user order
        pol = SteppedGeniePolicy(CFG48)
        atol = genie_gain_atol(CFG48, CFG48.default_tau_max())
        for deg in ([-5.0, 20.0, -35.0], [30.0, -10.0, 5.0], [-5.0, 20.0, -35.0]):
            angles = np.array(deg) * DEG
            b = band_steering(angles, CFG48)
            direct = genie_stepped(angles, CFG48)
            assert direct.report.objective == float(np.sum(direct.report.alignment))
            gains = pol.gains(b, angles)
            np.testing.assert_array_equal(gains, CFG48.num_antennas * direct.report.alignment**2)
            cols = awv_matrix(direct.weights, CFG48)
            np.testing.assert_allclose(gains, _matched_gains(b, cols), rtol=0, atol=atol)

    @pytest.mark.parametrize("kind", ["rainbow", "stepped_genie"])
    def test_analog_policy_gains_score_its_rows(self, kind):
        # a frozen design's columns are its weights at the subcarrier centers,
        # scored to the bit; the stepped genie scores a direct solve at the true
        # directions from that solve, within the derived bound of its columns
        assignment = np.array([2, 0, 1])
        angles = (np.array([-5.0, 20.0, -35.0]) * DEG)[np.argsort(assignment)]
        if kind == "rainbow":
            design = design_rainbow(CFG48)
            pol = FixedBeamPolicy(design, CFG48)
            atol = 0.0
        else:
            design = genie_stepped(angles, CFG48)
            pol = SteppedGeniePolicy(CFG48)
            atol = genie_gain_atol(CFG48, CFG48.default_tau_max())
        assert pol.kind == kind
        b = band_steering(angles, CFG48)
        cols = awv_matrix(design.weights, CFG48)
        np.testing.assert_allclose(pol.gains(b, angles), _matched_gains(b, cols), rtol=0, atol=atol)

    @pytest.mark.parametrize("num_antennas, tau_scale", [(8, 1.0), (32, 1.0), (32, 8.0), (128, 1.0)])
    def test_genie_gain_bound_holds(self, num_antennas, tau_scale):
        # the bound scales with the delay budget's phase 2*pi*tau_max*f_max, so a
        # longer budget gets a looser one; four users on K = 240
        cfg = ArrayConfig(num_antennas, 0.5, 60e9, 2e9, 240)
        tau_max = tau_scale * cfg.default_tau_max()
        opts = SolverOptions(tau_max=tau_max)
        rng = np.random.default_rng(num_antennas)
        atol = genie_gain_atol(cfg, tau_max)
        for _ in range(3):
            angles = rng.uniform(-1.0, 1.0, 4)
            assignment = rng.permutation(4)
            angles = angles[np.argsort(assignment)]
            b = band_steering(angles, cfg)
            gains = SteppedGeniePolicy(cfg, opts).gains(b, angles)
            cols = awv_matrix(genie_stepped(angles, cfg, opts).weights, cfg)
            np.testing.assert_allclose(gains, _matched_gains(b, cols), rtol=0, atol=atol)

    @pytest.mark.parametrize("kind", ANALOG_KINDS)
    def test_pattern_heatmap_is_what_the_policy_scores(self, kind):
        # both score the design's awv_matrix columns against band_steering, so
        # each heatmap row is the policy's gains toward that angle, bit for bit
        aods = np.array([-25.0, 3.0, 30.0]) * DEG
        build = {
            "slanted": lambda: design_slanted([static_estimate(a / DEG, 4 * DEG**2) for a in aods],
                                              0.97, CFG48, TIMING),
            "stepped": lambda: design_stepped(aods, CFG48),
            "rainbow": lambda: design_rainbow(CFG48),
            "qpd": lambda: design_qpd(10 * DEG, np.pi, CFG48),
        }
        design = build[kind]()
        assert design.kind == kind
        grid = np.deg2rad(np.linspace(-60.0, 60.0, 9))
        heat = pattern_heatmap(design.weights, grid, CFG48)
        pol = FixedBeamPolicy(design, CFG48)
        for i, theta in enumerate(grid):
            np.testing.assert_array_equal(heat[i], pol.gains(band_steering(theta, CFG48), None))

    def test_digital_genie_policy_full_gain_on_own_band(self):
        # the policy's closed form N, and the matched filter reaching it on
        # every user's own band
        angles = np.array([-30.0, 0.0, 30.0]) * DEG
        assignment = np.array([2, 0, 1])
        pol = DigitalGeniePolicy(CFG48)
        b = band_steering(angles[[1, 2, 0]], CFG48)
        np.testing.assert_array_equal(pol.gains(b, angles), np.full(48, 32.0))
        cols = matched_filter(angles, assignment, CFG48)
        per = 16
        for u, band in enumerate(assignment):
            sl = slice(band * per, (band + 1) * per)
            gains = gain_profile(angles[u], cols, CFG48)[sl]
            np.testing.assert_allclose(gains, 32.0, rtol=1e-9)


class TestBeamDesignContainer:
    def test_unknown_kind_rejected(self):
        from slantbeam.arrays import AnalogWeights

        with pytest.raises(ValueError):
            BeamDesign(kind="mystery", weights=AnalogWeights(np.zeros(2), np.zeros(2)))

    def test_json_dict_carries_anchor_and_objective(self):
        est = static_estimate(10.0, var_theta=2 * DEG**2)
        design = design_slanted([est], 0.97, CFG48, TIMING, range_override=20 * DEG)
        doc = design.to_json_dict(np.array([0]))
        assert doc["kind"] == "slanted"
        assert len(doc["phases_rad"]) == 32 and len(doc["delays_s"]) == 32
        assert doc["anchor"]["range_deg"] == pytest.approx(20.0)
        assert doc["anchor"]["assignment"] == [0]
        assert doc["solver_objective"] > 0

    @pytest.mark.parametrize("assignment", [[0], [0, 0, 2], [0.0, 1.0, 2.0]])
    def test_json_dict_rejects_an_assignment_that_is_not_a_permutation_of_the_users(
            self, assignment):
        design = design_stepped(np.array([-20.0, 0.0, 20.0]) * DEG, CFG48)
        with pytest.raises(ValueError, match=r"^assignment"):
            design.to_json_dict(assignment)

    def test_stepped_targets_helper(self):
        anchor = AnchorSpec(np.array([-10.0, 0.0, 10.0]) * DEG, 0.0)
        prof = target_directions(anchor, CFG48)
        np.testing.assert_allclose(prof.directions[0:16], -10 * DEG, atol=1e-12)
        np.testing.assert_allclose(prof.directions[32:48], 10 * DEG, atol=1e-12)
