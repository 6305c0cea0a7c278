import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slantbeam.mobility import (
    FrameTiming,
    KinematicsEstimate,
    ScenarioConfig,
    UserKinematics,
    anchor_selection,
    coverage_halfwidth,
    predicted_variance,
    sample_scenario,
    true_aod,
)

DEG = np.pi / 180.0

TABLE_TIMING = FrameTiming(duration=0.16, num_steps=100)

# estimate used in several tests: 15 deg start, 60 deg/s, no acceleration,
# error variances 2 deg^2, 10 deg^2/s^2, 5 deg^2/s^4
EXAMPLE_EST = KinematicsEstimate(
    theta0=15 * DEG,
    omega0=60 * DEG,
    alpha=0.0,
    var_theta=2 * DEG**2,
    var_omega=10 * DEG**2,
    var_alpha=5 * DEG**2,
)


def erf_two_sided_quantile(p: float) -> float:
    """Independent oracle: invert Phi(z) = (1+p)/2 by bisection on math.erf."""
    target = (1 + p) / 2
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if 0.5 * (1 + math.erf(mid / math.sqrt(2))) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestFrameTiming:
    def test_elapsed_exact_at_frame_end(self):
        assert TABLE_TIMING.elapsed(100) == 0.16
        assert FrameTiming(0.16, 25).elapsed(25) == 0.16

    def test_step_index_bounds(self):
        with pytest.raises(ValueError):
            TABLE_TIMING.elapsed(101)
        with pytest.raises(ValueError):
            TABLE_TIMING.elapsed(-1)

    def test_bad_frame_rejected(self):
        with pytest.raises(ValueError):
            FrameTiming(0.0, 10)
        with pytest.raises(ValueError):
            FrameTiming(0.16, 0)


class TestKinematics:
    def test_linear_motion_endpoint(self):
        kin = UserKinematics(15 * DEG, 60 * DEG, 0.0)
        assert true_aod(kin, 100, TABLE_TIMING) == pytest.approx(24.6 * DEG, rel=1e-12)

    def test_acceleration_term(self):
        # 78.125 deg/s^2 for 0.16 s adds exactly 1 degree: 0.5*78.125*0.16^2
        kin = UserKinematics(0.0, 0.0, 78.125 * DEG)
        assert true_aod(kin, 100, TABLE_TIMING) == pytest.approx(1.0 * DEG, rel=1e-12)

    def test_vectorized_over_steps(self):
        kin = UserKinematics(0.1, 0.2, 0.3)
        steps = np.arange(101)
        traj = true_aod(kin, steps, TABLE_TIMING)
        assert traj.shape == (101,)
        assert traj[0] == 0.1
        t = 0.16 * 50 / 100
        assert traj[50] == pytest.approx(0.1 + 0.2 * t + 0.15 * t * t, rel=1e-12)

    def test_predicted_mean_matches_true_form(self):
        # same polynomial applied to the estimated state
        assert true_aod(EXAMPLE_EST, 100, TABLE_TIMING) == pytest.approx(24.6 * DEG, rel=1e-12)

    def test_estimate_is_a_kinematic_state_plus_variances(self):
        # positional order: the state, then the three variances
        est = KinematicsEstimate(0.1, -0.7, 3.0, 1e-4, 1e-3, 1e-2)
        assert isinstance(est, UserKinematics)
        assert (est.theta0, est.omega0, est.alpha) == (0.1, -0.7, 3.0)
        assert (est.var_theta, est.var_omega, est.var_alpha) == (1e-4, 1e-3, 1e-2)
        steps = np.arange(101)
        np.testing.assert_array_equal(true_aod(est, steps, TABLE_TIMING),
                                      true_aod(UserKinematics(0.1, -0.7, 3.0), steps, TABLE_TIMING))

    def test_prediction_unbiased_monte_carlo(self):
        rng = np.random.default_rng(42)
        n = 10_000
        theta = EXAMPLE_EST.theta0 + rng.normal(0, math.sqrt(EXAMPLE_EST.var_theta), n)
        omega = EXAMPLE_EST.omega0 + rng.normal(0, math.sqrt(EXAMPLE_EST.var_omega), n)
        alpha = EXAMPLE_EST.alpha + rng.normal(0, math.sqrt(EXAMPLE_EST.var_alpha), n)
        t = TABLE_TIMING.elapsed(100)
        final = theta + t * omega + 0.5 * t * t * alpha
        se = np.std(final) / math.sqrt(n)
        assert abs(np.mean(final) - true_aod(EXAMPLE_EST, 100, TABLE_TIMING)) < 3 * se

    @pytest.mark.parametrize("field", ["theta0", "omega0", "alpha"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_state_rejected_naming_the_field(self, field, value):
        state = {"theta0": 0.1, "omega0": 0.0, "alpha": 0.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            UserKinematics(**state)
        # the state is judged before the variances, which are bad here too
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            KinematicsEstimate(**state, var_theta=-1.0, var_omega=0.0, var_alpha=0.0)


class TestPredictedVariance:
    def test_table_value_at_frame_end(self):
        # direct arithmetic oracle in degree units:
        # 2 + 0.16^2*10 + 0.16^4*5/4 = 2.2568192 deg^2
        expected_deg2 = 2.0 + 0.16**2 * 10.0 + 0.16**4 * 5.0 / 4.0
        assert expected_deg2 == pytest.approx(2.2568192, abs=1e-12)
        got = predicted_variance(EXAMPLE_EST, 100, TABLE_TIMING) / DEG**2
        assert got == pytest.approx(expected_deg2, abs=1e-9)

    def test_at_time_zero(self):
        assert predicted_variance(EXAMPLE_EST, 0, TABLE_TIMING) == pytest.approx(2 * DEG**2, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        vt=st.floats(0, 1e-2),
        vo=st.floats(0, 1e-2),
        va=st.floats(0, 1e-2),
    )
    def test_nonnegative_and_nondecreasing(self, vt, vo, va):
        est = KinematicsEstimate(0.0, 0.0, 0.0, vt, vo, va)
        var = predicted_variance(est, np.arange(101), TABLE_TIMING)
        assert np.all(var >= 0)
        assert np.all(np.diff(var) >= -1e-18)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            KinematicsEstimate(0, 0, 0, -1e-3, 0, 0)


class TestCoverageHalfwidth:
    def test_97_percent_value(self):
        # frozen from the erf-bisection oracle
        assert coverage_halfwidth(0.97) == pytest.approx(2.1700903775845592, abs=1e-9)

    def test_cross_checked_against_erf_oracle(self):
        for p in (0.5, 0.6827, 0.9, 0.95, 0.97, 0.99, 0.999):
            assert coverage_halfwidth(p) == pytest.approx(erf_two_sided_quantile(p), abs=1e-6)

    def test_one_sigma(self):
        assert coverage_halfwidth(0.6827) == pytest.approx(1.0, abs=1e-3)

    def test_pinned_quantile_table(self):
        # written by scipy.special.ndtri, which computed the quantile before
        # the standard library's NormalDist did. Both sit within about 4 ulps
        # of the exact quantile (measured against 40-digit mpmath over
        # p in [0.01, 0.999]), so they may differ by up to 8 ulps; at the
        # default p = 0.97 they agree bit for bit
        table = {
            0.5: 0.6744897501960817,
            0.6827: 1.0000217133229992,
            0.9: 1.6448536269514722,
            0.95: 1.959963984540054,
            0.99: 2.5758293035489004,
            0.999: 3.2905267314919255,
        }
        for p, value in table.items():
            assert coverage_halfwidth(p) == pytest.approx(value, rel=8 * np.finfo(float).eps, abs=0)
        assert coverage_halfwidth(0.97) == 2.17009037758456

    def test_monotone_in_p(self):
        ps = np.linspace(0.01, 0.995, 40)
        vals = [coverage_halfwidth(p) for p in ps]
        assert np.all(np.diff(vals) > 0)

    def test_domain(self):
        for p in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                coverage_halfwidth(p)


class TestAnchorSelection:
    def test_moving_user_hull(self):
        # frozen from an explicit per-step scan oracle (degree units):
        # hull [11.931029, 27.860065], width 15.929036, midpoint 19.895547
        spec = anchor_selection([EXAMPLE_EST], 0.97, TABLE_TIMING)
        assert spec.aod_range / DEG == pytest.approx(15.92903583818871, abs=1e-9)
        assert spec.centers[0] / DEG == pytest.approx(19.89554667553892, abs=1e-9)

    def test_independent_step_scan_oracle(self):
        ell = erf_two_sided_quantile(0.97)
        lo, hi = np.inf, -np.inf
        for i in range(101):
            t = (i * 0.16) / 100
            mean = 15.0 + 60.0 * t
            var = 2.0 + 10.0 * t * t + 1.25 * t**4
            lo = min(lo, mean - ell * math.sqrt(var))
            hi = max(hi, mean + ell * math.sqrt(var))
        spec = anchor_selection([EXAMPLE_EST], 0.97, TABLE_TIMING)
        assert spec.aod_range / DEG == pytest.approx(hi - lo, abs=1e-6)
        assert spec.centers[0] / DEG == pytest.approx((lo + hi) / 2, abs=1e-6)
        # half-widths at the first and last step
        assert ell * math.sqrt(2.0) == pytest.approx(3.068971, abs=1e-5)
        assert ell * math.sqrt(2.2568192) == pytest.approx(3.260065, abs=1e-5)

    def test_static_user_width_is_two_ell_sigma(self):
        est = KinematicsEstimate(0.25, 0.0, 0.0, 2 * DEG**2, 0.0, 0.0)
        spec = anchor_selection([est], 0.97, TABLE_TIMING)
        expected = 2 * coverage_halfwidth(0.97) * math.sqrt(2.0) * DEG
        assert spec.aod_range == pytest.approx(expected, rel=1e-12)
        assert spec.centers[0] == pytest.approx(0.25, rel=1e-12)

    def test_zero_variance_static_user_collapses(self):
        est = KinematicsEstimate(0.1, 0.0, 0.0, 0.0, 0.0, 0.0)
        spec = anchor_selection([est], 0.97, TABLE_TIMING)
        assert spec.aod_range == 0.0
        assert spec.centers[0] == 0.1

    def test_shared_range_is_max_over_users(self):
        fast = EXAMPLE_EST
        slow = KinematicsEstimate(-0.3, 0.0, 0.0, 2 * DEG**2, 0.0, 0.0)
        spec = anchor_selection([slow, fast], 0.97, TABLE_TIMING)
        solo_fast = anchor_selection([fast], 0.97, TABLE_TIMING)
        assert spec.aod_range == solo_fast.aod_range
        assert spec.num_users == 2

    def test_wider_probability_wider_range(self):
        a = anchor_selection([EXAMPLE_EST], 0.90, TABLE_TIMING)
        b = anchor_selection([EXAMPLE_EST], 0.99, TABLE_TIMING)
        assert b.aod_range > a.aod_range


class TestPerStepCoverage:
    def test_containment_matches_requested_probability(self):
        # 10^4 sampled trajectories; every step's containment within 97% +/- 2%
        rng = np.random.default_rng(2024)
        n = 10_000
        est = EXAMPLE_EST
        ell = coverage_halfwidth(0.97)
        theta = est.theta0 + rng.normal(0, math.sqrt(est.var_theta), n)
        omega = est.omega0 + rng.normal(0, math.sqrt(est.var_omega), n)
        alpha = est.alpha + rng.normal(0, math.sqrt(est.var_alpha), n)
        steps = np.arange(101)
        t = TABLE_TIMING.elapsed(steps)
        traj = theta[:, None] + np.outer(omega, t) + 0.5 * np.outer(alpha, t * t)
        mean = true_aod(est, steps, TABLE_TIMING)
        half = ell * np.sqrt(predicted_variance(est, steps, TABLE_TIMING))
        inside = np.abs(traj - mean[None, :]) <= half[None, :]
        frac = inside.mean(axis=0)
        assert np.all(frac >= 0.95) and np.all(frac <= 0.99)


class TestSampleScenario:
    def test_spacing_and_range_always_respected(self):
        scen = ScenarioConfig()
        rng = np.random.default_rng(5)
        for _ in range(200):
            users = sample_scenario(rng, scen)
            hats = np.sort([est.theta0 for _, est in users])
            assert np.all(np.diff(hats) >= scen.min_spacing)
            assert np.all(np.abs(hats) <= np.pi / 4)

    def test_error_statistics(self):
        scen = ScenarioConfig()
        rng = np.random.default_rng(99)
        errs = []
        omegas = []
        for _ in range(4000):
            users = sample_scenario(rng, scen)
            for kin, est in users:
                errs.append(kin.theta0 - est.theta0)
                omegas.append(est.omega0)
        errs = np.array(errs)
        omegas = np.array(omegas)
        # variance of the angle error should track 2 deg^2
        assert np.var(errs) / DEG**2 == pytest.approx(2.0, rel=0.05)
        assert abs(np.mean(errs)) < 4 * np.std(errs) / math.sqrt(errs.size)
        # velocity magnitudes stay in range, both signs occur
        assert np.max(np.abs(omegas)) <= np.deg2rad(80.0) + 1e-12
        assert (omegas > 0).any() and (omegas < 0).any()

    def test_eight_users_with_tight_spacing(self):
        scen = ScenarioConfig(num_users=8)
        rng = np.random.default_rng(1)
        users = sample_scenario(rng, scen)
        hats = np.sort([est.theta0 for _, est in users])
        assert hats.size == 8
        assert np.all(np.diff(hats) >= scen.min_spacing)

    def test_deterministic_given_seed(self):
        scen = ScenarioConfig()
        a = sample_scenario(np.random.default_rng(123), scen)
        b = sample_scenario(np.random.default_rng(123), scen)
        assert a == b

    def test_infeasible_spacing_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(num_users=10, aod_range=(-np.pi / 4, np.pi / 4))

    def test_zero_velocity_range(self):
        scen = ScenarioConfig(velocity_range=(0.0, 0.0))
        users = sample_scenario(np.random.default_rng(3), scen)
        for _, est in users:
            assert est.omega0 == 0.0
