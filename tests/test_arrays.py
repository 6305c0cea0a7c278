import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slantbeam.arrays import (
    AnalogWeights,
    ArrayConfig,
    _phasor_ramp,
    array_response,
    awv,
    awv_matrix,
    gain,
    gain_profile,
    pattern_heatmap,
    response_matrix,
    wrap_phase,
)

TABLE_CFG = ArrayConfig(
    num_antennas=32,
    spacing=0.5,
    carrier_freq=60e9,
    bandwidth=2e9,
    num_subcarriers=1200,
)


def unit_vector(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


class TestSubcarrierGrid:
    def test_spacing_is_w_over_k(self):
        assert TABLE_CFG.subcarrier_spacing == 2e9 / 1200

    def test_centers_inside_band(self):
        f = TABLE_CFG.subcarrier_centers()
        lo, hi = TABLE_CFG.band_edges()
        assert f.shape == (1200,)
        assert np.all(f > lo) and np.all(f < hi)
        assert np.all(np.diff(f) > 0)

    def test_single_subcarrier_sits_at_carrier(self):
        cfg = ArrayConfig(4, 0.5, 60e9, 2e9, 1)
        assert cfg.subcarrier_centers()[0] == 60e9

    def test_default_tau_max(self):
        # 32 antennas over 2 GHz: 16 ns delay budget
        assert TABLE_CFG.default_tau_max() == pytest.approx(16e-9, rel=1e-12)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            ArrayConfig(0, 0.5, 60e9, 2e9, 64)
        with pytest.raises(ValueError):
            ArrayConfig(4, 0.5, 1e9, 4e9, 64)
        with pytest.raises(ValueError):
            ArrayConfig(4, -0.5, 60e9, 2e9, 64)
        with pytest.raises(ValueError):
            ArrayConfig(4, 0.5, 60e9, 2e9, 0)


class TestArrayResponse:
    def test_second_element_quadrature_at_30deg(self):
        # hand value: phase = 2*pi * 1 * 0.5 * sin(30 deg) * 1 = pi/2 -> +j
        a = array_response(np.deg2rad(30.0), 60e9, TABLE_CFG)
        assert a[1] == pytest.approx(1j, abs=1e-12)

    def test_reduces_to_narrowband_steering_at_carrier(self):
        theta = np.deg2rad(17.0)
        a = array_response(theta, 60e9, TABLE_CFG)
        n = np.arange(32)
        classic = np.exp(1j * 2 * np.pi * n * 0.5 * np.sin(theta))
        np.testing.assert_allclose(a, classic, atol=1e-12)

    def test_unit_modulus_entries(self):
        a = array_response(0.3, 59.2e9, TABLE_CFG)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)
        assert np.linalg.norm(a) ** 2 == pytest.approx(32.0, rel=1e-12)

    def test_squint_moves_phase_with_frequency(self):
        theta = np.deg2rad(30.0)
        lo = array_response(theta, 59e9, TABLE_CFG)
        hi = array_response(theta, 61e9, TABLE_CFG)
        assert np.angle(lo[1]) == pytest.approx(np.pi / 2 * (59 / 60), rel=1e-12)
        assert np.angle(hi[1]) == pytest.approx(np.pi / 2 * (61 / 60), rel=1e-12)

    def test_out_of_band_frequency_rejected(self):
        with pytest.raises(ValueError):
            array_response(0.0, 63e9, TABLE_CFG)
        with pytest.raises(ValueError):
            array_response(0.0, 58.9e9, TABLE_CFG)

    def test_angle_outside_half_plane_rejected(self):
        with pytest.raises(ValueError):
            array_response(1.8, 60e9, TABLE_CFG)

    def test_one_angle_per_frequency_matches_scalar_rows(self):
        freqs = TABLE_CFG.subcarrier_centers()[::100]
        thetas = np.linspace(-1.2, 1.4, freqs.size)
        rows = response_matrix(thetas, freqs, TABLE_CFG)
        assert rows.shape == (freqs.size, 32)
        for k in range(freqs.size):
            np.testing.assert_array_equal(
                rows[k], response_matrix(thetas[k], freqs[k : k + 1], TABLE_CFG)[0]
            )

    @pytest.mark.parametrize("bad", [np.nan, 1.6, -np.inf])
    def test_angle_vector_outside_half_plane_rejected(self, bad):
        freqs = TABLE_CFG.subcarrier_centers()[:4]
        with pytest.raises(ValueError, match=r"angle of departure .* outside \[-pi/2, pi/2\]"):
            response_matrix(np.array([0.1, bad, 0.2, 0.3]), freqs, TABLE_CFG)
        with pytest.raises(ValueError, match=r"angle of departure .* outside \[-pi/2, pi/2\]"):
            array_response(bad, 60e9, TABLE_CFG)


class TestPhasorRamp:
    @pytest.mark.parametrize("m", [1, 2, 3, 31, 32, 241, 1200])
    def test_matches_direct_exponential(self, m):
        # starts as large as the solver's full-frequency phase step (2 pi tau f_0
        # is about 6e3 rad at tau = 16 ns); every argument stays below 2**13, where
        # the rounding of both arguments bounds the difference by about 9.6e-13
        rng = np.random.default_rng(m)
        start = rng.uniform(5.5e3, 6.5e3, 9)
        step = rng.uniform(-0.5, 0.5, 9)
        ramp = _phasor_ramp(start, step, m)
        direct = np.exp(1j * (start[:, None] + step[:, None] * np.arange(m)))
        assert ramp.shape == (9, m)
        assert np.max(np.abs(ramp - direct)) <= 1e-12


class TestResponseMatrix:
    @pytest.mark.parametrize("num_antennas", [1, 7, 32])
    def test_matches_direct_formula(self, num_antennas):
        cfg = ArrayConfig(num_antennas, 0.5, 60e9, 2e9, 48)
        freqs = cfg.subcarrier_centers()
        thetas = np.linspace(-1.5, 1.5, freqs.size)
        n = np.arange(num_antennas)
        direct = np.exp(1j * 2 * np.pi * 0.5 * np.outer(np.sin(thetas) * freqs / 60e9, n))
        np.testing.assert_allclose(response_matrix(thetas, freqs, cfg), direct, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            response_matrix(0.4, freqs, cfg),
            np.exp(1j * 2 * np.pi * 0.5 * np.sin(0.4) * np.outer(freqs / 60e9, n)),
            rtol=0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("num_angles, num_freqs", [(5, 1), (3, 8)])
    def test_angle_count_must_be_one_or_one_per_frequency(self, num_angles, num_freqs):
        freqs = TABLE_CFG.subcarrier_centers()[:num_freqs]
        thetas = np.linspace(-0.3, 0.3, num_angles)
        message = rf"{num_angles} angles for {num_freqs} frequencies"
        with pytest.raises(ValueError, match=message):
            response_matrix(thetas, freqs, TABLE_CFG)
        with pytest.raises(ValueError, match=message):
            gain_profile(thetas, freqs, np.ones((num_freqs, 32)) / np.sqrt(32), TABLE_CFG)


class TestAnalogWeights:
    def test_full_delay_turn_is_identity(self):
        # 1 ns of delay at 1 GHz is one full carrier cycle: exp(-j*2*pi) = 1
        cfg = ArrayConfig(16, 0.5, 1e9, 0.4e9, 8)
        w = AnalogWeights(np.zeros(16), np.full(16, 1e-9))
        v = awv(w, 1e9, cfg)
        np.testing.assert_allclose(v, np.full(16, 1 / 4.0), atol=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(7)
        w = AnalogWeights(wrap_phase(rng.uniform(-np.pi, np.pi, 32)), rng.uniform(0, 16e-9, 32))
        v = awv(w, 60.4e9, TABLE_CFG)
        assert np.linalg.norm(v) ** 2 == pytest.approx(1.0, rel=1e-12)

    def test_matrix_matches_scalar_form(self):
        rng = np.random.default_rng(3)
        w = AnalogWeights(wrap_phase(rng.uniform(-np.pi, np.pi, 32)), rng.uniform(0, 16e-9, 32))
        freqs = TABLE_CFG.subcarrier_centers()[:5]
        rows = awv_matrix(w, freqs, TABLE_CFG)
        for i, f in enumerate(freqs):
            np.testing.assert_allclose(rows[i], awv(w, f, TABLE_CFG), atol=1e-12)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            AnalogWeights(np.zeros(4), np.array([0.0, -1e-12, 0.0, 0.0]))

    def test_unwrapped_phase_rejected(self):
        with pytest.raises(ValueError):
            AnalogWeights(np.array([4.0, 0.0]), np.zeros(2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AnalogWeights(np.zeros(4), np.zeros(3))


class TestGain:
    def test_two_element_null(self):
        # v = (1,1)/sqrt(2) against a = (1,-1): perfectly cancelled
        cfg = ArrayConfig(2, 0.5, 60e9, 2e9, 4)
        v = np.ones(2) / np.sqrt(2)
        assert gain(np.pi / 2, 60e9, v, cfg) == pytest.approx(0.0, abs=1e-24)

    def test_matched_vector_attains_peak(self):
        theta, f = np.deg2rad(-22.0), 60.7e9
        a = array_response(theta, f, TABLE_CFG)
        assert gain(theta, f, a / np.sqrt(32), TABLE_CFG) == pytest.approx(32.0, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        theta=st.floats(-np.pi / 2, np.pi / 2),
        f_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_bounded_by_num_antennas(self, theta, f_frac, seed):
        f = 59e9 + 2e9 * f_frac
        v = unit_vector(np.random.default_rng(seed), 32)
        g = gain(theta, f, v, TABLE_CFG)
        assert 0.0 <= g <= 32.0 + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        delta=st.floats(0, 50e-9),
        theta=st.floats(-np.pi / 2, np.pi / 2),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_common_delay_shift_leaves_gain_unchanged(self, delta, theta, seed):
        rng = np.random.default_rng(seed)
        w = AnalogWeights(wrap_phase(rng.uniform(-np.pi, np.pi, 32)), rng.uniform(0, 8e-9, 32))
        shifted = AnalogWeights(w.phases, w.delays + delta)
        f = 60.3e9
        g0 = gain(theta, f, awv(w, f, TABLE_CFG), TABLE_CFG)
        g1 = gain(theta, f, awv(shifted, f, TABLE_CFG), TABLE_CFG)
        assert g1 == pytest.approx(g0, abs=1e-9)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            gain(0.0, 60e9, np.ones(5) / np.sqrt(5), TABLE_CFG)


class TestPatternHeatmap:
    def test_boresight_row_is_full_gain(self):
        # zero phases and delays point at 0 deg on every subcarrier
        cfg = ArrayConfig(32, 0.5, 60e9, 2e9, 64)
        w = AnalogWeights(np.zeros(32), np.zeros(32))
        grid = np.deg2rad(np.array([-10.0, 0.0, 10.0]))
        heat = pattern_heatmap(w, grid, cfg)
        assert heat.shape == (3, 64)
        np.testing.assert_allclose(heat[1], 32.0, rtol=1e-9)
        assert np.all(heat[0] < 1.0) and np.all(heat[2] < 1.0)

    def test_matches_pointwise_gain(self):
        cfg = ArrayConfig(8, 0.5, 60e9, 2e9, 16)
        rng = np.random.default_rng(11)
        w = AnalogWeights(wrap_phase(rng.uniform(-np.pi, np.pi, 8)), rng.uniform(0, 4e-9, 8))
        grid = np.deg2rad(np.linspace(-60, 60, 7))
        heat = pattern_heatmap(w, grid, cfg)
        freqs = cfg.subcarrier_centers()
        for i in (0, 3, 6):
            for k in (0, 9, 15):
                v = awv(w, freqs[k], cfg)
                assert heat[i, k] == pytest.approx(gain(grid[i], freqs[k], v, cfg), rel=1e-12)

    def test_gain_profile_row_convention(self):
        cfg = ArrayConfig(4, 0.5, 60e9, 2e9, 8)
        freqs = cfg.subcarrier_centers()
        w = AnalogWeights(np.zeros(4), np.linspace(0, 1e-9, 4))
        rows = awv_matrix(w, freqs, cfg)
        prof = gain_profile(0.1, freqs, rows, cfg)
        assert prof.shape == (8,)
        assert prof[3] == pytest.approx(gain(0.1, freqs[3], awv(w, freqs[3], cfg), cfg), rel=1e-12)

    def test_gain_profile_one_angle_per_frequency(self):
        cfg = ArrayConfig(4, 0.5, 60e9, 2e9, 8)
        freqs = cfg.subcarrier_centers()
        rows = awv_matrix(AnalogWeights(np.zeros(4), np.linspace(0, 1e-9, 4)), freqs, cfg)
        thetas = np.repeat([0.3, -0.2], 4)
        prof = gain_profile(thetas, freqs, rows, cfg)
        np.testing.assert_array_equal(prof[:4], gain_profile(0.3, freqs[:4], rows[:4], cfg))
        np.testing.assert_array_equal(prof[4:], gain_profile(-0.2, freqs[4:], rows[4:], cfg))


def test_wrap_phase_range():
    x = np.array([0.0, np.pi, -np.pi, 3 * np.pi, -7.5, 6.5])
    w = wrap_phase(x)
    assert np.all(w >= -np.pi) and np.all(w < np.pi)
    np.testing.assert_allclose(np.exp(1j * w), np.exp(1j * x), atol=1e-12)
