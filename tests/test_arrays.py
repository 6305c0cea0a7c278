import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slantbeam.arrays import (
    AnalogWeights,
    ArrayConfig,
    _as_float,
    _as_float_array,
    _as_int_array,
    _matched_gains,
    _phasor_ramp,
    awv_matrix,
    band_steering,
    gain_profile,
    pattern_heatmap,
    response_matrix,
    wrap_phase,
)
from slantbeam.jpta import TargetProfile
from slantbeam.link import LinkBudget, capacity_records
from slantbeam.mobility import AnchorSpec

from oracles import array_response, awv, gain, steering_gain_atol

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

    def test_one_angle_per_frequency_matches_scalar_rows(self):
        # column k toward thetas[k] is column k of the one-angle matrix toward it
        thetas = np.linspace(-1.2, 1.4, TABLE_CFG.num_subcarriers)
        cols = response_matrix(thetas, TABLE_CFG)
        assert cols.shape == (32, TABLE_CFG.num_subcarriers)
        for k in range(0, TABLE_CFG.num_subcarriers, 100):
            np.testing.assert_array_equal(cols[:, k], response_matrix(thetas[k], TABLE_CFG)[:, k])

    @pytest.mark.parametrize("bad", [np.nan, 1.6, -np.inf])
    def test_angle_vector_outside_half_plane_rejected(self, bad):
        thetas = np.full(TABLE_CFG.num_subcarriers, 0.2)
        thetas[1] = bad
        with pytest.raises(ValueError, match=r"angle of departure .* outside \[-pi/2, pi/2\]"):
            response_matrix(thetas, TABLE_CFG)


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

    @pytest.mark.parametrize("m", [1, 2, 3, 31, 32, 241, 1200])
    def test_complex64_ramp_rounds_the_complex128_ramp(self, m):
        rng = np.random.default_rng(m)
        start = rng.uniform(5.5e3, 6.5e3, 9)
        step = rng.uniform(-0.5, 0.5, 9)
        ramp = _phasor_ramp(start, step, m, np.complex64)
        assert ramp.dtype == np.complex64
        expected = _phasor_ramp(start, step, m).astype(np.complex64)
        np.testing.assert_array_equal(ramp.view(np.float32), expected.view(np.float32))


class TestResponseMatrix:
    @pytest.mark.parametrize("num_antennas", [1, 7, 32])
    def test_matches_direct_formula(self, num_antennas):
        cfg = ArrayConfig(num_antennas, 0.5, 60e9, 2e9, 48)
        freqs = cfg.subcarrier_centers()
        thetas = np.linspace(-1.5, 1.5, freqs.size)
        n = np.arange(num_antennas)
        direct = np.exp(1j * 2 * np.pi * 0.5 * np.outer(n, np.sin(thetas) * freqs / 60e9))
        np.testing.assert_allclose(response_matrix(thetas, cfg), direct, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            response_matrix(0.4, cfg),
            np.exp(1j * 2 * np.pi * 0.5 * np.sin(0.4) * np.outer(n, freqs / 60e9)),
            rtol=0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("num_angles, num_subcarriers", [(5, 1), (3, 8)])
    def test_angle_count_must_be_one_or_one_per_frequency(self, num_angles, num_subcarriers):
        cfg = ArrayConfig(32, 0.5, 60e9, 2e9, num_subcarriers)
        thetas = np.linspace(-0.3, 0.3, num_angles)
        k = num_subcarriers
        message = rf"^got {num_angles} angles for {k} subcarriers; pass 1 or {k}$"
        with pytest.raises(ValueError, match=message):
            response_matrix(thetas, cfg)
        with pytest.raises(ValueError, match=message):
            gain_profile(thetas, np.ones((32, num_subcarriers)) / np.sqrt(32), cfg)


class TestBandSteering:
    @pytest.mark.parametrize("num_users", [1, 3])
    @pytest.mark.parametrize("num_antennas, num_subcarriers", [(1, 48), (7, 48), (32, 48), (32, 1200)])
    def test_matches_direct_formula(self, num_antennas, num_subcarriers, num_users):
        cfg = ArrayConfig(num_antennas, 0.5, 60e9, 2e9, num_subcarriers)
        freqs = cfg.subcarrier_centers()
        angles = np.linspace(-1.5, 1.4, num_users)
        thetas = np.repeat(angles, num_subcarriers // num_users)
        n = np.arange(num_antennas)
        direct = np.exp(-1j * 2 * np.pi * 0.5 * np.outer(n, np.sin(thetas) * freqs / 60e9))
        b = band_steering(angles, cfg)
        assert b.shape == (num_antennas, num_subcarriers)
        np.testing.assert_allclose(b, direct, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b, np.conj(response_matrix(thetas, cfg)), rtol=0, atol=1e-12)

    def test_one_angle_covers_the_band(self):
        cfg = ArrayConfig(8, 0.5, 60e9, 2e9, 48)
        np.testing.assert_array_equal(band_steering(0.4, cfg), band_steering([0.4], cfg))
        np.testing.assert_allclose(band_steering(0.4, cfg), band_steering([0.4] * 3, cfg),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.6])
    def test_angle_outside_half_plane_rejected(self, bad):
        with pytest.raises(ValueError, match=r"angle of departure .* outside \[-pi/2, pi/2\]"):
            band_steering(np.array([0.1, bad, 0.2]), ArrayConfig(8, 0.5, 60e9, 2e9, 48))

    @pytest.mark.parametrize("num_angles", [0, 5, 7])
    def test_angle_count_must_divide_subcarriers(self, num_angles):
        with pytest.raises(ValueError, match=rf"{num_angles} angles do not split 48 subcarriers"):
            band_steering(np.zeros(num_angles), ArrayConfig(8, 0.5, 60e9, 2e9, 48))


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
        cols = awv_matrix(w, TABLE_CFG)
        for k, f in enumerate(TABLE_CFG.subcarrier_centers()[:5]):
            np.testing.assert_allclose(cols[:, k], awv(w, f, TABLE_CFG), atol=1e-12)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            AnalogWeights(np.zeros(4), np.array([0.0, -1e-12, 0.0, 0.0]))

    def test_unwrapped_phase_rejected(self):
        with pytest.raises(ValueError):
            AnalogWeights(np.array([4.0, 0.0]), np.zeros(2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AnalogWeights(np.zeros(4), np.zeros(3))


# every float-array field and argument passes arrays._as_float_array: each builder
# takes two entries where two are valid (K = 2 subcarriers, U = 2 users), and each
# bad input is refused with a ValueError that starts with the field's name; a
# negative entry is bad only where the field has a sign
TWO_CARRIERS = ArrayConfig(4, 0.5, 60e9, 2e9, 2)
FLOAT_ARRAY_FIELDS = {
    "centers": ("", lambda v: AnchorSpec(v, 0.1)),
    "phases": ("", lambda v: AnalogWeights(v, np.zeros(2))),
    "delays": ("non-negative", lambda v: AnalogWeights(np.zeros(2), v)),
    "directions": ("", lambda v: TargetProfile(v, TWO_CARRIERS)),
    "channel_gains": ("positive", lambda v: capacity_records(
        {}, np.zeros((1, 2)), TWO_CARRIERS, LinkBudget(), channel_gains=v)),
}
BAD_FLOAT_ARRAYS = {
    "bool array": np.array([True, False]),
    "complex": np.array([0.1 + 0.5j, 0.2]),
    "string": ["0.1", "0.2"],
    "2-D": np.full((1, 2), 0.1),
    "empty": np.zeros(0),
    "nan": [np.nan, 0.1],
    "negative": [-1e-12, 0.1],
    "bool entry": [True, 0.5],
    "ragged": [0.1, [0.2, 0.3]],
}


@pytest.mark.parametrize("field, case", [
    (field, case) for field, (sign, _) in sorted(FLOAT_ARRAY_FIELDS.items())
    for case in sorted(BAD_FLOAT_ARRAYS) if sign or case != "negative"])
def test_float_array_rule_names_the_field(field, case):
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        FLOAT_ARRAY_FIELDS[field][1](BAD_FLOAT_ARRAYS[case])


def test_float_array_rule_takes_a_scalar_as_one_entry():
    arr = _as_float_array("x", np.int64(3))
    assert arr.shape == (1,) and arr.dtype == float and not arr.flags.writeable
    assert _as_float_array("x", np.float32([0.5, 1.5]), "positive").tolist() == [0.5, 1.5]


def test_constructors_freeze_copies_not_the_callers_arrays():
    # AnchorSpec, AnalogWeights and TargetProfile hold read-only arrays equal to
    # what they were given, and the caller's own arrays stay writeable;
    # _as_int_array, which subband_users reads an assignment through, copies too
    c, a = np.array([0.0, 0.1]), np.array([1, 0])
    p, d = np.array([0.5, -0.5]), np.array([0.0, 1e-9])
    g = np.linspace(-0.5, 0.5, 8)
    spec = AnchorSpec(c, 0.1)
    weights = AnalogWeights(p, d)
    profile = TargetProfile(g, ArrayConfig(4, 0.5, 60e9, 2e9, 8))
    for stored, given in ((spec.centers, c), (weights.phases, p), (weights.delays, d),
                          (profile.directions, g)):
        assert given.flags.writeable and not stored.flags.writeable
        np.testing.assert_array_equal(stored, given)
    ints = _as_int_array("assignment", a)
    assert not np.shares_memory(ints, a)
    np.testing.assert_array_equal(ints, a)


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


# _as_float's inputs: reals of every kind (nan, inf and ints beyond int64 too)
# and what is not a real scalar (bool, numpy bool, text, 0-d arrays)
SCALARS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**100, 2**100),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(max_size=8),
    st.floats().map(np.array),
)


@settings(max_examples=300, deadline=None)
@given(value=SCALARS, sign=st.sampled_from(["", "positive", "non-negative"]))
@example(value=10**400, sign="")
@example(value=-0.0, sign="positive")
def test_as_float_obeys_its_rule_or_names_the_field(value, sign):
    real = (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, (bool, np.bool_)))
    allowed = real and (abs(int(value)) < 2**1000 if isinstance(value, (int, np.integer))
                        else math.isfinite(value))
    allowed = allowed and {"": True, "positive": value > 0, "non-negative": value >= 0}[sign]
    try:
        out = _as_float("field", value, sign)
    except ValueError as exc:
        assert str(exc).startswith("field must be ")
        assert not allowed
    else:
        assert allowed
        assert type(out) is float and out == float(value)


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

    @pytest.mark.parametrize("grid", [np.zeros((2, 3)), np.float64(0.0)])
    def test_grid_that_is_not_1d_rejected(self, grid):
        w = AnalogWeights(np.zeros(8), np.zeros(8))
        message = f"theta_grid must be 1-D, got shape {np.shape(grid)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pattern_heatmap(w, grid, ArrayConfig(8, 0.5, 60e9, 2e9, 48))

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

    def test_gain_profile_column_convention(self):
        cfg = ArrayConfig(4, 0.5, 60e9, 2e9, 8)
        freqs = cfg.subcarrier_centers()
        w = AnalogWeights(np.zeros(4), np.linspace(0, 1e-9, 4))
        prof = gain_profile(0.1, awv_matrix(w, cfg), cfg)
        assert prof.shape == (8,)
        assert prof[3] == pytest.approx(gain(0.1, freqs[3], awv(w, freqs[3], cfg), cfg), rel=1e-12)

    def test_gain_profile_one_angle_per_frequency(self):
        cfg = ArrayConfig(4, 0.5, 60e9, 2e9, 8)
        cols = awv_matrix(AnalogWeights(np.zeros(4), np.linspace(0, 1e-9, 4)), cfg)
        thetas = np.repeat([0.3, -0.2], 4)
        prof = gain_profile(thetas, cols, cfg)
        np.testing.assert_array_equal(prof[:4], gain_profile(0.3, cols, cfg)[:4])
        np.testing.assert_array_equal(prof[4:], gain_profile(-0.2, cols, cfg)[4:])


@pytest.mark.parametrize("theta", [0.3, np.linspace(-1.2, 1.4, 48)])
def test_matched_gains_matches_gain_profile(theta):
    # the evaluation kernel (band_steering ramps along the subcarriers) against
    # gain_profile (response_matrix ramps along the antennas): equal to the
    # kernels' rounding bound. The same kernel over a C- or a Fortran-ordered
    # copy of the weights gives the same bits
    cfg = ArrayConfig(16, 0.5, 60e9, 2e9, 48)
    cols = awv_matrix(AnalogWeights(np.linspace(-3, 3, 16), np.linspace(0, 2e-9, 16)), cfg)
    b = band_steering(theta, cfg)
    gains = _matched_gains(b, cols)
    np.testing.assert_array_equal(gains, _matched_gains(b, np.asfortranarray(cols)))
    np.testing.assert_allclose(gains, gain_profile(theta, cols, cfg), rtol=0,
                               atol=steering_gain_atol(cfg))
    np.testing.assert_allclose(_matched_gains(b, np.conj(b) / 4.0), np.full(48, 16.0), rtol=1e-12)


@pytest.mark.parametrize("kernel", ["response_matrix", "awv_matrix", "band_steering"])
def test_matrices_are_contiguous_complex_n_by_k(kernel):
    cfg = ArrayConfig(7, 0.5, 60e9, 2e9, 48)
    weights = AnalogWeights(np.linspace(-3, 3, 7), np.linspace(0, 2e-9, 7))
    build = {"response_matrix": lambda: response_matrix(np.linspace(-1.2, 1.4, 48), cfg),
             "awv_matrix": lambda: awv_matrix(weights, cfg),
             "band_steering": lambda: band_steering([0.3, -0.2, 0.5], cfg)}[kernel]
    out = build()
    assert out.shape == (7, 48)
    assert out.dtype == np.complex128
    assert out.flags.c_contiguous


def test_wrap_phase_range():
    x = np.array([0.0, np.pi, -np.pi, 3 * np.pi, -7.5, 6.5])
    w = wrap_phase(x)
    assert np.all(w >= -np.pi) and np.all(w < np.pi)
    np.testing.assert_allclose(np.exp(1j * w), np.exp(1j * x), atol=1e-12)
