"""Scalar, one-frequency forms of the array model, written straight from the
formulas, and the JPTA delay sums in plain ramp form. Tests compare the
library's matrix kernels against them."""

import numpy as np

from slantbeam.arrays import TWO_PI, _phasor_ramp


def array_response(theta, f, cfg):
    """Steering vector at one angle and frequency: element n has phase
    2*pi * n * spacing * sin(theta) * f/f_c (beam squint included)."""
    n = np.arange(cfg.num_antennas)
    return np.exp(1j * 2 * np.pi * n * cfg.spacing * np.sin(theta) * (f / cfg.carrier_freq))


def awv(weights, f, cfg):
    """Unit-norm weight vector exp(j*(phase_n - 2*pi*delay_n*f)) / sqrt(N)."""
    phase = weights.phases - 2 * np.pi * weights.delays * f
    return np.exp(1j * phase) / np.sqrt(cfg.num_antennas)


def gain(theta, f, v, cfg):
    """Beamforming gain |a(theta, f)^H v|^2."""
    return float(np.abs(np.vdot(array_response(theta, f, cfg), v)) ** 2)


def jpta_objective(weights, profile):
    """JPTA objective sum_k |v_k^H u_k|: the realized weight vector ``awv``
    against the unit-norm steering vector toward the profile's direction at
    subcarrier k."""
    cfg = profile.cfg
    u_norm = np.sqrt(cfg.num_antennas)
    return float(sum(abs(np.vdot(awv(weights, f, cfg), array_response(theta, f, cfg))) / u_norm
                     for theta, f in zip(profile.directions, cfg.subcarrier_centers())))


def delay_sums(c_t, band, tau):
    """S, S' and S'' of every element's delay sum at tau[n], as the columns of an
    (N, 3) array: S_n(tau) = sum_k c_t[n, k] exp(j 2 pi tau fb_k) over the
    solver's baseband axis ``band`` (a ``jpta._Baseband``), and its first two
    tau-derivatives: c_t times one (N, K) phasor ramp, times the band's (K, 3)
    derivative weights. The refinement's grid-point sums must equal it to the
    bit, and a direct sum checks it to rounding."""
    rot = _phasor_ramp(TWO_PI * tau * band.start, TWO_PI * tau * band.step, c_t.shape[1])
    return np.multiply(rot, c_t, out=rot) @ band.weights


def matched_filter(angles, assignment, cfg):
    """Digital-genie weights, shape (K, N): at each subcarrier, the steering
    vector toward the true direction of the user whose sub-band holds it,
    over sqrt(N). User u owns sub-band assignment[u] of U equal contiguous
    sub-bands."""
    angles = np.atleast_1d(angles)
    owner = {band: u for u, band in enumerate(assignment)}
    per = cfg.num_subcarriers // angles.size
    rows = [array_response(angles[owner[k // per]], f, cfg)
            for k, f in enumerate(cfg.subcarrier_centers())]
    return np.array(rows) / np.sqrt(cfg.num_antennas)


def matched_gain_rtol(num_antennas):
    """Relative bound on how far the matched filter's computed gain may sit
    from its exact value N. Each of the N products conj(a_n) * v_n has
    magnitude 1/sqrt(N) and is exact to a few ulps; summing them loses at
    most (N - 1) ulps of the total (the recursive summation bound), so the
    sum is within about (N + 6) * eps of sqrt(N), and squaring it doubles
    that. Scalar rounding adds the rest of the 2 * (N + 8) * eps."""
    return 2 * (num_antennas + 8) * np.finfo(float).eps


def steering_gain_atol(cfg):
    """Absolute bound on how far a gain |sum_n conj(a_n) * v_n|^2, with unit-modulus
    a and |v_n| = 1/sqrt(N), may move between two steering kernels that round
    differently (``band_steering`` against ``response_matrix``). Each kernel's
    phase argument is at most phi = 2*pi*spacing*(N-1)*f_max/f_c and is rounded to
    a few ulps of it, so an entry sits within 4*eps*(phi + 1) of the exact
    phasor, and the two kernels' entries within twice that. The sum of N products
    of magnitude 1/sqrt(N) moves by sqrt(N) times that, plus N*eps*sqrt(N) of
    summation rounding per side, and |s|^2 <= N moves by 2*sqrt(N) times the sum."""
    eps = np.finfo(float).eps
    n = cfg.num_antennas
    phi = 2 * np.pi * cfg.spacing * (n - 1) * cfg.band_edges()[1] / cfg.carrier_freq
    return 2 * n * eps * (2 * 4 * (phi + 1) + 2 * n)


def capacity_tolerance(cfg, budget, channel_gain, num_users):
    """``assert_allclose`` bounds for a user's capacity when its gains move by at
    most ``steering_gain_atol``: d/dg log2(1 + s*g) <= s/ln 2 for the SNR s times
    the channel gain, over the user's K/U subcarriers of width W/K (atol), plus the
    rounding of two sums of K/U logarithms (rtol)."""
    per = cfg.num_subcarriers // num_users
    slope = budget.snr_linear * channel_gain / np.log(2)
    atol = cfg.subcarrier_spacing * per * slope * steering_gain_atol(cfg)
    return {"rtol": 2 * (per + 2) * np.finfo(float).eps, "atol": atol}
