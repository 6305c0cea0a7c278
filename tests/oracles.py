"""Scalar, one-frequency forms of the array model, written straight from the
formulas, the JPTA delay sums in plain ramp form, the error bounds of the
solver's single-precision grid scan and of the stepped genie's scoring from
its own solve, and one user's capacity sum. Tests compare the library's matrix
kernels against them."""

import numpy as np

from slantbeam.arrays import TWO_PI, _phasor_ramp
from slantbeam.link import subcarrier_snr


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


def delay_sums(c_t, plan, tau):
    """S, S' and S'' of every element's delay sum at tau[n], as the columns of an
    (N, 3) array: S_n(tau) = sum_k c_t[n, k] exp(j 2 pi tau fb_k) over the
    baseband axis of the solver's ``plan`` (a ``jpta._Plan``), and its first two
    tau-derivatives: c_t times one (N, K) phasor ramp, times the plan's (K, 3)
    derivative weights. The refinement's grid-point sums must equal it to the
    bit, and a direct sum checks it to rounding."""
    rot = _phasor_ramp(TWO_PI * tau * plan.start, TWO_PI * tau * plan.step, c_t.shape[1])
    return np.multiply(rot, c_t, out=rot) @ plan.weights


def scan_error_bound(u0):
    """Per-element bound on | |S|_32 - |S|_64 | over the JPTA delay grid, (N,).

    |S|_32 is the solver's single-precision grid scan |e_grid @ c_t[n]| and
    |S|_64 the same product in complex128, over K terms with |e| = 1 and
    |c_t[n, k]| = |u0[n, k]| (the auxiliary phases only rotate). With
    u = 2^-24 and A = sum_k |u0[n, k]|, rounding e and c_t to complex64 moves
    each product by at most 2u|e||c|, the complex64 dot product errs by at
    most sqrt(2) gamma_(K+2) A in any summation order (Higham, complex inner
    products), and |.| in float32 by at most 2u A: about (sqrt(2)(K+2) + 4)u A
    in all. The complex128 product errs by 2^-29 times as much. 4(K+2)u A
    covers the sum for every K >= 1 with room for the last bits of |e| and A.
    """
    return 4.0 * (u0.shape[1] + 2) * 2.0**-24 * np.abs(u0).sum(axis=1)


def matched_filter(angles, assignment, cfg):
    """Digital-genie weights, shape (N, K): column k is the steering vector
    toward the true direction of the user whose sub-band holds subcarrier k,
    over sqrt(N). User u owns sub-band assignment[u] of U equal contiguous
    sub-bands."""
    angles = np.atleast_1d(angles)
    owner = {band: u for u, band in enumerate(assignment)}
    per = cfg.num_subcarriers // angles.size
    cols = [array_response(angles[owner[k // per]], f, cfg)
            for k, f in enumerate(cfg.subcarrier_centers())]
    return np.array(cols).T / np.sqrt(cfg.num_antennas)


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


def genie_gain_atol(cfg, tau_max):
    """Absolute bound on how far the stepped genie's gain N*|ip_k|^2, from the JPTA
    solve's inner products, may sit from the same weights scored as columns,
    |sum_n b_nk * v_nk|^2 with b = ``band_steering`` and v = ``awv_matrix``.
    Both sum N unit phasors over 1/sqrt(N) (the solver scales by 1/N and then
    N|.|^2, the same thing), but each builds every phasor its own way. The
    steering phase, at most phi_s = 2*pi*spacing*(N-1)*f_max/f_c, rounds as in
    ``steering_gain_atol``. The delay phase 2*pi*tau_n*f_k, up to
    phi_d = 2*pi*tau_max*f_max, comes from a phasor ramp's rounded start and step
    on one side and from awv_matrix's rounded phi_n - 2*pi*tau_n*f_k (with the
    phase shift, |phi_n| <= pi) on the other, each within a few ulps of
    phi_d + pi, so each entry is within 4*eps*(phi_d + pi + 1) of the exact
    phasor, and one more 4*eps covers the two or three complex products and the
    scaling per entry; the two sides' entries differ by twice those. As in
    ``steering_gain_atol``, the sum moves by sqrt(N) times the entry bound, plus
    N*eps*sqrt(N) of summation rounding per side, and |s|^2 <= N by 2*sqrt(N)
    times the sum's move. phi_d dominates: 6.1e3 rad against phi_s = 99 rad at the
    default N = 32, W = 2 GHz, f_c = 60 GHz."""
    eps = np.finfo(float).eps
    n = cfg.num_antennas
    phi_d = 2 * np.pi * tau_max * cfg.band_edges()[1]
    return steering_gain_atol(cfg) + 2 * n * eps * 2 * 4 * (phi_d + np.pi + 2)


def user_capacity(gains, cfg, budget, channel_gain=1.0):
    """Capacity in bit/s of one user over its own band's gains: the sum of
    log2(1 + SNR) over the given subcarriers, times the subcarrier spacing."""
    zeta = subcarrier_snr(gains, budget, channel_gain)
    return float(cfg.subcarrier_spacing * np.sum(np.log2(1.0 + zeta)))


def capacity_tolerance(cfg, budget, channel_gain, num_users, gain_atol=None):
    """``assert_allclose`` bounds for a user's capacity when its gains move by at
    most ``gain_atol`` (``steering_gain_atol`` when None): d/dg log2(1 + s*g) <= s/ln 2
    for the SNR s times the channel gain, over the user's K/U subcarriers of width
    W/K (atol), plus the rounding of two sums of K/U logarithms (rtol)."""
    per = cfg.num_subcarriers // num_users
    slope = budget.snr_linear * channel_gain / np.log(2)
    gain_atol = steering_gain_atol(cfg) if gain_atol is None else gain_atol
    atol = cfg.subcarrier_spacing * per * slope * gain_atol
    return {"rtol": 2 * (per + 2) * np.finfo(float).eps, "atol": atol}
