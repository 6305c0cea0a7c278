"""Scalar, one-frequency forms of the array model, written straight from the
formulas. Tests compare the library's matrix kernels against them."""

import numpy as np


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
