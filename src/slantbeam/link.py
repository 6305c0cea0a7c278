"""Link budget and capacity evaluation for sub-band scheduled users.

The downlink splits the K subcarriers into U contiguous sub-bands of equal
size, and ``subband_users`` is the one place that maps users to them. A user
scheduled on sub-band b accumulates Shannon capacity over that band only,
each subcarrier weighted by its spacing W/K. The per-subcarrier SNR is the
transmit SNR scaled by the user's squared channel magnitude and by the
beamforming gain toward the user's true direction.

``capacity_records`` scores all of a trial's beams in one pass over the
evaluation points, reading every beam's gains against one ``band_steering``
per point; ``min_capacity`` is its one-beam case.
"""

from dataclasses import dataclass

import numpy as np

from .arrays import (
    ArrayConfig, _as_float, _as_float_array, _as_int_array, _check_count, _set_floats, band_steering)
from .arrays import gain_profile  # noqa: F401  perfbench wraps link.gain_profile


@dataclass(frozen=True)
class LinkBudget:
    """Transmit SNR in dB, common to all users."""

    snr_db: float = -10.0

    def __post_init__(self):
        _set_floats(self, "", "snr_db")
        try:
            10.0 ** (self.snr_db / 10.0)
        except OverflowError:
            raise ValueError(f"snr_db must keep 10**(snr_db/10) a finite float, got "
                             f"{self.snr_db!r}") from None

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)


def subband_users(assignment, num_subcarriers: int, num_users: int) -> np.ndarray:
    """User served on each of the K subcarriers, shape (K,).

    The K subcarriers split into U = ``num_users`` equal contiguous sub-bands
    and user u transmits on sub-band ``assignment[u]``; the assignment must
    be a permutation of 0..U-1, and None stands for the identity.
    """
    arr = np.arange(num_users) if assignment is None else _as_int_array("assignment", assignment)
    if sorted(arr.tolist()) != list(range(num_users)):
        raise ValueError(f"assignment {arr} is not a permutation of 0..{num_users - 1}")
    if num_users < 1 or num_subcarriers % num_users != 0:
        raise ValueError(f"num_subcarriers={num_subcarriers} not divisible by num_users={num_users}")
    return np.repeat(np.argsort(arr), num_subcarriers // num_users)


def subcarrier_snr(gains, budget: LinkBudget, channel_gain: float = 1.0) -> np.ndarray:
    """Post-beamforming SNR per subcarrier, with squared channel magnitude
    ``channel_gain``: one for all of ``gains``, or one per subcarrier."""
    gains = np.asarray(gains, dtype=float)
    if np.any(gains < 0):
        raise ValueError("gains must be non-negative")
    return budget.snr_linear * channel_gain * gains


def offset_grid(max_offset: float, count: int) -> np.ndarray:
    """Symmetric grid of pointing offsets; a single point sits at zero."""
    max_offset = _as_float("max_offset", max_offset, "non-negative")
    _check_count("count", count)
    if count == 1:
        return np.zeros(1)
    return np.linspace(-max_offset, max_offset, count)


def capacity_records(policies, true_aods, cfg: ArrayConfig, budget: LinkBudget,
                     assignment=None, channel_gains=None) -> dict:
    """Evaluate beam policies against true directions, kind -> read-only (P, U)
    capacity array in bit/s, in the order of ``policies``.

    ``policies`` maps kinds to policies and ``true_aods`` has shape (P, U): P
    evaluation points, U users; ``assignment`` (None for the identity) puts user u
    on sub-band ``assignment[u]``, and no policy sees it. At each point ``angles``
    holds the true direction of each sub-band's user, in band order, and each
    policy's (K,) ``gains(b, angles)`` is read against ``b = band_steering(angles)``,
    built once, in the order of ``policies``. User u's capacity sums
    log2(1 + snr * channel_gains[u] * gain) over its sub-band, times the subcarrier
    spacing; ``channel_gains`` are squared channel magnitudes (length U, or 1 to
    broadcast; all ones by default). A failure is re-raised with the beam kind and
    the point's index in front; a bad true direction names the first.
    """
    true_aods = np.atleast_2d(np.asarray(true_aods, dtype=float))
    if true_aods.ndim != 2:
        raise ValueError(f"true_aods must have shape (P, U), got {true_aods.shape}")
    num_points, num_users = true_aods.shape
    users = subband_users(assignment, cfg.num_subcarriers, num_users)
    h2 = _as_float_array("channel_gains", 1.0 if channel_gains is None else channel_gains, "positive")
    if h2.size not in (1, num_users):
        raise ValueError(f"channel_gains need one value or one per user ({num_users}), "
                         f"got {h2.size}")
    h2 = np.broadcast_to(h2, (num_users,))[users]  # one per subcarrier
    band_users = users[::cfg.num_subcarriers // num_users]
    caps = {kind: np.empty((num_points, num_users)) for kind in policies}
    for p in range(num_points):
        kind = next(iter(policies), "")
        try:
            angles = true_aods[p, band_users]
            b = band_steering(angles, cfg)
            for kind, policy in policies.items():
                zeta = subcarrier_snr(policy.gains(b, angles), budget, h2)
                bands = np.log2(1.0 + zeta).reshape(num_users, -1).sum(axis=1)
                caps[kind][p, band_users] = cfg.subcarrier_spacing * bands
        except ValueError as exc:
            raise ValueError(f"beam {kind}, eval index {p}: {exc}") from exc
    for table in caps.values():
        table.setflags(write=False)
    return caps


def min_capacity(policy, true_aods, cfg: ArrayConfig, budget: LinkBudget, assignment=None,
                 channel_gains=None) -> np.ndarray:
    """``capacity_records`` for one policy, its read-only (P, U) array, under
    ``assignment``, or the identity when that is None."""
    return capacity_records({policy.kind: policy}, true_aods, cfg, budget, assignment,
                            channel_gains)[policy.kind]
