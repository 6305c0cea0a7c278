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

from .arrays import ArrayConfig, band_steering, db_to_linear
from .arrays import gain_profile  # noqa: F401  perfbench wraps link.gain_profile


@dataclass(frozen=True)
class LinkBudget:
    """Transmit SNR in dB, common to all users."""

    snr_db: float = -10.0

    def __post_init__(self):
        if not np.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite")

    @property
    def snr_linear(self) -> float:
        return db_to_linear(self.snr_db)


def subband_users(assignment, num_subcarriers: int, num_users: int) -> np.ndarray:
    """User served on each of the K subcarriers, shape (K,).

    The K subcarriers split into U = ``num_users`` equal contiguous sub-bands
    and user u transmits on sub-band ``assignment[u]``; the assignment must
    be a permutation of 0..U-1, and None stands for the identity.
    """
    arr = np.arange(num_users) if assignment is None else np.asarray(assignment, dtype=int)
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


def user_capacity(gains, cfg: ArrayConfig, budget: LinkBudget, channel_gain: float = 1.0) -> float:
    """Capacity in bit/s accumulated over the given own-band gains."""
    zeta = subcarrier_snr(gains, budget, channel_gain)
    return float(cfg.subcarrier_spacing * np.sum(np.log2(1.0 + zeta)))


def offset_grid(max_offset: float, count: int) -> np.ndarray:
    """Symmetric grid of pointing offsets; a single point sits at zero."""
    if not max_offset >= 0:
        raise ValueError("max_offset must be non-negative")
    if count < 1:
        raise ValueError("count must be at least 1")
    if count == 1:
        return np.zeros(1)
    return np.linspace(-max_offset, max_offset, count)


@dataclass(frozen=True)
class CapacityRecord:
    """Per-user capacities over evaluation points, shape (P, U)."""

    capacities: np.ndarray

    def __post_init__(self):
        caps = np.array(self.capacities, dtype=float)
        if caps.ndim != 2:
            raise ValueError("capacities must be 2-D (eval points, users)")
        caps.setflags(write=False)
        object.__setattr__(self, "capacities", caps)

    @property
    def min_capacity(self) -> float:
        return float(self.capacities.min())

    @property
    def num_eval_points(self) -> int:
        return self.capacities.shape[0]


def capacity_records(policies, true_aods, cfg: ArrayConfig, budget: LinkBudget,
                     assignment=None, channel_gains=None) -> dict:
    """Evaluate beam policies against true directions, kind -> CapacityRecord.

    ``policies`` maps kinds to policies and ``true_aods`` has shape (P, U): P
    evaluation points, U users. At each point the (N, K) conjugate steering
    ``b = band_steering`` toward each sub-band's user is built once and each
    policy's (K,) gains ``gains(b, angles)`` read, in the order of ``policies``.
    User u's capacity sums log2(1 + snr * channel_gains[u] * gain) over the sub-band
    ``assignment`` (None for the identity) maps it to, times the subcarrier
    spacing; ``channel_gains`` are squared channel magnitudes (length U, or 1
    to broadcast; all ones by default). A failure is re-raised with the beam
    kind and the point's index in front; a bad true direction names the first.
    """
    true_aods = np.atleast_2d(np.asarray(true_aods, dtype=float))
    num_points, num_users = true_aods.shape
    users = subband_users(assignment, cfg.num_subcarriers, num_users)
    h2 = np.asarray(1.0 if channel_gains is None else channel_gains, dtype=float)
    if h2.shape not in ((), (1,), (num_users,)) or not np.all(h2 > 0):
        raise ValueError("channel_gains must be positive, one per user")
    h2 = np.broadcast_to(h2, (num_users,))[users]  # one per subcarrier
    band_users = users[::cfg.num_subcarriers // num_users]
    caps = {kind: np.empty((num_points, num_users)) for kind in policies}
    for p in range(num_points):
        kind = next(iter(policies), "")
        try:
            b = band_steering(true_aods[p, band_users], cfg)
            for kind, policy in policies.items():
                zeta = subcarrier_snr(policy.gains(b, true_aods[p]), budget, h2)
                bands = np.log2(1.0 + zeta).reshape(num_users, -1).sum(axis=1)
                caps[kind][p, band_users] = cfg.subcarrier_spacing * bands
        except ValueError as exc:
            raise ValueError(f"beam {kind}, eval index {p}: {exc}") from exc
    return {kind: CapacityRecord(table) for kind, table in caps.items()}


def min_capacity(policy, true_aods, cfg: ArrayConfig, budget: LinkBudget, assignment=None,
                 channel_gains=None) -> CapacityRecord:
    """``capacity_records`` for one policy, under the explicit assignment,
    else the policy's, else the identity."""
    if assignment is None:
        assignment = getattr(policy, "assignment", None)
    kind = getattr(policy, "kind", "")
    return capacity_records({kind: policy}, true_aods, cfg, budget, assignment,
                            channel_gains)[kind]
