"""Angular kinematics of users, trajectory prediction, and anchor selection.

A user's angle of departure evolves with constant angular acceleration over
one scheduling frame.  The base station only holds noisy estimates of the
initial angle, angular velocity, and acceleration (a ``KinematicsEstimate`` is
a ``UserKinematics`` plus their error variances); the predicted mean follows the
same motion polynomial, the variance propagates forward, and anchor selection
turns the predicted spread into a per-user coverage interval that the beam
designs consume.
"""

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .arrays import _check_count


@dataclass(frozen=True)
class FrameTiming:
    """Scheduling frame of ``duration`` seconds split into ``num_steps`` slots."""

    duration: float
    num_steps: int

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("duration must be positive")
        _check_count("num_steps", self.num_steps)

    def elapsed(self, i):
        """Elapsed time i*duration/num_steps at step index i (scalar or array)."""
        i = np.asarray(i)
        if np.any(i < 0) or np.any(i > self.num_steps):
            raise ValueError("step index outside [0, num_steps]")
        return (i * self.duration) / self.num_steps


@dataclass(frozen=True)
class UserKinematics:
    """True motion state: initial AoD (rad), angular velocity (rad/s),
    constant angular acceleration (rad/s^2)."""

    theta0: float
    omega0: float
    alpha: float


@dataclass(frozen=True)
class KinematicsEstimate(UserKinematics):
    """Estimated motion state plus the error variances of each estimate.

    Variances are rad^2, rad^2/s^2 and rad^2/s^4 for the angle, velocity and
    acceleration estimates respectively.
    """

    var_theta: float
    var_omega: float
    var_alpha: float

    def __post_init__(self):
        if not all(v >= 0 for v in (self.var_theta, self.var_omega, self.var_alpha)):
            raise ValueError("variances must be non-negative")


def true_aod(kin: UserKinematics, i, timing: FrameTiming):
    """Angle of departure at step i: theta0 + t*omega0 + t^2*alpha/2."""
    t = timing.elapsed(i)
    return kin.theta0 + t * kin.omega0 + 0.5 * t**2 * kin.alpha


def predicted_mean(est: KinematicsEstimate, i, timing: FrameTiming):
    """Predicted AoD mean at step i: the motion polynomial of the estimated state."""
    return true_aod(est, i, timing)


def predicted_variance(est: KinematicsEstimate, i, timing: FrameTiming):
    """Predicted AoD variance at step i.

    Independent estimate errors propagate through the motion polynomial as
    var_theta + t^2 * var_omega + t^4 * var_alpha / 4; the result is
    non-negative and non-decreasing in i.
    """
    t = timing.elapsed(i)
    return est.var_theta + t**2 * est.var_omega + 0.25 * t**4 * est.var_alpha


def coverage_halfwidth(p: float) -> float:
    """Two-sided Gaussian quantile: the multiple of sigma containing
    probability p around the mean (p=0.97 -> about 2.1701)."""
    if not 0.0 < p < 1.0:
        raise ValueError("coverage probability must lie in (0, 1)")
    return float(NormalDist().inv_cdf((1.0 + p) / 2.0))


@dataclass(frozen=True)
class AnchorSpec:
    """Per-user beam anchors: coverage interval midpoints, the shared range
    width r applied to every user, and the user -> sub-band assignment
    (0-based permutation; user u transmits on sub-band assignment[u])."""

    centers: np.ndarray
    aod_range: float
    assignment: np.ndarray = None

    def __post_init__(self):
        centers = np.atleast_1d(np.asarray(self.centers, dtype=float))
        if not self.aod_range >= 0:
            raise ValueError("aod_range must be non-negative")
        if self.assignment is None:
            assignment = np.arange(centers.size)
        else:
            assignment = np.asarray(self.assignment, dtype=int)
            if sorted(assignment.tolist()) != list(range(centers.size)):
                raise ValueError("assignment must be a permutation of users")
        centers.setflags(write=False)
        assignment.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "assignment", assignment)

    @property
    def num_users(self) -> int:
        return self.centers.size


def anchor_selection(estimates, p: float, timing: FrameTiming) -> AnchorSpec:
    """Coverage-interval anchors for a set of user estimates.

    For each user, the predicted mean +/- l*sqrt(variance) band is traced over
    steps 0..num_steps (l the two-sided quantile for probability p) and the
    convex hull of the union taken; the hull midpoint becomes the user's
    center and the widest hull across users becomes the shared range r.
    """
    ell = coverage_halfwidth(p)
    steps = np.arange(timing.num_steps + 1)
    centers = np.empty(len(estimates))
    widths = np.empty(len(estimates))
    for u, est in enumerate(estimates):
        mean = predicted_mean(est, steps, timing)
        half = ell * np.sqrt(predicted_variance(est, steps, timing))
        lo = np.min(mean - half)
        hi = np.max(mean + half)
        centers[u] = 0.5 * (lo + hi)
        widths[u] = hi - lo
    return AnchorSpec(centers=centers, aod_range=float(np.max(widths)))


@dataclass(frozen=True)
class ScenarioConfig:
    """Random-scenario generator settings (all angles in radians).

    ``aod_range`` bounds the estimated initial AoDs, ``min_spacing`` the
    smallest allowed pairwise separation; velocity magnitudes are drawn
    uniformly from ``velocity_range`` with a random sign.  The ``var_*``
    fields give the Gaussian error variances of the three estimates.
    """

    num_users: int = 3
    aod_range: tuple = (-np.pi / 4, np.pi / 4)
    min_spacing: float = np.deg2rad(10.0)
    velocity_range: tuple = (0.0, np.deg2rad(80.0))
    accel_mean: float = 0.0
    var_theta: float = np.deg2rad(1.0) ** 2 * 2.0
    var_omega: float = np.deg2rad(1.0) ** 2 * 10.0
    var_alpha: float = np.deg2rad(1.0) ** 2 * 5.0

    def __post_init__(self):
        lo, hi = self.aod_range
        if not lo < hi:
            raise ValueError("aod_range must be a non-empty interval")
        _check_count("num_users", self.num_users)
        if not self.min_spacing >= 0:
            raise ValueError("min_spacing must be non-negative")
        if (self.num_users - 1) * self.min_spacing >= (hi - lo):
            raise ValueError("min_spacing infeasible for num_users in aod_range")
        vlo, vhi = self.velocity_range
        if not 0 <= vlo <= vhi:
            raise ValueError("velocity_range must satisfy 0 <= lo <= hi")
        if not np.isfinite(self.accel_mean):
            raise ValueError("accel_mean must be finite")
        for name in ("var_theta", "var_omega", "var_alpha"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")


def _draw_spaced_angles(rng: np.random.Generator, scen: ScenarioConfig) -> np.ndarray:
    """Rejection-sample num_users angles with pairwise spacing >= min_spacing."""
    lo, hi = scen.aod_range
    u = scen.num_users
    if u == 1:
        return rng.uniform(lo, hi, size=1)
    batch = 1024
    for _ in range(200):
        cand = rng.uniform(lo, hi, size=(batch, u))
        gaps = np.diff(np.sort(cand, axis=1), axis=1)
        ok = np.nonzero(np.min(gaps, axis=1) >= scen.min_spacing)[0]
        if ok.size:
            return cand[ok[0]]
        batch = min(batch * 2, 65536)
    raise RuntimeError("could not draw spaced AoDs; spacing too tight for the range")


def sample_scenario(rng: np.random.Generator, scen: ScenarioConfig):
    """Draw one multi-user scenario.

    Returns a list of (UserKinematics, KinematicsEstimate) pairs.  Draw order
    is fixed (angles, velocity magnitudes, signs, then the three error
    vectors) so a given generator state always produces the same scenario.
    """
    u = scen.num_users
    theta_hat = _draw_spaced_angles(rng, scen)
    vlo, vhi = scen.velocity_range
    omega_mag = rng.uniform(vlo, vhi, size=u)
    signs = rng.integers(0, 2, size=u) * 2 - 1
    omega_hat = omega_mag * signs
    alpha_hat = np.full(u, scen.accel_mean)
    theta0 = theta_hat + rng.normal(0.0, np.sqrt(scen.var_theta), size=u)
    omega0 = omega_hat + rng.normal(0.0, np.sqrt(scen.var_omega), size=u)
    alpha = alpha_hat + rng.normal(0.0, np.sqrt(scen.var_alpha), size=u)
    out = []
    for i in range(u):
        kin = UserKinematics(float(theta0[i]), float(omega0[i]), float(alpha[i]))
        est = KinematicsEstimate(
            float(theta_hat[i]),
            float(omega_hat[i]),
            float(alpha_hat[i]),
            scen.var_theta,
            scen.var_omega,
            scen.var_alpha,
        )
        out.append((kin, est))
    return out
