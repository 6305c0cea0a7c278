"""End-to-end acceptance checks at desk scale.

Each test prints a single pass/fail line (run pytest with -s to see them all).
Desk scale throughout: 20 trials, 240 subcarriers, 25 steps or offsets,
32 antennas, 3 users. Total runtime is kept well under five minutes.
"""

import dataclasses

import numpy as np
import pytest

from slantbeam.arrays import ArrayConfig, linear_to_db
from slantbeam.cli import main
from slantbeam.jpta import SolverOptions, TargetProfile, jpta_solve
from slantbeam.link import LinkBudget, subcarrier_snr, user_capacity
from slantbeam.mobility import (
    FrameTiming,
    KinematicsEstimate,
    ScenarioConfig,
    coverage_halfwidth,
    predicted_mean,
    predicted_variance,
)
from slantbeam.montecarlo import (
    SweepConfig,
    TrialConfig,
    run_sweep,
    run_trial,
)

DEG = np.pi / 180.0

TRIALS = 20
DESK_ARRAY = ArrayConfig(32, 0.5, 60e9, 2e9, 240)
DESK_TIMING = FrameTiming(0.16, 25)
BUDGET = LinkBudget()


def report(num, name, ok, detail=""):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def offset_run():
    """Shared Fig-4-style run: r=20 deg, joint offsets +/-20 deg, all beams."""
    config = TrialConfig(
        array=DESK_ARRAY,
        scenario=ScenarioConfig(),
        timing=DESK_TIMING,
        budget=BUDGET,
        mode="offset", max_offset=20 * DEG, offset_count=25,
        range_override=20 * DEG,
    )
    return [run_trial(config, 0, t) for t in range(TRIALS)]


def test_criterion_1_calibration():
    zeta = subcarrier_snr(np.array([1.0]), BUDGET)[0]
    snr_exact = zeta == 0.1 and linear_to_db(zeta) == pytest.approx(-10.0, abs=1e-12)
    full = ArrayConfig(32, 0.5, 60e9, 2e9, 1200)
    per_user = user_capacity(np.full(400, 32.0), full, BUDGET)
    closed_form = full.subcarrier_spacing * 400 * np.log2(1 + 0.1 * 32)
    cap_ok = per_user == pytest.approx(closed_form, rel=1e-12) and \
        per_user == pytest.approx(1.38e9, rel=1e-3)
    report(1, "snr and capacity calibration", snr_exact and cap_ok,
           f"(zeta={zeta}, per-user={per_user:.6g} b/s)")


def test_criterion_2_jpta_stepped_optimality():
    cfg = ArrayConfig(32, 0.5, 60e9, 2e9, 64)
    profile = TargetProfile(np.full(64, 20 * DEG), cfg)
    rep = jpta_solve(profile, SolverOptions())
    trace = rep.objective_trace
    monotone = bool(np.all(np.diff(trace) >= -1e-9))
    near_optimal = rep.objective >= 0.95 * 64
    report(2, "jpta stepped-target optimality", near_optimal and monotone,
           f"(objective={rep.objective:.4f} of 64, monotone={monotone})")


def test_criterion_3_coverage_probability():
    est = KinematicsEstimate(
        theta0=10 * DEG, omega0=40 * DEG, alpha=0.0,
        var_theta=2 * DEG**2, var_omega=10 * DEG**2, var_alpha=5 * DEG**2,
    )
    rng = np.random.default_rng(123)
    n = 10_000
    theta0 = rng.normal(est.theta0, np.sqrt(est.var_theta), n)
    omega0 = rng.normal(est.omega0, np.sqrt(est.var_omega), n)
    alpha = rng.normal(est.alpha, np.sqrt(est.var_alpha), n)
    steps = np.arange(DESK_TIMING.num_steps + 1)
    t = DESK_TIMING.elapsed(steps)
    truth = theta0[:, None] + t * omega0[:, None] + 0.5 * t**2 * alpha[:, None]
    mean = predicted_mean(est, steps, DESK_TIMING)
    half = coverage_halfwidth(0.97) * np.sqrt(predicted_variance(est, steps, DESK_TIMING))
    contained = np.abs(truth - mean) <= half
    rates = contained.mean(axis=0)
    ok = bool(np.all((rates >= 0.95) & (rates <= 0.99)))
    report(3, "97% coverage at every step", ok,
           f"(per-step rate range [{rates.min():.4f}, {rates.max():.4f}])")


def test_criterion_4_variance_formula():
    est = KinematicsEstimate(0.0, 0.0, 0.0, 2 * DEG**2, 10 * DEG**2, 5 * DEG**2)
    timing = FrameTiming(0.16, 100)
    var_deg2 = predicted_variance(est, 100, timing) / DEG**2
    expected = 2.0 + 0.16**2 * 10.0 + 0.25 * 0.16**4 * 5.0
    ok = abs(var_deg2 - expected) <= 1e-9 and abs(expected - 2.2568192) <= 1e-12
    report(4, "variance propagation at 0.16 s", ok, f"(value={float(var_deg2)!r} deg^2)")


def test_criterion_5_dominance_and_degeneracy(offset_run):
    dominance = all(
        res.min_capacity("digital_genie") >= res.min_capacity(kind) - 1e-9
        for res in offset_run
        for kind in res.records
    )
    frozen = TrialConfig(
        array=DESK_ARRAY,
        scenario=ScenarioConfig(
            velocity_range=(0.0, 0.0), var_theta=0.0, var_omega=0.0, var_alpha=0.0,
        ),
        timing=DESK_TIMING,
        budget=BUDGET,
        mode="offset", max_offset=0.0, offset_count=1,
        beams=("slanted", "stepped", "stepped_genie"),
    )
    worst_rel = 0.0
    for t in range(TRIALS):
        res = run_trial(frozen, 0, t)
        m = np.array([res.min_capacity(k) for k in frozen.beams])
        worst_rel = max(worst_rel, float(np.ptp(m) / m.max()))
    ok = dominance and worst_rel <= 1e-6
    report(5, "genie dominance and zero-config degeneracy", ok,
           f"(dominance={dominance}, max rel spread={worst_rel:.2e})")


def test_criterion_6_offset_ordering(offset_run):
    wins = {"stepped": 0, "qpd": 0, "rainbow": 0}
    for res in offset_run:
        m_sl = res.min_capacity("slanted")
        for rival in wins:
            if m_sl > res.min_capacity(rival):
                wins[rival] += 1
    ok = (wins["stepped"] >= 0.95 * TRIALS and wins["qpd"] >= 0.95 * TRIALS
          and wins["rainbow"] >= 0.90 * TRIALS)
    report(6, "slanted beats fixed baselines under offsets", ok,
           f"(wins/{TRIALS}: stepped={wins['stepped']}, qpd={wins['qpd']}, "
           f"rainbow={wins['rainbow']})")


def test_criterion_7_array_size_trend():
    base = TrialConfig(
        array=DESK_ARRAY,
        scenario=ScenarioConfig(),
        timing=DESK_TIMING,
        budget=BUDGET,
        mode="offset", max_offset=10 * DEG, offset_count=25,
        range_override=20 * DEG,
    )
    sweep = SweepConfig(
        axis="num_antennas", values=(16.0, 32.0, 64.0), trials=TRIALS,
        master_seed=0, beams=("slanted", "rainbow"),
    )
    result = run_sweep(sweep, base)
    rain = result.min_over_trials("rainbow")
    slant = result.min_over_trials("slanted")
    rainbow_degrades = rain[2] < rain[0]
    slanted_stable = slant.max() / slant.min() < 5.0
    report(7, "array-size trend", rainbow_degrades and slanted_stable,
           f"(rainbow M {rain[0]:.3g}->{rain[2]:.3g} b/s, "
           f"slanted spread x{slant.max() / slant.min():.2f})")


def test_criterion_8_mobility_robustness():
    fast = TrialConfig(
        array=DESK_ARRAY,
        scenario=ScenarioConfig(velocity_range=(80 * DEG, 80 * DEG)),
        timing=DESK_TIMING,
        budget=BUDGET,
        mode="trajectory",
        beams=("slanted", "stepped"),
    )
    wins = 0
    for t in range(TRIALS):
        res = run_trial(fast, 0, t)
        if res.min_capacity("slanted") > res.min_capacity("stepped"):
            wins += 1

    defaults = dataclasses.replace(fast, scenario=ScenarioConfig(), beams=("slanted",))
    below = 0
    for t in range(TRIALS):
        res = run_trial(defaults, 0, t)
        if res.min_capacity("slanted") < 100e6:
            below += 1
    ok = wins >= 0.70 * TRIALS and below <= 0.05 * TRIALS
    report(8, "mobility robustness at 80 deg/s", ok,
           f"(slanted>stepped in {wins}/{TRIALS}, below 100 Mb/s in {below}/{TRIALS})")


def test_criterion_9_csv_determinism(tmp_path):
    args = [
        "sweep", "--seed", "11", "--axis", "offset_range", "--values", "0,10",
        "--beams", "stepped,digital_genie",
        "--set", "array.num_subcarriers=48", "--set", "array.num_antennas=8",
        "--set", "sweep.offset_count=3", "--set", "sweep.trials=2",
    ]
    outs = []
    for sub, extra in (("a", []), ("b", []), ("c", ["--workers", "2"])):
        out = tmp_path / sub
        assert main([*args, "--out", str(out), *extra]) == 0
        outs.append((out / "sweep_offset_range.csv").read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    report(9, "byte-identical csv across runs and workers", ok,
           f"({len(outs[0])} bytes)")
