import concurrent.futures
import dataclasses
import itertools
import re

import numpy as np
import pytest

from slantbeam import montecarlo
from slantbeam.arrays import ArrayConfig, awv_matrix, gain_profile
from slantbeam.cli import write_cdf_csv
from slantbeam.designs import (
    ANALOG_KINDS,
    BEAM_KINDS,
    BeamDesign,
    FixedBeamPolicy,
    SteppedGeniePolicy,
    genie_stepped,
)
from slantbeam.link import capacity_records, subband_users
from slantbeam.mobility import FrameTiming, ScenarioConfig, coverage_halfwidth
from slantbeam.montecarlo import (
    POLICY_BUILDERS,
    EVAL_MODES,
    SweepConfig,
    TrialConfig,
    TrialResult,
    apply_axis,
    design_trial,
    run_sweep,
    run_trial,
    sweep_cells,
)

from oracles import capacity_tolerance, matched_filter, matched_gain_rtol, user_capacity

DEG = np.pi / 180.0

SMALL = TrialConfig(
    array=ArrayConfig(16, 0.5, 60e9, 2e9, 48),
    scenario=ScenarioConfig(num_users=3),
    timing=FrameTiming(0.16, 5),
    mode="offset", max_offset=10 * DEG, offset_count=5,
)


def records_equal(a, b):
    assert a.records.keys() == b.records.keys()
    for kind in a.records:
        np.testing.assert_array_equal(a.records[kind], b.records[kind])


class TestRunTrial:
    def test_bit_identical_repeat(self):
        # run_trial is the design stage followed by capacity_records, with every
        # analog design scored through FixedBeamPolicy
        res = run_trial(SMALL, 42, 3)
        records_equal(res, run_trial(SMALL, 42, 3))
        a = design_trial(SMALL, 42, 3)
        b = design_trial(SMALL, 42, 3)
        policies = {kind: FixedBeamPolicy(beam, SMALL.array) if kind in ANALOG_KINDS else beam
                    for kind, beam in a.beams.items()}
        records = capacity_records(policies, a.true_aods, SMALL.array, SMALL.budget,
                                   assignment=a.assignment)
        records_equal(res, TrialResult(3, records))
        np.testing.assert_array_equal(a.true_aods, b.true_aods)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        for kind in ANALOG_KINDS:
            np.testing.assert_array_equal(a.beams[kind].weights.phases,
                                          b.beams[kind].weights.phases)
            np.testing.assert_array_equal(a.beams[kind].weights.delays,
                                          b.beams[kind].weights.delays)

    def test_different_trials_differ(self):
        a = design_trial(SMALL, 42, 0)
        b = design_trial(SMALL, 42, 1)
        assert not np.array_equal(a.true_aods, b.true_aods)

    def test_beam_subset_does_not_change_shared_records(self):
        # beams never consume trial randomness, so dropping some of them
        # leaves the remaining records untouched
        full = run_trial(SMALL, 7, 2)
        sub = run_trial(dataclasses.replace(SMALL, beams=("stepped", "rainbow")), 7, 2)
        np.testing.assert_array_equal(full.records["stepped"], sub.records["stepped"])
        np.testing.assert_array_equal(full.records["rainbow"], sub.records["rainbow"])

    def test_digital_genie_dominates_every_beam(self):
        for trial in range(3):
            res = run_trial(SMALL, 11, trial)
            best = res.min_capacity("digital_genie")
            for kind in SMALL.beams:
                assert best >= res.min_capacity(kind) - 1e-9

    def test_zero_everything_degeneracy(self):
        # no estimate error, no motion, single zero-offset evaluation point:
        # slanted, stepped and the stepped genie all solve the same targets
        frozen_world = TrialConfig(
            array=ArrayConfig(16, 0.5, 60e9, 2e9, 48),
            scenario=ScenarioConfig(
                num_users=3,
                velocity_range=(0.0, 0.0),
                var_theta=0.0,
                var_omega=0.0,
                var_alpha=0.0,
            ),
            timing=FrameTiming(0.16, 5),
            mode="offset", max_offset=0.0, offset_count=1,
            beams=("slanted", "stepped", "stepped_genie"),
        )
        for trial in range(3):
            res = run_trial(frozen_world, 5, trial)
            m = [res.min_capacity(k) for k in frozen_world.beams]
            assert m[0] == pytest.approx(m[1], rel=1e-6)
            assert m[0] == pytest.approx(m[2], rel=1e-6)

    def test_offset_grid_superset_never_raises_minimum(self):
        # a 13-point grid is contained in the 25-point grid over the same
        # span, so every beam's minimum can only drop on the finer grid
        coarse_cfg = dataclasses.replace(SMALL, mode="offset", max_offset=10 * DEG, offset_count=13)
        fine_cfg = dataclasses.replace(SMALL, mode="offset", max_offset=10 * DEG, offset_count=25)
        coarse = run_trial(coarse_cfg, 3, 0)
        fine = run_trial(fine_cfg, 3, 0)
        for kind in SMALL.beams:
            assert fine.min_capacity(kind) <= coarse.min_capacity(kind) + 1e-9

    def test_trajectory_mode_shapes(self):
        cfg = dataclasses.replace(SMALL, mode="trajectory")
        assert design_trial(cfg, 1, 0).true_aods.shape == (5, 3)
        res = run_trial(cfg, 1, 0)
        for kind in cfg.beams:
            assert res.records[kind].shape == (5, 3)
            assert not res.records[kind].flags.writeable

    @pytest.mark.parametrize("mode", EVAL_MODES)
    def test_records_match_per_beam_oracle(self, mode):
        # oracle: the per-beam loop capacities were once accumulated with, one
        # gain_profile call per beam and point, then user_capacity per user.
        # gain_profile steers along the antennas and the evaluation along the
        # subcarriers, so analog beams agree to the kernels' rounding bound.
        # The digital genie's gains are the closed form N; its matched-filter
        # columns reach N only to rounding, checked at the summation bound
        cfg = dataclasses.replace(SMALL, mode=mode, channel_gains=(1.0, 0.5, 2.0))
        res = run_trial(cfg, 3, 1)
        trial = design_trial(cfg, 3, 1)
        assert not np.array_equal(trial.assignment, np.arange(3))
        users = subband_users(trial.assignment, cfg.array.num_subcarriers, 3)
        assert tuple(res.records) == tuple(trial.beams) == cfg.beams == BEAM_KINDS
        tol = capacity_tolerance(cfg.array, cfg.budget, max(cfg.channel_gains), 3)
        for kind in trial.beams:
            expected = np.empty(trial.true_aods.shape)
            for p, row in enumerate(trial.true_aods):
                if kind == "digital_genie":
                    cols = matched_filter(row, trial.assignment, cfg.array)
                    gains = gain_profile(row[users], cols, cfg.array)
                    n = cfg.array.num_antennas
                    np.testing.assert_allclose(gains, n, rtol=matched_gain_rtol(n), atol=0)
                    gains = np.full(users.size, float(n))
                else:
                    design = (trial.beams[kind] if kind in ANALOG_KINDS else
                              genie_stepped(row[np.argsort(trial.assignment)], cfg.array,
                                            cfg.solver))
                    cols = awv_matrix(design.weights, cfg.array)
                    gains = gain_profile(row[users], cols, cfg.array)
                for u in range(3):
                    expected[p, u] = user_capacity(gains[users == u], cfg.array, cfg.budget,
                                                   cfg.channel_gains[u])
            if kind == "digital_genie":
                assert np.array_equal(res.records[kind], expected)
            else:
                np.testing.assert_allclose(res.records[kind], expected, **tol, err_msg=kind)

    def test_scenario_failure_names_the_trial(self, monkeypatch):
        draw = montecarlo.sample_scenario
        seventh = montecarlo._trial_rng(0, 7).bit_generator.state

        def boom(rng, scen):
            # only trial 7's stream fails, so a sweep runs trials 0-6 first
            if rng.bit_generator.state == seventh:
                raise RuntimeError("could not draw spaced AoDs")
            return draw(rng, scen)

        monkeypatch.setattr(montecarlo, "sample_scenario", boom)
        with pytest.raises(RuntimeError, match="^trial 7: could not draw"):
            design_trial(SMALL, 0, 7)
        with pytest.raises(RuntimeError, match="^trial 7: could not draw"):
            run_trial(SMALL, 0, 7)
        sweep = SweepConfig(axis="offset_range", values=(0.0,), trials=8, beams=("rainbow",))
        with pytest.raises(RuntimeError, match="^offset_range=0 deg: trial 7: could not draw"):
            run_sweep(sweep, SMALL)

    @pytest.mark.parametrize("name, error", [("sample_scenario", ValueError),
                                             ("capacity_records", RuntimeError),
                                             ("design_stepped", ValueError)])
    def test_either_stage_error_class_names_the_trial(self, monkeypatch, name, error):
        # a ValueError or RuntimeError keeps its builtin class and gains the
        # label; a beam builder's failure names the beam too
        def boom(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(montecarlo, name, boom)
        label = "trial 2: beam stepped" if name == "design_stepped" else "trial 2"
        with pytest.raises(error, match=f"^{label}: boom$") as info:
            run_trial(dataclasses.replace(SMALL, beams=("rainbow", "stepped")), 0, 2)
        assert type(info.value) is error

    @pytest.mark.parametrize("master_seed, trial_id, message", [
        (1.5, 0, "master_seed must be an integer, got 1.5"),
        (-1, 0, "master_seed must be >= 0"),
        (1, 1.5, "trial_id must be an integer, got 1.5"),
        (1, -1, "trial_id must be >= 0"),
    ])
    def test_seed_and_trial_id_are_checked(self, master_seed, trial_id, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            design_trial(SMALL, master_seed, trial_id)

    def test_numpy_integer_seed_draws_the_same_stream(self):
        first = montecarlo._trial_rng(np.int64(1), np.uint8(0)).random()
        assert first == montecarlo._trial_rng(1, 0).random() == 0.5118216247002567

    def test_validation(self):
        with pytest.raises(ValueError):
            dataclasses.replace(SMALL, beams=("warp",))
        with pytest.raises(ValueError, match=r"duplicate beam kinds \['rainbow'\]"):
            dataclasses.replace(SMALL, beams=("rainbow", "stepped", "rainbow"))
        sweep = SweepConfig(axis="offset_range", values=(0.0,), trials=1,
                            beams=("rainbow", "rainbow"))
        with pytest.raises(ValueError, match="duplicate beam kinds"):
            run_sweep(sweep, SMALL)
        with pytest.raises(ValueError):
            dataclasses.replace(SMALL, scenario=ScenarioConfig(num_users=5))
        with pytest.raises(ValueError, match="^mode must be one of"):
            dataclasses.replace(SMALL, mode="drive")
        with pytest.raises(ValueError, match="^offset_count must be >= 1"):
            dataclasses.replace(SMALL, offset_count=0)

    @pytest.mark.parametrize("build", [
        lambda beams: TrialConfig(SMALL.array, beams=beams),
        lambda beams: SweepConfig("offset_range", (0.0,), beams=beams),
    ], ids=["TrialConfig", "SweepConfig"])
    def test_beams_are_held_as_a_tuple(self, build):
        # a list is stored as a tuple, so the config hashes; a bare string is not
        # split into one-letter kinds
        cfg = build(["stepped", "rainbow"])
        assert cfg.beams == ("stepped", "rainbow")
        assert hash(cfg) == hash(build(("stepped", "rainbow")))
        with pytest.raises(ValueError, match="^beams must be a sequence of beam kinds, "
                                             "got the string 'stepped'$"):
            build("stepped")


class TestTrialResult:
    def test_min_over_users_and_points(self):
        res = TrialResult(0, {"rainbow": np.array([[3.0, 2.0], [5.0, 4.0]])})
        assert res.min_capacity("rainbow") == 2.0
        # a built-in float, whose repr the summary CSV writes
        assert type(res.min_capacity("rainbow")) is float


class TestPolicyBuilders:
    def test_every_beam_kind_has_a_builder(self):
        assert set(POLICY_BUILDERS) == set(BEAM_KINDS)

    def test_builders_resolve_names_when_called(self, monkeypatch):
        # a name patched in montecarlo after import is the one a builder uses
        calls = []
        original = montecarlo.design_stepped

        def spy(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "design_stepped", spy)
        trial = design_trial(dataclasses.replace(SMALL, beams=("stepped",)), 3, 0)
        assert len(calls) == 1
        theta_hat = np.array([est.theta0 for _, est in trial.scenario])
        assert not np.array_equal(trial.assignment, np.arange(3))
        np.testing.assert_array_equal(calls[0], theta_hat[np.argsort(trial.assignment)])

    def test_analog_designs_carry_trial_assignment_and_report(self):
        # an analog kind holds its BeamDesign, a genie kind its policy; the
        # offset-mode anchors are the estimates in the trial's sub-band order
        trial = design_trial(SMALL, 5, 1)
        analog = {kind for kind, beam in trial.beams.items() if isinstance(beam, BeamDesign)}
        assert analog == set(ANALOG_KINDS) == {"slanted", "stepped", "rainbow", "qpd"}
        assert isinstance(trial.beams["stepped_genie"], SteppedGeniePolicy)
        theta_hat = np.array([est.theta0 for _, est in trial.scenario])
        for kind in ("slanted", "stepped"):
            design = trial.beams[kind]
            np.testing.assert_array_equal(design.anchor.centers,
                                          theta_hat[np.argsort(trial.assignment)])
            assert design.report.weights is design.weights


class TestDesignFollowsAssignment:
    def test_designs_score_best_under_the_trial_assignment(self):
        # the slanted and stepped designs point each sub-band at the user that
        # capacity_records scores on it, so every other user -> sub-band
        # permutation leaves the worst user strictly worse off
        cfg = dataclasses.replace(SMALL, offset_count=1, beams=("slanted", "stepped"))
        cycles = 0
        for trial_id in range(6):
            trial = design_trial(cfg, 0, trial_id)
            cycles += bool(np.all(trial.assignment != np.arange(3)))
            policies = {kind: FixedBeamPolicy(design, cfg.array)
                        for kind, design in trial.beams.items()}

            def worst(assignment):
                records = capacity_records(policies, trial.true_aods, cfg.array, cfg.budget,
                                           assignment=assignment)
                return {kind: table.min() for kind, table in records.items()}

            own = worst(trial.assignment)
            for perm in itertools.permutations(range(3)):
                if list(perm) != trial.assignment.tolist():
                    other = worst(perm)
                    for kind in own:
                        assert own[kind] > other[kind], (trial_id, perm, kind)
        assert cycles >= 2  # a 3-cycle tells band order from user order


class TestAngleReach:
    """Evaluation directions must stay in the half-plane, checked up front from
    the deterministic part of the motion."""

    def reach(self, aod_max_deg, aod_min_deg=-45.0, **changes):
        scen = dataclasses.replace(SMALL.scenario, aod_range=(aod_min_deg * DEG, aod_max_deg * DEG),
                                   **changes.pop("scenario", {}))
        montecarlo._check_angle_reach(dataclasses.replace(SMALL, scenario=scen, **changes))

    def test_offset_grid_may_reach_exactly_90(self):
        # 80 + 10 deg adds up to pi/2 exactly
        self.reach(80.0)
        with pytest.raises(ValueError, match=r"^aod_range: .* largest offset reaches 90\.1 deg"):
            self.reach(80.1)

    @pytest.mark.parametrize("aod_min_deg, aod_max_deg, bound", [
        (-45.0, 85.0, "aod_max"),
        (-85.0, 45.0, "aod_min"),
        (-85.0, -60.0, "aod_min"),
        (-85.0, 85.0, "aod_max"),
    ])
    def test_message_names_the_bound_that_reaches(self, aod_min_deg, aod_max_deg, bound):
        with pytest.raises(ValueError, match=rf"^aod_range: \|{bound}\| plus the largest offset "
                                             r"reaches 95 deg, beyond 90 deg$"):
            self.reach(aod_max_deg, aod_min_deg)

    def test_run_trial_checks_the_reach_of_a_config_that_builds(self):
        # building a config checks no reach; running a trial does, before any work
        scen = dataclasses.replace(SMALL.scenario, aod_range=(-45 * DEG, 85 * DEG))
        cfg = dataclasses.replace(SMALL, scenario=scen)
        with pytest.raises(ValueError, match=r"^aod_range: \|aod_max\| plus the largest offset"):
            run_trial(cfg, 0, 0)

    def test_single_offset_sits_at_the_estimate(self):
        self.reach(90.0, mode="offset", max_offset=10 * DEG, offset_count=1)

    def test_trajectory_adds_speed_and_mean_acceleration_over_the_frame(self):
        # 0.16 s at 50 deg/s is 8 deg, and 125 deg/s^2 adds 1.6 deg
        self.reach(80.0, mode="trajectory", scenario={"velocity_range": (0.0, 50 * DEG)})
        self.reach(80.0, mode="trajectory", scenario={"velocity_range": (0.0, 50 * DEG),
                                                      "accel_mean": -125 * DEG})
        with pytest.raises(ValueError, match=r"^aod_range: .* frame's travel"):
            self.reach(80.0, mode="trajectory", scenario={"velocity_range": (0.0, 50 * DEG),
                                                          "accel_mean": -200 * DEG})

    def test_trajectory_ignores_the_offset_grid(self):
        self.reach(85.0, mode="trajectory", max_offset=20 * DEG,
                   scenario={"velocity_range": (0.0, 0.0)})


class TestApplyAxis:
    def test_offset_range(self):
        cfg = apply_axis(SMALL, "offset_range", 5 * DEG)
        assert cfg.max_offset == 5 * DEG
        assert cfg.mode == "offset"

    def test_num_antennas(self):
        cfg = apply_axis(SMALL, "num_antennas", 64)
        assert cfg.array.num_antennas == 64
        assert cfg.array.num_subcarriers == 48

    def test_num_users(self):
        cfg = apply_axis(SMALL, "num_users", 4)
        assert cfg.scenario.num_users == 4

    def test_mean_velocity_pins_speed_and_mode(self):
        cfg = apply_axis(SMALL, "mean_velocity", 40 * DEG)
        assert cfg.scenario.velocity_range == (40 * DEG, 40 * DEG)
        assert cfg.mode == "trajectory"
        trial = design_trial(dataclasses.replace(cfg, beams=("rainbow",)), 0, 0)
        speeds = [abs(kin.omega0 - 0) for kin, est in trial.scenario]
        # estimates carry the pinned magnitude exactly; truths add noise
        est_speeds = [abs(est.omega0) for kin, est in trial.scenario]
        np.testing.assert_allclose(est_speeds, 40 * DEG, rtol=1e-12)
        assert len(speeds) == 3

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            apply_axis(SMALL, "carrier", 1.0)


class TestRunSweep:
    def test_single_cell_reduces_to_run_trial(self):
        # cells[value index][trial id] is that cell's run_trial, in that order
        values = (0.0, 10 * DEG)
        sweep = SweepConfig(axis="offset_range", values=values, trials=2,
                            master_seed=9, beams=("stepped", "digital_genie"))
        result = run_sweep(sweep, SMALL)
        assert result.sweep is sweep
        assert [len(row) for row in result.cells] == [2, 2]
        base = dataclasses.replace(SMALL, beams=sweep.beams)
        for vi, value in enumerate(values):
            for t in range(2):
                cell = run_trial(apply_axis(base, "offset_range", value), 9, t)
                assert result.cells[vi][t].trial_id == t
                records_equal(result.cells[vi][t], cell)
                for kind in sweep.beams:
                    assert result.minima(kind)[vi, t] == cell.min_capacity(kind)

    def test_worker_count_invariant(self):
        sweep = SweepConfig(axis="offset_range", values=(0.0, 10 * DEG), trials=3,
                            master_seed=4, beams=("stepped", "rainbow"))
        serial = run_sweep(sweep, SMALL, workers=None)
        parallel = run_sweep(sweep, SMALL, workers=2)
        for kind in sweep.beams:
            np.testing.assert_array_equal(serial.minima(kind), parallel.minima(kind))

    def test_pool_is_never_larger_than_the_cell_count(self, monkeypatch):
        # a fake pool records its size and maps serially, so no process starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        sweep = SweepConfig(axis="offset_range", values=(0.0, 10 * DEG), trials=1,
                            master_seed=5, beams=("rainbow",))
        pooled = run_sweep(sweep, SMALL, workers=64)
        assert sizes == [2]
        np.testing.assert_array_equal(pooled.minima("rainbow"),
                                      run_sweep(sweep, SMALL).minima("rainbow"))

    @pytest.mark.parametrize("workers, message", [
        (-3, "workers must be >= 1"), (0, "workers must be >= 1"),
        ("2", "workers must be an integer, got '2'"), (2.0, "workers must be an integer, got 2.0"),
        (True, "workers must be an integer, got True"),
    ])
    def test_bad_worker_count_rejected_before_any_cell(self, workers, message, monkeypatch):
        monkeypatch.setattr(montecarlo, "_cell_job", lambda job: pytest.fail("a cell ran"))
        sweep = SweepConfig(axis="offset_range", values=(0.0,), trials=1, beams=("rainbow",))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_sweep(sweep, SMALL, workers=workers)

    def test_zero_offset_value_upper_bounds_wider_ones(self):
        # the zero-offset evaluation set {0} is a subset of every odd-count
        # grid, so its per-trial minima dominate exactly
        sweep = SweepConfig(
            axis="offset_range",
            values=(0.0, 5 * DEG, 10 * DEG),
            trials=3,
            master_seed=2,
            beams=("stepped", "qpd"),
        )
        result = run_sweep(sweep, SMALL)
        for kind in sweep.beams:
            block = result.minima(kind)
            assert np.all(block[0] >= block[1] - 1e-9)
            assert np.all(block[0] >= block[2] - 1e-9)

    def test_range_override_flows_into_slanted_design(self):
        cfg = dataclasses.replace(SMALL, beams=("slanted",), range_override=20 * DEG)
        sweep = SweepConfig(axis="offset_range", values=(5 * DEG,), trials=1,
                            master_seed=1, beams=("slanted",))
        ((_, cell),) = sweep_cells(sweep, cfg)
        trial = design_trial(cell, 1, 0)
        assert trial.beams["slanted"].anchor.aod_range == 20 * DEG

    def test_zero_velocity_zero_var_collapses_slanted_range(self):
        base = dataclasses.replace(
            SMALL,
            scenario=ScenarioConfig(num_users=3, var_omega=0.0, var_alpha=0.0),
            beams=("slanted",),
        )
        cfg = apply_axis(base, "mean_velocity", 0.0)
        trial = design_trial(cfg, 6, 0)
        expected = 2 * coverage_halfwidth(0.97) * np.sqrt(base.scenario.var_theta)
        assert trial.beams["slanted"].anchor.aod_range == pytest.approx(expected, rel=1e-12)

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(axis="bogus", values=(1.0,))
        with pytest.raises(ValueError):
            SweepConfig(axis="offset_range", values=())
        with pytest.raises(ValueError):
            SweepConfig(axis="offset_range", values=(2.0, 1.0))
        with pytest.raises(ValueError, match="^values must be strictly ascending$"):
            SweepConfig(axis="offset_range", values=(0.0, 0.0, 5.0))
        with pytest.raises(ValueError):
            SweepConfig(axis="offset_range", values=(1.0,), trials=0)

    def test_value_that_cannot_run_is_named_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(montecarlo, "run_trial", lambda *args: calls.append(args))
        base = dataclasses.replace(SMALL, channel_gains=(1.0, 0.5, 2.0))
        sweep = SweepConfig(axis="num_users", values=(2.0, 3.0), trials=1, beams=("rainbow",))
        message = r"^num_users=2: channel_gains need one value or one per user \(2\), got 3$"
        with pytest.raises(ValueError, match=message):
            run_sweep(sweep, base)
        with pytest.raises(ValueError, match=message):
            sweep_cells(sweep, base)
        assert calls == []

    @pytest.mark.parametrize("axis, value", [("num_users", 2.7), ("num_antennas", 8.9)])
    def test_count_axis_rejects_fractions(self, axis, value):
        with pytest.raises(ValueError, match=f"{axis}.*{value}"):
            SweepConfig(axis=axis, values=(2.0, value))
        assert SweepConfig(axis=axis, values=(2, 3.0)).values == (2.0, 3.0)


def cdf_csv(tmp_path, result, display_values):
    """The CDF CSV that ``write_cdf_csv`` writes for ``result``, read back as
    {(beam, axis_value): (capacities, cum_probs)} in row order."""
    path = tmp_path / "cdf.csv"
    write_cdf_csv(str(path), 0, "ab12", result, display_values)
    series = {}
    for line in path.read_text().splitlines()[2:]:
        beam, value, capacity, prob = line.split(",")
        xs, ps = series.setdefault((beam, float(value)), ([], []))
        xs.append(float(capacity))
        ps.append(float(prob))
    return series


class TestCapacityCdf:
    def test_x_intercept_matches_sweep_minimum(self, tmp_path):
        sweep = SweepConfig(axis="offset_range", values=(0.0, 10 * DEG), trials=4,
                            master_seed=3, beams=("stepped", "rainbow"))
        result = run_sweep(sweep, SMALL)
        cdf = cdf_csv(tmp_path, result, (0.0, 10.0))
        assert list(cdf) == [(b, v) for b in sweep.beams for v in (0.0, 10.0)]
        for (beam, value), (xs, ps) in cdf.items():
            vi = (0.0, 10.0).index(value)
            assert xs[0] == result.minima(beam)[vi].min()
            assert len(ps) == sweep.trials
            assert ps[-1] == 1.0
            assert np.all(np.diff(ps) > 0)

    def test_digital_genie_degenerate_without_offsets(self, tmp_path):
        base = dataclasses.replace(
            SMALL,
            mode="offset", max_offset=0.0, offset_count=1,
            beams=("digital_genie",),
        )
        sweep = SweepConfig(axis="offset_range", values=(0.0,), trials=4,
                            master_seed=8, beams=("digital_genie",))
        result = run_sweep(sweep, base)
        ((xs, _),) = cdf_csv(tmp_path, result, (0.0,)).values()
        assert len(xs) == 4
        assert np.ptp(xs) <= 1e-6 * xs[0]

    def test_one_sample_step(self, tmp_path):
        sweep = SweepConfig(axis="offset_range", values=(0.0,), trials=1,
                            master_seed=0, beams=("rainbow",))
        result = run_sweep(sweep, SMALL)
        ((xs, ps),) = cdf_csv(tmp_path, result, (0.0,)).values()
        assert xs == [result.minima("rainbow")[0, 0]]
        assert ps == [1.0]
