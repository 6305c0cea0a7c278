import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slantbeam
from slantbeam import jpta, montecarlo
from slantbeam.cli import (
    main,
    write_capacity_csv,
    write_capacity_summary_csv,
    write_cdf_csv,
    write_heatmap_csv,
    write_sweep_csv,
)
from slantbeam.config import parse_config
from slantbeam.designs import ANALOG_KINDS
from slantbeam.montecarlo import SweepConfig, SweepResult, TrialResult, design_trial

TINY = [
    "--set", "array.num_subcarriers=48",
    "--set", "array.num_antennas=8",
    "--set", "sweep.offset_count=3",
    "--set", "sweep.trials=2",
    "--set", "frame.num_steps=3",
]


class TestDesignCommand:
    def test_emits_json_per_kind(self, tmp_path):
        out = str(tmp_path)
        code = main(["design", "--out", out, "--beams", "stepped,rainbow", *TINY])
        assert code == 0
        doc = json.loads((tmp_path / "design_stepped.json").read_text())
        assert doc["kind"] == "stepped"
        assert len(doc["phases_rad"]) == 8
        assert len(doc["delays_s"]) == 8
        assert doc["seed"] == 0
        rain = json.loads((tmp_path / "design_rainbow.json").read_text())
        assert rain["kind"] == "rainbow"
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["command"] == "design"
        assert sorted(manifest["artifacts"]) == ["design_rainbow.json", "design_stepped.json"]
        assert doc["config_sha256"] == manifest["config_sha256"]

    def test_genie_kind_rejected(self, tmp_path, capsys):
        code = main(["design", "--out", str(tmp_path), "--beams", "digital_genie", *TINY])
        assert code == 2
        assert "beam kinds" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["design", "pattern"])
    def test_beams_recorded_in_manifest_and_hash(self, tmp_path, command):
        manifests = {}
        for beams in ("rainbow", "stepped,rainbow", None):
            out = tmp_path / str(beams)
            extra = [] if beams is None else ["--beams", beams]
            assert main([command, "--out", str(out), *extra, *TINY]) == 0
            manifests[beams] = json.loads((out / "run_manifest.json").read_text())
        hashes = {m["config_sha256"] for m in manifests.values()}
        assert len(hashes) == 3
        assert "beams = rainbow\n" in manifests["rainbow"]["config"]
        assert "beams = stepped,rainbow\n" in manifests["stepped,rainbow"]["config"]
        assert "beams = slanted,stepped,rainbow,qpd\n" in manifests[None]["config"]

    @pytest.mark.parametrize("command, ext", [("design", "json"), ("pattern", "csv")])
    def test_writes_designs_without_scoring_capacities(self, tmp_path, monkeypatch, command, ext):
        # only trial 0's design stage runs; the evaluation stage is never reached
        def evaluate(*args, **kwargs):
            raise RuntimeError("capacity_records ran")

        monkeypatch.setattr(montecarlo, "capacity_records", evaluate)
        assert main([command, "--out", str(tmp_path), *TINY]) == 0
        written = sorted(f"{command}_{kind}.{ext}" for kind in ANALOG_KINDS)
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["artifacts"] == written
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written + ["run_manifest.json"])

    @pytest.mark.parametrize("command, ext", [("design", "json"), ("pattern", "csv")])
    def test_writes_designs_without_building_policies(self, tmp_path, monkeypatch, command, ext):
        # the analog designs go out as built; none is wrapped as a FixedBeamPolicy
        def wrap(*args, **kwargs):
            raise RuntimeError("FixedBeamPolicy built")

        monkeypatch.setattr(montecarlo, "FixedBeamPolicy", wrap)
        assert main([command, "--out", str(tmp_path), *TINY]) == 0
        written = sorted(f"{command}_{kind}.{ext}" for kind in ANALOG_KINDS)
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["artifacts"] == written
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written + ["run_manifest.json"])

    @pytest.mark.parametrize("command", ["design", "pattern", "sweep"])
    def test_duplicate_beam_kinds_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        values = ["--values", "0"] if command == "sweep" else []
        code = main([command, "--out", str(out), "--seed", "1", "--beams", "rainbow,rainbow",
                     *values, *TINY])
        assert code == 2
        assert "[sweep] beams: duplicate beam kinds ['rainbow']" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["design", "pattern"])
    def test_set_sweep_beams_exits_2_naming_beams_flag_before_any_file(self, tmp_path, capsys,
                                                                      command):
        out = tmp_path / "out"
        code = main([command, "--out", str(out), "--set", "sweep.beams=rainbow", *TINY])
        assert code == 2
        assert ("error: --set sweep.beams=rainbow: "
                f"{command} takes its beams from --beams") in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_seed_changes_design(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["design", "--out", str(out_a), "--beams", "stepped", "--seed", "1", *TINY])
        main(["design", "--out", str(out_b), "--beams", "stepped", "--seed", "2", *TINY])
        a = json.loads((out_a / "design_stepped.json").read_text())
        b = json.loads((out_b / "design_stepped.json").read_text())
        assert a["anchor"]["centers_deg"] != b["anchor"]["centers_deg"]

    def test_anchor_is_written_per_user(self, tmp_path):
        # seed 5's trial 0 puts users 0, 1, 2 on sub-bands 1, 2, 0 (a 3-cycle), so
        # centers in sub-band order would differ from the users' estimates
        assert main(["design", "--out", str(tmp_path), "--beams", "stepped", "--seed", "5",
                     *TINY]) == 0
        doc = json.loads((tmp_path / "design_stepped.json").read_text())
        base = parse_config(overrides=[*TINY[1::2], "sweep.beams=stepped"], desk=True).base_trial()
        trial = design_trial(base, 5, 0)
        assert np.all(trial.assignment != np.arange(3))
        assert doc["anchor"]["assignment"] == trial.assignment.tolist()
        theta0_deg = [float(np.rad2deg(est.theta0)) for _, est in trial.scenario]
        assert doc["anchor"]["centers_deg"] == theta0_deg

    @pytest.mark.parametrize("item, named", [
        ("link.snr_db=nan", "[link] snr_db: must be finite, got nan"),
        ("array.spacing_wavelengths=inf", "[array] spacing_wavelengths: must be finite, got inf"),
        ("link.channel_gains=1,2", "[link] channel_gains: need one value or one per user (3), got 2"),
    ])
    def test_bad_number_exits_2_naming_key_before_any_file(self, tmp_path, capsys, item, named):
        out = tmp_path / "out"
        code = main(["design", "--out", str(out), "--seed", "1", "--set", item,
                     "--set", "array.num_subcarriers=24", "--set", "array.num_antennas=8"])
        assert code == 2
        assert named in capsys.readouterr().err
        assert list(out.iterdir()) == []


K48_N8 = ["--set", "array.num_subcarriers=48", "--set", "array.num_antennas=8"]


@pytest.mark.parametrize("args, named", [
    pytest.param(["design", "--set", "mobility.min_spacing_deg=50", *K48_N8],
                 "[mobility] min_spacing_deg: infeasible for num_users in aod_range",
                 id="min_spacing"),
    pytest.param(["design", "--set", "array.num_antennas=8", "--set", "array.num_subcarriers=25"],
                 "[array] num_subcarriers: 25 not divisible by num_users 3",
                 id="num_subcarriers"),
    pytest.param(["sweep", "--axis", "num_users", "--values", "2,7", *K48_N8],
                 "[sweep] values: num_users=7: num_subcarriers 48 not divisible by num_users 7",
                 id="user_count_divides"),
    pytest.param(["sweep", "--axis", "num_users", "--values", "2,3",
                  "--set", "link.channel_gains=1,0.5,2", *K48_N8],
                 "[sweep] values: num_users=2: channel_gains need one value or one per user (2), "
                 "got 3",
                 id="user_count_gains"),
    pytest.param(["sweep", "--axis", "num_antennas", "--values", "0,8", *K48_N8],
                 "[sweep] values: num_antennas=0: num_antennas must be >= 1",
                 id="antenna_count"),
    pytest.param(["sweep", "--axis", "mean_velocity", "--values=-10,0", *K48_N8],
                 "[sweep] values: mean_velocity=-10 deg/s: velocity_range must satisfy "
                 "0 <= lo <= hi",
                 id="velocity"),
    pytest.param(["sweep", "--axis", "num_users", "--values", "2.7", *K48_N8],
                 "[sweep] values: must be whole numbers on axis num_users, got 2.7",
                 id="fractional_user_count"),
    pytest.param(["sweep", "--axis", "offset_range", "--values", "0,0,5", *K48_N8],
                 "[sweep] values: must be strictly ascending",
                 id="repeated_value"),
    pytest.param(["sweep", "--values", "0", "--beams", "rainbow", "--set", "link.snr_db=4000",
                  *K48_N8],
                 "error: [link] snr_db: must keep 10**(snr_db/10) a finite float, got 4000.0",
                 id="snr_overflow"),
])
def test_config_that_cannot_run_exits_2_naming_key_before_any_file(tmp_path, capsys, args,
                                                                   named):
    out = tmp_path / "out"
    assert main([*args, "--seed", "1", "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert list(out.iterdir()) == []


class TestPatternCommand:
    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = ["pattern", "--beams", "rainbow", *TINY]
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        assert (out_a / "pattern_rainbow.csv").read_bytes() == \
               (out_b / "pattern_rainbow.csv").read_bytes()

    def test_schema_and_manifest_reference(self, tmp_path):
        out = str(tmp_path)
        assert main(["pattern", "--out", out, "--beams", "rainbow", "--seed", "5", *TINY]) == 0
        lines = (tmp_path / "pattern_rainbow.csv").read_text().splitlines()
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert lines[0] == f"# seed=5 config=sha256:{manifest['config_sha256']}"
        assert lines[1] == "theta_deg,f_hz,gain"
        first = lines[2].split(",")
        assert float(first[0]) == -90.0
        # theta-major: 361 angles x 48 subcarriers data rows
        assert len(lines) == 2 + 361 * 48

    def test_gives_back_the_solver_plan_once_its_designs_are_solved(self, tmp_path):
        assert main(["pattern", "--out", str(tmp_path), "--beams", "stepped", *TINY]) == 0
        assert jpta._plan.cache_info().currsize == 0

    def test_design_after_pattern_rebuilds_the_same_plan(self, tmp_path):
        # one process: the design written after a pattern (which cleared the plan)
        # matches the one written before it, byte for byte
        args = ["design", "--beams", "stepped,slanted", "--seed", "3", *TINY]
        assert main([*args, "--out", str(tmp_path / "before")]) == 0
        assert main(["pattern", "--out", str(tmp_path / "pattern"), "--beams", "stepped",
                     *TINY]) == 0
        assert main([*args, "--out", str(tmp_path / "after")]) == 0
        for kind in ("stepped", "slanted"):
            name = f"design_{kind}.json"
            assert (tmp_path / "before" / name).read_bytes() == \
                   (tmp_path / "after" / name).read_bytes()


class TestSweepCommand:
    def test_seed_required(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path), *TINY])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("args, named", [
        (["sweep", "--seed", "-1"], "--seed must be at least 0, got -1"),
        (["design", "--seed", "-2"], "--seed must be at least 0, got -2"),
        (["sweep", "--seed", "1", "--workers", "-3"], "--workers must be at least 1, got -3"),
        (["cdf", "--seed", "1", "--workers", "0"], "--workers must be at least 1, got 0"),
    ])
    def test_negative_seed_or_workers_below_one_exit_2_before_any_file(self, tmp_path, capsys,
                                                                       args, named):
        out = tmp_path / "out"
        assert main([*args, "--out", str(out), *TINY]) == 2
        assert f"error: {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_row_count_and_schema(self, tmp_path):
        out = str(tmp_path)
        code = main([
            "sweep", "--out", out, "--seed", "3",
            "--axis", "offset_range", "--values", "0,5,10",
            "--beams", "stepped,rainbow", *TINY,
        ])
        assert code == 0
        lines = (tmp_path / "sweep_offset_range.csv").read_text().splitlines()
        assert lines[1] == "axis,axis_value,beam,statistic,value_bps"
        rows = [ln.split(",") for ln in lines[2:]]
        # 3 values x 2 beams x 2 statistics
        assert len(rows) == 12
        assert {r[3] for r in rows} == {"min", "mean_min"}
        assert {r[1] for r in rows} == {"0.0", "5.0", "10.0"}
        min_rows = [r for r in rows if r[3] == "min"]
        mean_rows = [r for r in rows if r[3] == "mean_min"]
        for mn, mean in zip(min_rows, mean_rows):
            assert float(mean[4]) >= float(mn[4]) - 1e-9

    def test_worker_count_leaves_bytes_unchanged(self, tmp_path):
        # every artifact, the cdf run's per-trial detail and summary CSVs too:
        # they are written from the records each worker sends back
        cases = {
            "sweep": ["--axis", "offset_range", "--values", "0,10",
                      "--beams", "stepped,digital_genie"],
            "cdf": ["--axis", "mean_velocity", "--values", "0,40"],
        }
        for command, extra in cases.items():
            args = [command, "--seed", "4", *extra, *TINY]
            out_a = tmp_path / command / "serial"
            out_b = tmp_path / command / "parallel"
            assert main([*args, "--out", str(out_a)]) == 0
            assert main([*args, "--out", str(out_b), "--workers", "2"]) == 0
            names = sorted(p.name for p in out_a.iterdir())
            assert names == sorted(p.name for p in out_b.iterdir())
            assert f"{command}_{extra[1]}.csv" in names
            for name in names:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    @pytest.mark.parametrize("axis, value", [("num_users", "2.7"), ("num_antennas", "8.9")])
    def test_fractional_count_axis_rejected(self, tmp_path, capsys, axis, value):
        code = main(["sweep", "--out", str(tmp_path), "--seed", "1",
                     "--axis", axis, "--values", value, "--beams", "stepped", *TINY])
        assert code != 0
        assert not (tmp_path / f"sweep_{axis}.csv").exists()
        err = capsys.readouterr().err
        assert axis in err and value in err

    def test_axis_values_beams_recorded_in_manifest_and_hash(self, tmp_path):
        manifests = []
        for name, values in (("a", "2,3"), ("b", "2,4")):
            out = tmp_path / name
            assert main(["sweep", "--out", str(out), "--seed", "1", "--axis", "num_users",
                         "--values", values, "--beams", "rainbow,qpd", *TINY]) == 0
            manifests.append(json.loads((out / "run_manifest.json").read_text()))
        assert manifests[0]["config_sha256"] != manifests[1]["config_sha256"]
        assert "axis = num_users" in manifests[0]["config"]
        assert "values = 2.0,3.0" in manifests[0]["config"]
        assert "beams = rainbow,qpd" in manifests[0]["config"]

    # config checks cover only the deterministic motion; here the noise in the
    # initial angle and speed carries a user out of the half-plane mid-run
    NOISY_EDGE = ["--seed", "3", "--axis", "mean_velocity", "--values", "0,60",
                  "--set", "mobility.aod_min_deg=70", "--set", "mobility.aod_max_deg=80",
                  "--set", "mobility.min_spacing_deg=1", "--set", "mobility.var_theta_deg2=4",
                  "--set", "mobility.var_omega_deg2_s2=400",
                  "--set", "array.num_subcarriers=48", "--set", "array.num_antennas=8",
                  "--set", "sweep.trials=4", "--set", "frame.num_steps=3"]

    def test_angle_error_names_trial_beam_and_eval_index(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path), *self.NOISY_EDGE])
        assert code == 1
        assert not (tmp_path / "sweep_mean_velocity.csv").exists()
        err = capsys.readouterr().err
        assert "mean_velocity=60 deg/s: trial 0: beam slanted, eval index 1: angle of departure" in err

    def test_angle_error_names_axis_value_from_worker_pool(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path), "--workers", "2", *self.NOISY_EDGE])
        assert code == 1
        err = capsys.readouterr().err
        assert "mean_velocity=60 deg/s: trial 0: beam slanted, eval index 1: angle of departure" in err

    def test_angle_range_past_half_plane_fails_before_running(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path), "--seed", "1",
                     "--set", "mobility.aod_max_deg=80", "--set", "sweep.values=0,20",
                     "--set", "array.num_subcarriers=48", "--set", "array.num_antennas=8"])
        assert code == 2
        assert not (tmp_path / "sweep_offset_range.csv").exists()
        err = capsys.readouterr().err
        assert "[sweep] values: offset_range=20 deg: aod_range:" in err

    @pytest.mark.parametrize("axis, values", [("mean_velocity", "0"), ("offset_range", "0,2")])
    def test_angle_reach_judges_only_the_cells_that_run(self, tmp_path, axis, values):
        # the base trial's 10 deg offset grid would reach 95 deg, but no cell runs it
        code = main(["sweep", "--out", str(tmp_path), "--seed", "1", "--axis", axis,
                     "--values", values, "--set", "mobility.aod_max_deg=85",
                     "--set", "sweep.trials=2", "--set", "frame.num_steps=3", *K48_N8])
        assert code == 0
        assert (tmp_path / f"sweep_{axis}.csv").exists()

    @pytest.mark.parametrize("item, bound", [("mobility.aod_max_deg=85", "aod_max"),
                                             ("mobility.aod_min_deg=-85", "aod_min")])
    def test_angle_reach_names_the_bound_that_reaches(self, tmp_path, capsys, item, bound):
        code = main(["sweep", "--out", str(tmp_path), "--seed", "1", "--axis", "offset_range",
                     "--values", "0,12", "--set", item, *K48_N8])
        assert code == 2
        assert list(tmp_path.iterdir()) == []
        assert (f"[sweep] values: offset_range=12 deg: aod_range: |{bound}| plus the largest "
                f"offset reaches 97 deg, beyond 90 deg") in capsys.readouterr().err

    def test_bad_set_key(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path), "--seed", "0",
                     "--set", "array.warp=1", *TINY])
        assert code == 2
        assert "warp" in capsys.readouterr().err


class TestCdfCommand:
    def test_velocity_series_and_details(self, tmp_path):
        out = str(tmp_path)
        code = main([
            "cdf", "--out", out, "--seed", "6",
            "--axis", "mean_velocity", "--values", "0,40,80",
            "--beams", "stepped,digital_genie", *TINY,
        ])
        assert code == 0
        lines = (tmp_path / "cdf_mean_velocity.csv").read_text().splitlines()
        assert lines[1] == "beam,axis_value,capacity_bps,cum_prob"
        rows = [ln.split(",") for ln in lines[2:]]
        assert {r[1] for r in rows} == {"0.0", "40.0", "80.0"}
        # 2 beams x 3 values x 2 trials
        assert len(rows) == 12
        assert all(r[3] in ("0.5", "1.0") for r in rows)

        detail = (tmp_path / "capacity_detail_0.csv").read_text().splitlines()
        assert detail[1] == "trial,beam,user,eval_index,capacity_bps"
        # 2 trials x 2 beams x 3 eval steps x 3 users
        assert len(detail) == 2 + 2 * 2 * 3 * 3
        summary = (tmp_path / "capacity_summary_0.csv").read_text().splitlines()
        assert summary[1] == "trial,beam,min_capacity_bps"
        assert len(summary) == 2 + 2 * 2

        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert "cdf_mean_velocity.csv" in manifest["artifacts"]
        assert "capacity_detail_2.csv" in manifest["artifacts"]

    def test_summary_min_matches_detail_min(self, tmp_path):
        out = str(tmp_path)
        main(["cdf", "--out", out, "--seed", "1", "--axis", "offset_range",
              "--values", "10", "--beams", "stepped", *TINY])
        detail = (tmp_path / "capacity_detail_0.csv").read_text().splitlines()[2:]
        summary = (tmp_path / "capacity_summary_0.csv").read_text().splitlines()[2:]
        by_trial = {}
        for ln in detail:
            trial, beam, user, idx, cap = ln.split(",")
            by_trial.setdefault(trial, []).append(float(cap))
        for ln in summary:
            trial, beam, m = ln.split(",")
            assert float(m) == min(by_trial[trial])

    def test_cdf_rows_are_the_sorted_minima_of_the_sweep(self, tmp_path):
        # the CDF's first sample of each (beam, value) is the sweep CSV's min row
        args = ["--seed", "2", "--axis", "offset_range", "--values", "0,10",
                "--beams", "stepped,rainbow", *TINY]
        assert main(["cdf", "--out", str(tmp_path / "cdf"), *args]) == 0
        assert main(["sweep", "--out", str(tmp_path / "sweep"), *args]) == 0
        cdf = {}
        for ln in (tmp_path / "cdf" / "cdf_offset_range.csv").read_text().splitlines()[2:]:
            beam, value, cap, prob = ln.split(",")
            cdf.setdefault((beam, value), []).append((cap, prob))
        sweep_min = {}
        for ln in (tmp_path / "sweep" / "sweep_offset_range.csv").read_text().splitlines()[2:]:
            _, value, beam, statistic, cap = ln.split(",")
            if statistic == "min":
                sweep_min[beam, value] = float(cap)
        assert sorted(cdf) == sorted(sweep_min) == sorted(
            (b, v) for b in ("stepped", "rainbow") for v in ("0.0", "10.0"))
        for vi, value in enumerate(("0.0", "10.0")):
            summary = (tmp_path / "cdf" / f"capacity_summary_{vi}.csv").read_text()
            minima = {}
            for ln in summary.splitlines()[2:]:
                _, beam, cap = ln.split(",")
                minima.setdefault(beam, []).append(float(cap))
            assert sorted(minima) == ["rainbow", "stepped"]
            for beam, caps in minima.items():
                rows, t = cdf[beam, value], len(caps)
                assert [float(cap) for cap, _ in rows] == sorted(caps)
                assert [float(prob) for _, prob in rows] == [i / t for i in range(1, t + 1)]
                assert float(rows[0][0]) == sweep_min[beam, value]


class TestParity:
    def test_full_flag_changes_scale(self, tmp_path):
        out = str(tmp_path)
        assert main(["design", "--out", out, "--beams", "rainbow", "--full"]) == 0
        doc = json.loads((tmp_path / "design_rainbow.json").read_text())
        assert len(doc["delays_s"]) == 32
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert "num_subcarriers = 1200" in manifest["config"]

    def test_config_file_input(self, tmp_path):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text("[array]\nnum_antennas = 4\nnum_subcarriers = 12\n")
        out = str(tmp_path / "out")
        assert main(["design", "--out", out, "--beams", "stepped",
                     "--config", str(cfg_file)]) == 0
        doc = json.loads((tmp_path / "out" / "design_stepped.json").read_text())
        assert len(doc["phases_rad"]) == 4

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["design", "--out", str(tmp_path), "--config", "/nonexistent.ini"])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err


# the angle reach of the desk sweep's 20 deg offset cell: 75 + 20 = 95 deg
REACH_95 = ["--set", "mobility.aod_max_deg=75", *K48_N8]
REACH_95_MESSAGE = ("[sweep] values: offset_range=20 deg: aod_range: |aod_max| plus the largest "
                    "offset reaches 95 deg, beyond 90 deg")


class TestRunEnvelope:
    @pytest.mark.parametrize("command, extra", [
        ("design", []),
        ("pattern", ["--beams", "rainbow,qpd"]),
        ("sweep", ["--seed", "2", "--values", "0,10"]),
        ("cdf", ["--seed", "2", "--axis", "mean_velocity", "--values", "0,40"]),
    ])
    def test_wrote_lines_files_and_manifest_name_the_same_artifacts(self, tmp_path, capsys,
                                                                   command, extra):
        assert main([command, "--out", str(tmp_path), *extra, *TINY]) == 0
        wrote = capsys.readouterr().out.splitlines()
        assert all(line.startswith(f"wrote {tmp_path}{os.sep}") for line in wrote)
        reported = sorted(Path(line[len("wrote "):]).name for line in wrote)
        files = sorted(p.name for p in tmp_path.iterdir() if p.name != "run_manifest.json")
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert reported and reported == files == manifest["artifacts"]
        assert manifest["command"] == command

    @pytest.mark.parametrize("args, code, message", [
        (TestSweepCommand.NOISY_EDGE, 1, "mean_velocity=60 deg/s: trial 0: beam slanted"),
        (["--seed", "1", *REACH_95], 2, REACH_95_MESSAGE),
    ], ids=["exit_1", "exit_2"])
    def test_failed_run_writes_no_file_and_no_manifest(self, tmp_path, capsys, args, code,
                                                       message):
        assert main(["sweep", *args, "--out", str(tmp_path)]) == code
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, ext", [("design", "json"), ("pattern", "csv")])
    def test_design_and_pattern_do_not_judge_sweep_cells(self, tmp_path, command, ext):
        # they run no sweep, so a sweep value that cannot run does not stop them
        assert main([command, "--out", str(tmp_path), *REACH_95]) == 0
        written = sorted(f"{command}_{kind}.{ext}" for kind in ANALOG_KINDS)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written + ["run_manifest.json"])


def run_python(*args):
    """A fresh interpreter that imports slantbeam from the tree under test."""
    src = str(Path(slantbeam.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})


class TestModuleEntryPoint:
    def test_design_writes_manifest(self, tmp_path):
        proc = run_python("-m", "slantbeam.cli", "design", "--beams", "rainbow",
                          "--out", str(tmp_path), *TINY)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"wrote {tmp_path / 'design_rainbow.json'}\n"
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["artifacts"] == ["design_rainbow.json"]

    def test_negative_seed_exits_2(self, tmp_path):
        out = tmp_path / "out"
        proc = run_python("-m", "slantbeam.cli", "design", "--seed", "-1", "--out", str(out),
                          *TINY)
        assert proc.returncode == 2
        assert "error: --seed must be at least 0, got -1" in proc.stderr
        assert not out.exists()


# The writers' byte formats before they were batched, kept as oracles: every
# float is ``repr(float(x))``, one row at a time.
def _head(seed, h, header):
    return f"# seed={seed} config=sha256:{h}\n{header}\n"


def heatmap_oracle(seed, h, thetas_deg, freqs, gains):
    out = [_head(seed, h, "theta_deg,f_hz,gain")]
    for ti, theta in enumerate(thetas_deg):
        for ki, f in enumerate(freqs):
            out.append(f"{repr(float(theta))},{repr(float(f))},{repr(float(gains[ti, ki]))}\n")
    return "".join(out)


def capacity_oracle(seed, h, results, beams):
    out = [_head(seed, h, "trial,beam,user,eval_index,capacity_bps")]
    for res in results:
        for beam in beams:
            caps = res.records[beam]
            for p in range(caps.shape[0]):
                for u in range(caps.shape[1]):
                    out.append(f"{res.trial_id},{beam},{u},{p},{repr(float(caps[p, u]))}\n")
    return "".join(out)


def capacity_summary_oracle(seed, h, results, beams):
    out = [_head(seed, h, "trial,beam,min_capacity_bps")]
    for res in results:
        for beam in beams:
            out.append(f"{res.trial_id},{beam},{repr(res.min_capacity(beam))}\n")
    return "".join(out)


def sweep_oracle(seed, h, result, display_values):
    out = [_head(seed, h, "axis,axis_value,beam,statistic,value_bps")]
    sweep = result.sweep
    mins = {b: result.minima(b).min(axis=1) for b in sweep.beams}
    means = {b: result.minima(b).mean(axis=1) for b in sweep.beams}
    for vi, dv in enumerate(display_values):
        for beam in sweep.beams:
            out.append(f"{sweep.axis},{repr(float(dv))},{beam},min,{repr(float(mins[beam][vi]))}\n")
            out.append(f"{sweep.axis},{repr(float(dv))},{beam},mean_min,"
                       f"{repr(float(means[beam][vi]))}\n")
    return "".join(out)


def cdf_oracle(seed, h, result, display_values):
    out = [_head(seed, h, "beam,axis_value,capacity_bps,cum_prob")]
    for beam in result.sweep.beams:
        for dv, row in zip(display_values, result.cells):
            minima = sorted(res.min_capacity(beam) for res in row)
            for i, x in enumerate(minima, start=1):
                out.append(f"{beam},{repr(float(dv))},{repr(float(x))},{repr(i / len(minima))}\n")
    return "".join(out)


# Floats whose shortest round-trip text differs from str() of a float32, from
# %g, from np.savetxt's %.18e and from any fixed number of digits.
AWKWARD = [-0.0, 5e-324, 0.1 + 0.2, 1e22, 60e9, 1 / 3, 2.5e-7, 123456789.125]


def _trial(trial_id, caps_by_beam):
    records = {b: np.array(c, dtype=float) for b, c in caps_by_beam.items()}
    return TrialResult(trial_id, records)


def _heatmap_case(thetas, freqs, gains, dtype=float):
    return (write_heatmap_csv, heatmap_oracle,
            (np.array(thetas), np.array(freqs), np.array(gains, dtype=dtype)))


RESULTS = [
    _trial(0, {"stepped": [AWKWARD[:2], AWKWARD[2:4], AWKWARD[4:6]],
               "rainbow": [AWKWARD[6:], AWKWARD[1:3], AWKWARD[3:5]]}),
    _trial(11, {"stepped": [[60e9, 0.1 + 0.2]] * 3, "rainbow": [[1e22, 5e-324]] * 3}),
]
# the second value's trials run in reverse, so its stepped minima need sorting
SWEEP_ARGS = (
    SweepResult(SweepConfig("offset_range", (0.0, 0.1), trials=2, beams=("stepped", "rainbow")),
                (tuple(RESULTS), tuple(RESULTS[::-1]))),
    (-0.0, 0.1 + 0.2),
)
WRITER_CASES = {
    "heatmap": _heatmap_case([-90.0, -0.0, 0.1 + 0.2], [60e9, 59.5e9, 60e9 + 1 / 3],
                             np.reshape(AWKWARD + [7.0], (3, 3))),
    "heatmap_float32_gains": _heatmap_case([-0.5, 0.5], [60e9, 60.1e9],
                                           [[0.1, 1 / 3], [31.9, 2.5e-7]], np.float32),
    "heatmap_one_row": _heatmap_case([0.1 + 0.2], AWKWARD, [AWKWARD]),
    "heatmap_one_column": _heatmap_case(AWKWARD, [60e9], [[a] for a in AWKWARD]),
    "capacity": (write_capacity_csv, capacity_oracle, (RESULTS, ("stepped", "rainbow"))),
    "capacity_summary": (write_capacity_summary_csv, capacity_summary_oracle,
                         (RESULTS, ("rainbow", "stepped"))),
    "sweep": (write_sweep_csv, sweep_oracle, SWEEP_ARGS),
    "cdf": (write_cdf_csv, cdf_oracle, SWEEP_ARGS),
}


class TestWriters:
    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_bytes_match_per_row_oracle(self, tmp_path, case):
        writer, oracle, args = WRITER_CASES[case]
        path = tmp_path / "out.csv"
        writer(str(path), 9, "ab12", *args)
        assert path.read_bytes() == oracle(9, "ab12", *args).encode("utf-8")

    def test_summary_minima_stay_builtin_floats(self, tmp_path):
        # repr of a numpy 2 scalar reads np.float64(...), which would change every row
        path = tmp_path / "out.csv"
        write_capacity_summary_csv(str(path), 9, "ab12", RESULTS, ("stepped", "rainbow"))
        rows = path.read_text(encoding="utf-8").splitlines()[2:]
        assert len(rows) == 4 and not any("np.float64(" in row for row in rows)

    def test_heatmap_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_heatmap_csv(str(tmp_path / "out.csv"), 0, "ab12", np.zeros(2), np.zeros(3),
                              np.zeros((2, 2)))


def test_fresh_import_leaves_scipy_out():
    # numpy is the only runtime dependency, and the process pool (about 20 ms of
    # imports) loads only when a run asks for workers
    code = ("import sys, slantbeam.cli; print([m for m in sys.modules"
            " if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'])")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_root_binds_only_its_version():
    # every name has one spelling: it is imported from its module
    code = ("import slantbeam; print(sorted(n for n in vars(slantbeam) if not n.startswith('_')),"
            " slantbeam.__version__)")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] 0.1.0\n"
