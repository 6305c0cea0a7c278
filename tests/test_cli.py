import json

import numpy as np
import pytest

from slantbeam.cli import main

TINY = [
    "--set", "array.num_subcarriers=48",
    "--set", "array.num_antennas=8",
    "--set", "sweep.offset_count=3",
    "--set", "sweep.trials=2",
    "--set", "frame.num_steps=3",
]


def run_cli(args, capsys=None):
    code = main(args)
    return code


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

    def test_seed_changes_design(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["design", "--out", str(out_a), "--beams", "stepped", "--seed", "1", *TINY])
        main(["design", "--out", str(out_b), "--beams", "stepped", "--seed", "2", *TINY])
        a = json.loads((out_a / "design_stepped.json").read_text())
        b = json.loads((out_b / "design_stepped.json").read_text())
        assert a["anchor"]["centers_deg"] != b["anchor"]["centers_deg"]


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


class TestSweepCommand:
    def test_seed_required(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path), *TINY])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

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
        args = ["sweep", "--seed", "4", "--axis", "offset_range", "--values", "0,10",
                "--beams", "stepped,digital_genie", *TINY]
        out_a = tmp_path / "serial"
        out_b = tmp_path / "parallel"
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b), "--workers", "2"]) == 0
        assert (out_a / "sweep_offset_range.csv").read_bytes() == \
               (out_b / "sweep_offset_range.csv").read_bytes()

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

    def test_angle_error_names_trial_beam_and_eval_index(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path), "--seed", "1",
                     "--set", "mobility.aod_max_deg=80", "--set", "sweep.values=0,20",
                     "--set", "array.num_subcarriers=48", "--set", "array.num_antennas=8",
                     "--set", "sweep.trials=4", "--set", "sweep.offset_count=3"])
        assert code == 1
        assert not (tmp_path / "sweep_offset_range.csv").exists()
        err = capsys.readouterr().err
        assert "offset_range=20 deg: trial 0: beam slanted, eval index 2: angle of departure" in err

    def test_angle_error_names_axis_value_from_worker_pool(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path), "--seed", "1", "--workers", "2",
                     "--set", "mobility.aod_max_deg=80", "--set", "sweep.values=0,20",
                     "--set", "array.num_subcarriers=48", "--set", "array.num_antennas=8",
                     "--set", "sweep.trials=4", "--set", "sweep.offset_count=3"])
        assert code == 1
        err = capsys.readouterr().err
        assert "offset_range=20 deg: trial 0: beam slanted, eval index 2: angle of departure" in err

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
