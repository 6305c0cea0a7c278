"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Spans each workload must fire, and spans it must bypass.
COMMON = {
    "montecarlo.run_trial", "mobility.sample_scenario",
    "designs.slanted", "designs.stepped", "designs.fixed", "jpta.solve",
    "link.min_capacity", "arrays.gain_profile", "arrays.awv_matrix",
}
FIRES = {
    "genie_offset": COMMON | {"designs.genie_stepped", "arrays.response_matrix"},
    "trajectory_full": COMMON | {"mobility.true_aod", "mobility.anchor_selection",
                                 "arrays.response_matrix"},
    "pattern_full": COMMON | {"cli.main", "config.parse_config", "arrays.pattern_heatmap",
                              "cli.write_csv", "cli.write_manifest"},
}
OFFSET_MODE = {"mobility.true_aod", "mobility.anchor_selection"}
BYPASSES = {
    "genie_offset": OFFSET_MODE | {"cli.main", "cli.write_csv", "arrays.pattern_heatmap"},
    "trajectory_full": {"designs.genie_stepped", "cli.main", "cli.write_csv"},
    "pattern_full": OFFSET_MODE | {"designs.genie_stepped", "arrays.response_matrix"},
}


def run_bench(workload, trace, seed=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def units_of(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_spec(workload):
    result = result_of(run_bench(workload, trace=0))
    assert units_of(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_fires_its_spans(workload):
    result = result_of(run_bench(workload, trace=1, seed=0))
    metrics = result["metrics"]
    assert units_of(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["output_max_rel_err"]["value"] == 0.0
    assert metrics["failed_frac"]["value"] == 0.0
    shares = [m["value"] for name, m in metrics.items() if name.startswith("share.")]
    assert sum(shares) == pytest.approx(1.0)

    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed0-trace1.json").read_text())
    assert record["missing_wraps"] == []
    fired = {span[0] for span in record["trace"]["spans"]}
    assert FIRES[workload] <= fired, FIRES[workload] - fired
    assert not BYPASSES[workload] & fired


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
