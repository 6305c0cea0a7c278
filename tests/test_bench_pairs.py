"""``tools/bench_pairs.py`` brackets its pairs with a machine-speed probe,
keeps both timings in the header, and restates medians in seconds in probe units."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_probe_runs_before_and_after_the_pairs(monkeypatch, tmp_path, capsys):
    for side in bench_pairs.SIDES:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    events = []
    probes = iter([0.001, 0.002, 0.003, 0.004])

    def probe():
        events.append("probe")
        return next(probes)

    def run_side(directory, workload, seed, seconds, trace):
        events.append("run")
        value = 2.0 if directory.name == "parent" else 1.0
        return {"metrics": {"cell_p50_s": {"value": value}}}, {"cores": 2}

    monkeypatch.setattr(bench_pairs, "machine_probe", probe)
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    out = tmp_path / "BENCH.json"
    dirs = [str(tmp_path / "parent"), str(tmp_path / "change"), "--out", str(out)]
    assert bench_pairs.main([*dirs, "--runs", "genie_offset=1-2"]) == 0
    assert events == ["probe"] + ["run"] * 4 + ["probe"]
    assert json.loads(out.read_text())["probe_s"] == {"before": [0.001], "after": [0.002]}

    assert bench_pairs.main([*dirs, "--runs", "genie_offset=3", "--append"]) == 0
    doc = json.loads(out.read_text())
    assert doc["probe_s"] == {"before": [0.001, 0.003], "after": [0.002, 0.004]}
    assert len(doc["runs"]) == 6
    summary = capsys.readouterr().out.splitlines()[-5:]
    assert summary[0] == "machine probe: before 1.000 ms, 3.000 ms"
    assert summary[1] == "machine probe: after 2.000 ms, 4.000 ms"
    assert summary[2] == "genie_offset trace 0: 3 pairs"
    assert "wins 3/3" in summary[3]
    assert summary[4] == "  worse beyond bound: none"


def test_probe_times_the_kernel():
    assert 0.0 < bench_pairs.machine_probe() < 10.0


def _doc(probe_s):
    runs = [{"workload": "genie_offset", "seed": seed, "trace": 0, "order": 1, "side": side,
             "result": {"metrics": {"cell_p50_s": {"value": value * seed},
                                    "peak_rss_mb": {"value": 100.0 * value}}}}
            for seed in (1, 2, 3) for side, value in (("parent", 0.04), ("change", 0.02))]
    return {"runs": runs, **({"probe_s": probe_s} if probe_s is not None else {})}


def test_summary_gives_medians_in_seconds_in_probe_units():
    # the probe median pools before and after: median of 8, 10 and 12 ms is 10 ms
    lines = bench_pairs.summarize(_doc({"before": [0.008, 0.012], "after": [0.010]}))
    seconds = next(ln for ln in lines if ln.startswith("  cell_p50_s:"))
    assert seconds.endswith("  in probe units: parent 8  change 4")
    megabytes = next(ln for ln in lines if ln.startswith("  peak_rss_mb:"))
    assert "probe units" not in megabytes


def test_summary_without_a_probe_is_unchanged():
    for probe_s in (None, {"before": [], "after": []}):
        lines = bench_pairs.summarize(_doc(probe_s))
        assert lines[0] == "genie_offset trace 0: 3 pairs"
        assert lines[1] == ("  cell_p50_s: parent 0.08 [0.06, 0.1]  change 0.04 [0.03, 0.05]  "
                            "median -50.0%  wins 3/3  gap > parent IQR: no  separated: no")
        assert not any("probe" in ln for ln in lines)


def test_summary_flags_end_to_end_metrics_worse_beyond_their_bound():
    # bounds from BENCHMARK.json as a fraction of the parent median: setup_s and
    # cell_p50_s 0.25, peak_rss_mb 0.1; a per-layer metric has no bound
    def metrics(setup, cell, rss, calls):
        return {"setup_s": {"value": setup}, "cell_p50_s": {"value": cell},
                "peak_rss_mb": {"value": rss}, "jpta.solve_calls": {"value": calls}}

    runs = [{"workload": workload, "seed": seed, "trace": 0, "order": 1, "side": side,
             "result": {"metrics": metrics(*values)}}
            for workload, parent, change in (
                ("genie_offset", (1.0, 1.0, 100.0, 10), (1.3, 1.2, 111.0, 99)),
                ("pattern_full", (1.0, 1.0, 100.0, 10), (0.5, 1.0, 105.8, 10)))
            for seed in (1, 2) for side, values in (("parent", parent), ("change", change))]
    lines = bench_pairs.summarize({"runs": runs})
    assert lines[0] == "genie_offset trace 0: 2 pairs"
    assert lines[5] == "  worse beyond bound: setup_s +30.0%, peak_rss_mb +11.0%"
    assert lines[6] == "pattern_full trace 0: 2 pairs"
    assert lines[11] == "  worse beyond bound: none"
    assert len(lines) == 12


def test_summary_says_whether_every_change_run_beats_every_parent_run():
    # cell_p50_s wins every pair, but its change runs overlap its parent runs (0.06 >
    # 0.04); peak_rss_mb and the higher-is-better objective separate; a tie does not
    def metrics(cell, rss, objective, calls):
        return {"cell_p50_s": {"value": cell}, "peak_rss_mb": {"value": rss},
                "jpta.objective_frac_mean": {"value": objective},
                "jpta.solve_calls": {"value": calls}}

    runs = [{"workload": "pattern_full", "seed": seed, "trace": 0, "order": 1, "side": side,
             "result": {"metrics": metrics(*values)}}
            for seed in (1, 2, 3) for side, values in (
                ("parent", (0.04 * seed, 49.6 + 0.1 * seed, 0.90, 10)),
                ("change", (0.02 * seed, 46.7 + 0.1 * seed, 0.95, 10)))]
    separated = {ln.split(":")[0].strip(): ln.split("separated: ")[1].split()[0]
                 for ln in bench_pairs.summarize({"runs": runs}) if "separated: " in ln}
    assert separated == {"cell_p50_s": "no", "peak_rss_mb": "yes",
                         "jpta.objective_frac_mean": "yes", "jpta.solve_calls": "no"}
