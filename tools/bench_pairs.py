#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and summarize the pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_9.json \\
        --runs trajectory_full=1-10,97 genie_offset=1-3 --seconds 25 --trace 0 \\
        --parent 4175ebe --change "what the change does"

PARENT_DIR and CHANGE_DIR are two source checkouts, for example ``git archive``
of each commit unpacked into a fresh directory. For every (workload, seed)
given by ``--runs``, ``perfbench/run.py`` runs once in each directory, one
after the other. The side that runs first alternates from pair to pair, so a
drift in machine load does not favour one side. Runs are serial: one
benchmark process at a time.

The result line of every run (the last line of its stdout, one JSON object)
is kept whole in OUT, laid out as ``BENCH_6.json``: a header (change, parent,
command, environment, protocol) and a ``runs`` list of ``{workload, seed,
trace, order, side, result}``. ``--append`` adds the new runs to those
already in OUT. Without ``--runs`` nothing runs, and OUT is summarized as it
is.

Before the first pair and after the last, a machine-speed probe times a fixed
numpy-only kernel in a child interpreter with one BLAS thread, best of 7: a
seeded (256, 1200) by (1200, 32) complex64 product and the complex ``exp`` of a
(32, 1200) array. The kernel does not depend on the code under test, so its
time shows how fast the machine ran: two BENCH files compare only as far as
their probes agree. The header's ``probe_s`` keeps the ``before`` and
``after`` timings in seconds, and ``--append`` adds to both lists.

The summary gives the probe timings and, per workload, trace mode and metric:
the median and quartiles of each side, the change of the medians, how many
pairs the change wins (by the metric's direction in ``BENCHMARK.json``), and
whether the gap between the medians exceeds the parent's interquartile range,
and whether the runs are ``separated``: every change run better than every
parent run, the rule to read a metric by when its spread is wider than its bound.
Each workload and trace mode ends with ``worse beyond bound: …``, the end-to-end
metrics whose change median is worse than the parent median by more than the
metric's ``bound`` in ``BENCHMARK.json``, read as a fraction of the parent
median (or ``none``).
When OUT has probe timings, a metric in seconds also gives both medians in
probe units, ``in probe units: parent … change …``: each median divided by the
median of all the file's probe timings, before and after together, so that
medians from two BENCH files can be read on one scale.

Exit status: 0 when every run printed a JSON result line; 1 when one did not
(its output goes to stderr, and OUT keeps the runs before it); 2 on bad
arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 perfbench/run.py --workload <workload> --seed <seed> --seconds <seconds> --trace <trace>"
ENV_KEYS = ("cores", "blas_threads", "python", "numpy", "scipy")
SIDES = ("parent", "change")
PROBE = """
import time
import numpy as np
rng = np.random.default_rng(0)
a = (rng.normal(size=(256, 1200)) + 1j * rng.normal(size=(256, 1200))).astype(np.complex64)
b = (rng.normal(size=(1200, 32)) + 1j * rng.normal(size=(1200, 32))).astype(np.complex64)
z = 1j * rng.uniform(-np.pi, np.pi, (32, 1200))
best = float("inf")
for _ in range(7):
    start = time.perf_counter()
    a @ b
    np.exp(z)
    best = min(best, time.perf_counter() - start)
print(best)
"""


class RunFailed(RuntimeError):
    pass


def parse_seeds(text: str) -> list:
    """``1-10,97`` -> [1, ..., 10, 97]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_runs(items) -> list:
    """``workload=seeds`` items -> [(workload, seed), ...] in the given order."""
    pairs = []
    for item in items:
        workload, sep, seeds = item.partition("=")
        if not sep or not workload:
            raise ValueError(f"--runs item {item!r}: expected workload=seeds")
        pairs.extend((workload, seed) for seed in parse_seeds(seeds))
    return pairs


def run_side(directory: Path, workload: str, seed: int, seconds: float, trace: int):
    """One benchmark run; returns (result, environment) or raises RunFailed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=directory, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if not isinstance(result, dict):
            raise ValueError("not a JSON object")
    except (IndexError, ValueError) as exc:
        raise RunFailed(f"{directory}: {' '.join(cmd[1:])}: exit {proc.returncode}, "
                        f"no JSON result line ({exc})\n--- stdout\n{proc.stdout[-2000:]}"
                        f"\n--- stderr\n{proc.stderr[-2000:]}") from None
    env = {}
    for line in lines:
        if line.startswith("# environment "):
            env = {k: v for k, v in json.loads(line[len("# environment "):]).items()
                   if k in ENV_KEYS}
    return result, env


def machine_probe() -> float:
    """Seconds the probe kernel takes, best of 7, in a child interpreter."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=env, check=True)
    return float(proc.stdout)


def run_pairs(dirs: dict, pairs: list, seconds: float, trace: int, doc: dict, out: Path,
              first_pair: int) -> None:
    """Run every pair, writing OUT after each one."""
    for index, (workload, seed) in enumerate(pairs, start=first_pair):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order, start=1):
            print(f"bench_pairs: {workload} seed {seed} trace {trace}: {side}", file=sys.stderr)
            result, env = run_side(dirs[side], workload, seed, seconds, trace)
            doc["environment"] = {**env, **doc["environment"]}
            doc["runs"].append({"workload": workload, "seed": seed, "trace": trace,
                                "order": position, "side": side, "result": result})
        out.write_text(json.dumps(doc, indent=1) + "\n")


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def metric_specs() -> dict:
    """``BENCHMARK.json``'s metrics by name, each with its ``unit`` and ``better``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(doc: dict) -> list:
    """One text line per (workload, trace, metric) present on both sides."""
    specs = metric_specs()
    probe = doc.get("probe_s", {})
    lines = [f"machine probe: {when} " + ", ".join(f"{t * 1e3:.3f} ms" for t in probe[when])
             for when in ("before", "after") if probe.get(when)]
    timings = probe.get("before", []) + probe.get("after", [])
    probe_unit = statistics.median(timings) if timings else None
    groups = {}
    for run in doc["runs"]:
        key = (run["workload"], run["trace"], run["seed"])
        groups.setdefault(key, {})[run["side"]] = run["result"]["metrics"]
    for workload, trace in sorted({k[:2] for k in groups}):
        paired = [g for k, g in sorted(groups.items()) if k[:2] == (workload, trace)
                  and set(g) == set(SIDES)]
        names = [n for n in paired[0]["change"] if n in specs] if paired else []
        lines.append(f"{workload} trace {trace}: {len(paired)} pairs")
        worse = []
        for name in names:
            values = [(g["parent"][name]["value"], g["change"][name]["value"]) for g in paired
                      if g["parent"].get(name, {}).get("value") is not None
                      and g["change"].get(name, {}).get("value") is not None]
            if not values:
                continue
            sign = 1.0 if specs[name]["better"] == "lower" else -1.0
            wins = sum(sign * (c - p) < 0 for p, c in values)
            p1, pm, p3 = quartiles([p for p, _ in values])
            c1, cm, c3 = quartiles([c for _, c in values])
            rel = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
            resolved = "yes" if abs(cm - pm) > p3 - p1 else "no"
            separated = "yes" if max(sign * c for _, c in values) < min(
                sign * p for p, _ in values) else "no"
            line = (f"  {name}: parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} "
                    f"[{c1:.6g}, {c3:.6g}]  median {rel}  wins {wins}/{len(values)}  "
                    f"gap > parent IQR: {resolved}  separated: {separated}")
            if probe_unit and specs[name]["unit"] == "s":
                line += (f"  in probe units: parent {pm / probe_unit:.4g}  "
                         f"change {cm / probe_unit:.4g}")
            lines.append(line)
            if "bound" in specs[name] and pm and sign * (cm - pm) / pm > specs[name]["bound"]:
                worse.append(f"{name} {rel}")
        lines.append(f"  worse beyond bound: {', '.join(worse) or 'none'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--runs", nargs="*", default=[], metavar="WORKLOAD=SEEDS",
                        help="for example trajectory_full=1-10,97")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append", action="store_true", help="add to the runs already in OUT")
    parser.add_argument("--parent", default=None, help="label of the parent commit")
    parser.add_argument("--change", default=None, help="one line on what the change does")
    parser.add_argument("--machine", default=None, help="one line on the machine")
    parser.add_argument("--protocol", default=None, help="how the runs were chosen")
    args = parser.parse_args(argv)
    try:
        pairs = parse_runs(args.runs)
    except ValueError as exc:
        parser.error(str(exc))
    dirs = {"parent": args.parent_dir, "change": args.change_dir}
    for side, directory in dirs.items():
        if pairs and not (directory / "perfbench" / "run.py").is_file():
            parser.error(f"{side} directory {directory} has no perfbench/run.py")

    if args.append or not pairs:
        doc = json.loads(args.out.read_text())
    else:
        doc = {"change": None, "parent": None, "command": COMMAND, "environment": {},
               "protocol": None, "probe_s": {"before": [], "after": []}, "runs": []}
    for key in ("change", "parent", "protocol"):
        if getattr(args, key) is not None:
            doc[key] = getattr(args, key)
    if args.machine is not None:
        doc["environment"]["machine"] = args.machine
    first_pair = len({(r["workload"], r["seed"], r["trace"]) for r in doc["runs"]})
    status = 0
    if pairs:
        probe = doc.setdefault("probe_s", {"before": [], "after": []})
        probe["before"].append(machine_probe())
        try:
            run_pairs(dirs, pairs, args.seconds, args.trace, doc, args.out, first_pair)
        except RunFailed as exc:
            print(f"bench_pairs: {exc}", file=sys.stderr)
            status = 1
        probe["after"].append(machine_probe())
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print("\n".join(summarize(doc)))
    return status


if __name__ == "__main__":
    sys.exit(main())
