#!/usr/bin/env python3
"""slantbeam benchmark: end-to-end and per-layer metrics for three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload genie_offset --seed 3 --seconds 25 --trace 0

The library is imported from ``src/`` of that checkout; nothing needs to be
installed. One serial process with one BLAS thread drives the public API
(the process pool of ``--workers`` is left out: wall-clock scaling on a
couple of shared cores would measure the scheduler). The core count and the
BLAS thread count are recorded with every run.

Workloads (``workloads.WORKLOADS`` says why each was chosen):

* ``genie_offset`` - desk-scale ``offset_range`` cells over all six beams;
  the stepped genie cold-solves JPTA at every offset.
* ``trajectory_full`` - full-scale ``mean_velocity`` cells without the
  stepped genie; solver and capacity evaluation split the time.
* ``pattern_full`` - ``slantbeam pattern --full`` commands: heatmaps over
  angle written as 1.7M CSV rows (71 MB) per command. The files go to
  ``.perfbench_out/`` inside the checkout, so the time depends on the local
  disk and page cache; each command's files are deleted once checked.

A run measures set-up in fresh interpreters, re-runs a fixed slice at the
workload's default seed and compares it with ``reference/``, then repeats
the workload at ``--seed`` for about ``--seconds`` seconds. Every output is
checked: invariants on every seed, bitwise repeatability across repeats, the
reference wherever the default seed runs. The last line of stdout is one
JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1`` (which alternates untraced and traced repeats). A full record,
with the spans of a traced run, goes to ``.perfbench_out/``.

``--write-reference`` records the default seed's outputs under
``reference/`` instead; run it only on a commit whose outputs are trusted.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

# Cells of the default seed kept in a sweep's reference file.
REFERENCE_CELLS = 9

END_TO_END = {
    "setup_s": "s",
    "cell_p50_s": "s",
    "peak_rss_mb": "MB",
}


def cap_blas_threads() -> int:
    """Pin BLAS to one thread; must run before numpy loads.

    The solver's matrix products are small: on two shared cores a second
    OpenBLAS thread gave the same wall time, twice the CPU time and twice the
    run-to-run spread (it spins while it waits).
    """
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def import_library() -> None:
    """Import slantbeam from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "slantbeam" / "__init__.py").is_file():
        print(f"perfbench: no slantbeam sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import slantbeam

    if Path(slantbeam.__file__).resolve().parent != (src / "slantbeam").resolve():
        print(f"perfbench: imported slantbeam from {slantbeam.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def src_digest() -> str:
    """Digest of the library sources; identifies the code where git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "slantbeam").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        revision = proc.stdout.strip() or None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision,
        "src_sha256": src_digest(),
    }


SETUP_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
spec = json.loads(sys.argv[1])
import slantbeam
from slantbeam import config, montecarlo
t1 = time.perf_counter()
cfg = config.parse_config(overrides=spec["sets"], desk=not spec["full"])
t2 = time.perf_counter()
if spec["axis"] is None:
    cfg.base_trial(beams=spec["beams"])
else:
    sweep = cfg.sweep(master_seed=0, axis=spec["axis"], values=spec["values"], beams=spec["beams"])
    base = cfg.base_trial(beams=sweep.beams)
    [montecarlo.apply_axis(base, sweep.axis, v) for v in sweep.values]
t3 = time.perf_counter()
print(json.dumps({"setup_s": t3 - t0, "parse_config_s": t2 - t1}))
"""


def measure_setup(wl, sets: tuple, repeats: int) -> tuple[list, list]:
    """Import slantbeam, parse the config (with overrides ``sets``) and build
    the trial configs in ``repeats`` fresh interpreters; returns set-up and
    parse_config times."""
    spec = json.dumps({"sets": list(sets), "full": wl.full, "axis": wl.axis,
                       "values": list(wl.values), "beams": list(wl.beams)})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    setup, parse = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, spec], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        setup.append(doc["setup_s"])
        parse.append(doc["parse_config_s"])
    return setup, parse


def reference_path(name: str, scale: str) -> Path:
    return HERE / "reference" / (f"{name}.json" if scale == "full" else f"{name}.{scale}.json")


def write_reference(wl, scale, runner) -> Path:
    """Record the default seed's outputs: the first REFERENCE_CELLS cells, or
    sampled gains of the first pattern command."""
    from checks import pattern_reference
    from workloads import DEFAULT_SEED

    count = REFERENCE_CELLS if wl.command == "sweep" else 1
    units = [runner.run(seed, key) for seed, key in itertools.islice(wl.stream(DEFAULT_SEED), count)]
    bad = [u.errors for u in units if u.errors]
    if bad:
        raise RuntimeError(f"reference run failed its checks: {bad}")
    if wl.command == "sweep":
        outputs = {f"{v:g}/{t}": u.output for u in units for v, t in [u.key]}
    else:
        outputs = {b: pattern_reference(units[0].out / f"pattern_{b}.csv", DEFAULT_SEED)
                   for b in wl.beams}
    path = reference_path(wl.name, scale)
    path.parent.mkdir(exist_ok=True)
    doc = {"workload": wl.name, "seed": DEFAULT_SEED, "scale": scale,
           "src_sha256": src_digest(), "outputs": outputs}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def measure(runner, wl, seed, seconds, tracer, patches) -> tuple[list, list]:
    """Run the stream of units at ``seed`` until ``wl.min_units`` are done
    and the next one, at the mean length so far, would end after
    ``seconds``. With a tracer, every unit also runs traced, first on odd
    units and second on even ones (a repeat runs a little faster), and must
    give the same output."""

    def run_traced(unit_seed, key):
        mark = patches.mark()
        tracer.install(patches)
        try:
            return runner.run(unit_seed, key, tracer)
        finally:
            patches.restore(mark)

    units, traced = [], []
    start = time.perf_counter()
    for index, (unit_seed, key) in enumerate(wl.stream(seed)):
        twin = run_traced(unit_seed, key) if tracer is not None and index % 2 else None
        unit = runner.run(unit_seed, key)
        units.append(unit)
        if tracer is not None:
            twin = twin or run_traced(unit_seed, key)
            if twin.output != unit.output:
                twin.errors.append("traced output differs from the untraced one")
            runner.drop(twin)
            traced.append(twin)
        if index > 0:  # the first unit's files stay for the full check
            runner.drop(unit)
        elapsed = time.perf_counter() - start
        if len(units) >= wl.min_units and elapsed * (1 + 1 / len(units)) > seconds:
            return units, traced


def execute(args) -> int:
    blas_threads = cap_blas_threads()
    import_library()
    from tracing import Patches, SolveLog, Tracer, per_layer
    from workloads import DEFAULT_SEED, SMOKE_SETS, WORKLOADS, Runner, workload_sizes

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    sets = SMOKE_SETS if args.scale == "smoke" else ()
    work = OUT_DIR / f"work-{os.getpid()}"
    if args.write_reference:
        try:
            print(f"wrote {write_reference(wl, args.scale, Runner(wl, sets, work, {}, None))}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    try:
        reference = json.loads(reference_path(wl.name, args.scale).read_text())["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read the reference outputs: {exc}", file=sys.stderr)
        return 2
    env = environment(blas_threads)
    sizes = workload_sizes(wl, wl.config(sets))
    setup_s, parse_s = measure_setup(wl, wl.sets + sets,
                                     SETUP_REPEATS if args.scale == "full" else 1)

    patches = Patches()
    solve_log = SolveLog()
    if not solve_log.install(patches):
        solve_log = None
    tracer = Tracer() if args.trace else None
    try:
        runner = Runner(wl, sets, work, reference, solve_log)
        ref_units = [runner.run(seed, key, beams=wl.reference_beams)
                     for seed, key in itertools.islice(wl.stream(DEFAULT_SEED), wl.reference_units)]
        units, traced = measure(runner, wl, args.seed, args.seconds, tracer, patches)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if wl.command == "pattern":
            for unit in ref_units + units[:1]:
                runner.check_pattern(unit)
    finally:
        patches.restore()
        shutil.rmtree(work, ignore_errors=True)

    sizes["units"] = len(units)
    checked = ref_units + units + traced
    failed = [u for u in checked if u.errors]
    for u in failed[:10]:
        print(f"perfbench: failed unit {u.seed} {u.key}: {'; '.join(u.errors)}", file=sys.stderr)
    checks = {
        "failed_frac": len(failed) / len(checked),
        "output_max_rel_err": max(u.rel_err for u in checked),
    }
    e2e = {
        "setup_s": statistics.median(setup_s),
        "cell_p50_s": statistics.median(u.seconds for u in units),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        metrics = per_layer(tracer, [u.seconds for u in traced], [u.seconds for u in units],
                            parse_s, checks)
    else:
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END.items()}

    def rows(us):
        return [[u.seed, list(u.key), u.seconds] for u in us]

    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "environment": env, "sizes": sizes,
        "setup_s": setup_s, "parse_config_s": parse_s,
        "reference_units": rows(ref_units), "units": rows(units), "traced_units": rows(traced),
        "checks": checks, "end_to_end": e2e,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "failures": [[u.seed, list(u.key), u.errors] for u in failed],
        "missing_wraps": sorted(patches.missing),
    }
    if args.trace:
        record["trace"] = tracer.to_json()
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record) + "\n")

    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# sizes {json.dumps(sizes, sort_keys=True)}")
    print(f"# {len(units)} units at seed {args.seed} ({len(traced)} more traced), "
          f"{len(ref_units)} at the default seed; record in {record_path.relative_to(ROOT)}")
    print(f"# failed_frac {checks['failed_frac']:.6g} ratio")
    print(f"# output_max_rel_err {checks['output_max_rel_err']:.6g} ratio")
    for name, value in e2e.items():
        print(f"# {name} {value:.6g} {END_TO_END[name]}" + (" (untraced)" if args.trace else ""))
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"# {name} {'null' if value is None else format(value, '.6g')} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every workload, for the smoke test")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default seed's outputs under reference/ and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return execute(args)


if __name__ == "__main__":
    sys.exit(main())
