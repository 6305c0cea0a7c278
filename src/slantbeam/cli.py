"""Command line front end: design, pattern, sweep, and cdf subcommands.

``main`` wraps every run in one envelope: it reads the layered configuration
(defaults, optional desk-scale overlay, config file, ``--set`` overrides),
picks the seed and hashes the config once, runs the command, and writes a
JSON manifest of the seed, the config hash and the artifact names the command
returns. Each artifact goes out through ``_emit``; a CSV starts with a comment
line ``# seed=<seed> config=sha256:<hash>`` tying it back to the manifest.
``sweep`` and ``cdf`` judge every sweep cell before any runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, jpta
from .arrays import pattern_heatmap
from .config import ConfigError, RunConfig, config_hash, parse_config, serialize_config
from .designs import ANALOG_KINDS
from .montecarlo import SWEEP_AXES, design_trial, run_sweep, sweep_cells
from .montecarlo import run_trial  # noqa: F401  perfbench wraps cli.run_trial


def _write_csv(path, seed, cfg_hash, header, chunks):
    """Write a CSV artifact: the ``# seed=… config=sha256:…`` line, the header,
    then ``chunks``, each a string of whole rows already formatted."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# seed={seed} config=sha256:{cfg_hash}\n{header}\n")
        fh.writelines(chunks)


def write_heatmap_csv(path, seed, cfg_hash, thetas_deg, freqs, gains):
    """Angle-major gain map rows: theta_deg,f_hz,gain. f is formatted once per
    file, theta once per angle, and gains become Python floats one row at a time."""
    f_cols = [f",{f!r}," for f in np.asarray(freqs, dtype=float).tolist()]

    def rows():
        thetas = np.asarray(thetas_deg, dtype=float).tolist()
        for theta, row in zip(thetas, np.asarray(gains, dtype=float), strict=True):
            t = repr(theta)
            yield "".join([f"{t}{fc}{g!r}\n" for fc, g in zip(f_cols, row.tolist(), strict=True)])

    _write_csv(path, seed, cfg_hash, "theta_deg,f_hz,gain", rows())


def _write_json(path, doc):
    """Write a JSON artifact: two-space indent, sorted keys, a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_design_json(path, seed, cfg_hash, design, assignment):
    """A design's JSON, its anchor written per user under the trial's ``assignment``."""
    doc = design.to_json_dict(assignment)
    _write_json(path, {**doc, "seed": int(seed), "config_sha256": cfg_hash})


def write_capacity_csv(path, seed, cfg_hash, results, beams):
    """Per-evaluation-point capacities: trial,beam,user,eval_index,capacity_bps."""
    def rows():
        for res in results:
            for beam in beams:
                head = f"{res.trial_id},{beam},"
                caps = res.records[beam].tolist()
                yield "".join([f"{head}{u},{p},{c!r}\n"
                               for p, row in enumerate(caps) for u, c in enumerate(row)])

    _write_csv(path, seed, cfg_hash, "trial,beam,user,eval_index,capacity_bps", rows())


def write_capacity_summary_csv(path, seed, cfg_hash, results, beams):
    """Per-trial minima: trial,beam,min_capacity_bps."""
    rows = (f"{res.trial_id},{beam},{res.min_capacity(beam)!r}\n"
            for res in results for beam in beams)
    _write_csv(path, seed, cfg_hash, "trial,beam,min_capacity_bps", rows)


def write_sweep_csv(path, seed, cfg_hash, result, display_values):
    """Aggregated statistics: axis,axis_value,beam,statistic,value_bps."""
    sweep = result.sweep
    minima = {b: result.minima(b) for b in sweep.beams}
    mins = {b: block.min(axis=1).tolist() for b, block in minima.items()}
    means = {b: block.mean(axis=1).tolist() for b, block in minima.items()}
    heads = [f"{sweep.axis},{dv!r}," for dv in np.asarray(display_values, dtype=float).tolist()]
    rows = (f"{head}{beam},min,{mins[beam][vi]!r}\n{head}{beam},mean_min,{means[beam][vi]!r}\n"
            for vi, head in enumerate(heads) for beam in sweep.beams)
    _write_csv(path, seed, cfg_hash, "axis,axis_value,beam,statistic,value_bps", rows)


def write_cdf_csv(path, seed, cfg_hash, result, display_values):
    """Empirical CDF points: beam,axis_value,capacity_bps,cum_prob. Each (beam,
    value) is the sorted row of ``result.minima(beam)``, sample i of T at i/T."""
    sweep = result.sweep
    probs = (np.arange(1, sweep.trials + 1) / sweep.trials).tolist()
    heads = [f",{dv!r}," for dv in np.asarray(display_values, dtype=float).tolist()]

    def rows():
        for beam in sweep.beams:
            ordered = np.sort(result.minima(beam), axis=1).tolist()
            for head, row in zip(heads, ordered, strict=True):
                yield "".join([f"{beam}{head}{x!r},{pr!r}\n" for x, pr in zip(row, probs)])

    _write_csv(path, seed, cfg_hash, "beam,axis_value,capacity_bps,cum_prob", rows())


def write_manifest(path, seed, cfg_hash, command, cfg: RunConfig, artifacts):
    _write_json(path, {
        "command": command,
        "seed": int(seed),
        "config_sha256": cfg_hash,
        "config": serialize_config(cfg),
        "version": __version__,
        "artifacts": sorted(artifacts),
    })


def _parse_beams(arg):
    """The ``--beams`` list of design/pattern runs, analog kinds only."""
    if arg is None:
        return ANALOG_KINDS
    beams = tuple(b.strip() for b in arg.split(",") if b.strip())
    bad = [b for b in beams if b not in ANALOG_KINDS]
    if bad:
        raise ConfigError(f"--beams: unknown analog beam kinds {bad}; valid: {ANALOG_KINDS}")
    if not beams:
        raise ConfigError("--beams: empty list")
    return beams


def _load_config(args) -> RunConfig:
    """Layered config; a sweep/cdf run's ``--axis/--values/--beams`` and the
    analog beams of a design/pattern run become ``sweep.*`` overrides, so the
    manifest and the hash record what ran. A design/pattern run takes its
    beams from ``--beams`` alone, so ``--set sweep.beams=`` is refused there."""
    sets = list(args.sets)
    if args.command in ("sweep", "cdf"):
        sets += [f"sweep.{key}={getattr(args, key)}" for key in ("axis", "values", "beams")
                 if getattr(args, key) is not None]
    else:
        for item in sets:
            if item.startswith("sweep.beams="):
                raise ConfigError(f"--set {item}: {args.command} takes its beams from --beams")
        sets.append("sweep.beams=" + ",".join(_parse_beams(args.beams)))
    return parse_config(path=args.config, overrides=sets, desk=not args.full)


def _emit(out, name, writer, seed, cfg_hash, *payload):
    """Write one artifact as ``writer(path, seed, cfg_hash, *payload)`` into
    ``out``, report its path, and return its name for the manifest."""
    path = os.path.join(out, name)
    writer(path, seed, cfg_hash, *payload)
    print(f"wrote {path}")
    return name


def cmd_design(args, cfg, seed, h) -> list:
    base = cfg.base_trial()
    trial = design_trial(base, seed, 0)
    return [_emit(args.out, f"design_{kind}.json", write_design_json, seed, h, trial.beams[kind],
                  trial.assignment) for kind in base.beams]


def cmd_pattern(args, cfg, seed, h) -> list:
    base = cfg.base_trial()
    designs = design_trial(base, seed, 0).beams
    jpta._plan.cache_clear()  # nothing below solves: free the plan before the CSVs
    arr = base.array
    thetas_deg = np.arange(-90.0, 90.0 + 0.25, 0.5)
    grid = np.deg2rad(thetas_deg)
    freqs = arr.subcarrier_centers()
    # each heatmap is an argument only, so it is freed once written
    return [_emit(args.out, f"pattern_{kind}.csv", write_heatmap_csv, seed, h, thetas_deg, freqs,
                  pattern_heatmap(designs[kind].weights, grid, arr))
            for kind in base.beams]


def _swept(args, cfg: RunConfig, seed):
    """The sweep run over ``--workers`` processes once every cell is judged
    runnable, so a value that cannot run exits 2 before any trial does."""
    sweep, base = cfg.sweep(master_seed=seed), cfg.base_trial()
    try:
        sweep_cells(sweep, base)
    except ValueError as exc:
        raise ConfigError(f"[sweep] values: {exc}") from exc
    return run_sweep(sweep, base, workers=args.workers)


def cmd_sweep(args, cfg, seed, h) -> list:
    result = _swept(args, cfg, seed)
    return [_emit(args.out, f"sweep_{result.sweep.axis}.csv", write_sweep_csv, seed, h, result,
                  cfg.get("sweep", "values"))]


def cmd_cdf(args, cfg, seed, h) -> list:
    result = _swept(args, cfg, seed)
    sweep = result.sweep
    names = [_emit(args.out, f"cdf_{sweep.axis}.csv", write_cdf_csv, seed, h, result,
                   cfg.get("sweep", "values"))]
    for vi, trials in enumerate(result.cells):
        names += [_emit(args.out, f"capacity_{part}_{vi}.csv", writer, seed, h, trials, sweep.beams)
                  for part, writer in (("detail", write_capacity_csv),
                                       ("summary", write_capacity_summary_csv))]
    return names


def _add_common(sub):
    sub.add_argument("--config", default=None, help="config file path")
    sub.add_argument("--set", dest="sets", action="append", default=[],
                     metavar="SECTION.KEY=VALUE", help="override a config key (repeatable)")
    sub.add_argument("--seed", type=int, default=None, help="master random seed")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--full", action="store_true",
                     help="full-scale defaults instead of the desk-scale overlay")
    sub.add_argument("--beams", default=None, help="comma-separated beam kinds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slantbeam",
        description="Design slanted/stepped/rainbow/quadratic analog beams and "
                    "evaluate their minimum-capacity robustness to user mobility.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_design = subs.add_parser("design", help="emit beam design JSON files")
    _add_common(p_design)
    p_design.set_defaults(func=cmd_design)

    p_pattern = subs.add_parser("pattern", help="emit gain heatmap CSV files")
    _add_common(p_pattern)
    p_pattern.set_defaults(func=cmd_pattern)

    for name, func, help_text in (
        ("sweep", cmd_sweep, "run a parameter sweep, emit statistics CSV"),
        ("cdf", cmd_cdf, "run trials, emit capacity CDF and detail CSVs"),
    ):
        p = subs.add_parser(name, help=help_text)
        _add_common(p)
        p.add_argument("--axis", choices=SWEEP_AXES, default=None)
        p.add_argument("--values", default=None, help="comma-separated axis values")
        p.add_argument("--workers", type=int, default=None)
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("sweep", "cdf") and args.seed is None:
        print("error: --seed is required for sweep and cdf runs", file=sys.stderr)
        return 2
    floors = {"--seed": (args.seed, 0), "--workers": (getattr(args, "workers", None), 1)}
    for flag, (value, low) in floors.items():
        if value is not None and value < low:
            print(f"error: {flag} must be at least {low}, got {value}", file=sys.stderr)
            return 2
    try:
        os.makedirs(args.out, exist_ok=True)
        cfg = _load_config(args)
        seed = args.seed if args.seed is not None else 0
        h = config_hash(cfg)
        artifacts = args.func(args, cfg, seed, h)
        write_manifest(os.path.join(args.out, "run_manifest.json"), seed, h, args.command, cfg,
                       artifacts)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
