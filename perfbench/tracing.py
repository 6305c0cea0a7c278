"""Spans and counters recorded around calls into slantbeam's layers.

Wrappers are installed in the namespace of the *caller* (for example
``slantbeam.designs.jpta_solve``, which is the name ``designs._solve_anchor``
looks up), because a module that did ``from .jpta import jpta_solve`` never
sees a patch applied to ``slantbeam.jpta``. A span's name starts with the
layer it measures (``jpta.solve``, ``arrays.gain_profile``, ...).

Spans live in memory as parallel lists and are written out once the run
ends. A span's self time is its duration minus the time its child spans
cover; on one thread children never overlap, so that is the duration minus
the children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter


def _record_solve(tracer, args, kwargs, report):
    profile = args[0] if args else kwargs["profile"]
    k = profile.cfg.num_subcarriers
    tracer.count("jpta.iterations", report.iterations)
    tracer.count("jpta.nonconverged", 0 if report.converged else 1)
    tracer.objective_fracs.append(report.objective / k)


def _record_eval_points(tracer, args, kwargs, record):
    tracer.count("link.eval_points", record.num_eval_points)


def _record_csv_bytes(tracer, args, kwargs, result):
    tracer.count("cli.csv_bytes", os.path.getsize(args[0]))


# (caller module, attribute, span name, hook run on the result)
WRAPS = (
    ("montecarlo", "sample_scenario", "mobility.sample_scenario", None),
    ("montecarlo", "true_aod", "mobility.true_aod", None),
    ("designs", "anchor_selection", "mobility.anchor_selection", None),
    ("montecarlo", "design_slanted", "designs.slanted", None),
    ("montecarlo", "design_slanted_at", "designs.slanted", None),
    ("montecarlo", "design_stepped", "designs.stepped", None),
    ("montecarlo", "design_rainbow", "designs.fixed", None),
    ("montecarlo", "design_qpd", "designs.fixed", None),
    ("designs", "genie_stepped", "designs.genie_stepped", None),
    ("designs", "jpta_solve", "jpta.solve", _record_solve),
    ("montecarlo", "min_capacity", "link.min_capacity", _record_eval_points),
    ("link", "gain_profile", "arrays.gain_profile", None),
    ("designs", "awv_matrix", "arrays.awv_matrix", None),
    ("designs", "response_matrix", "arrays.response_matrix", None),
    ("cli", "parse_config", "config.parse_config", None),
    ("cli", "run_trial", "montecarlo.run_trial", None),
    ("cli", "pattern_heatmap", "arrays.pattern_heatmap", None),
    ("cli", "write_heatmap_csv", "cli.write_csv", _record_csv_bytes),
    ("cli", "write_manifest", "cli.write_manifest", None),
)

LAYERS = ("config", "mobility", "jpta", "designs", "link", "arrays", "montecarlo", "cli")


class Patches:
    """Attribute replacements that are undone in reverse order.

    ``missing`` names the attributes that were not found (and warned about
    once); it survives ``restore`` so a later install does not warn again.
    """

    def __init__(self):
        self._saved = []
        self.missing = set()

    def replace(self, module_name, attr, make_wrapper):
        module = importlib.import_module(f"slantbeam.{module_name}")
        original = getattr(module, attr, None)
        if original is None:
            if f"{module_name}.{attr}" not in self.missing:
                print(f"perfbench: warning: slantbeam.{module_name}.{attr} not found; "
                      "metrics that depend on it are reported as null", file=sys.stderr)
            self.missing.add(f"{module_name}.{attr}")
            return False
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))
        return True

    def mark(self) -> int:
        return len(self._saved)

    def restore(self, mark: int = 0):
        """Undo the replacements made since ``mark`` (all of them by default)."""
        while len(self._saved) > mark:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class SolveLog:
    """Keeps every solver report so the run can check its invariants.

    Installed in traced and untraced runs alike: one list append per solve,
    against solves that take tens of milliseconds.
    """

    def __init__(self):
        self.entries = []  # (num_subcarriers, SolverReport)

    def install(self, patches: Patches) -> bool:
        def make(original):
            @functools.wraps(original)
            def logged(*args, **kwargs):
                report = original(*args, **kwargs)
                profile = args[0] if args else kwargs["profile"]
                self.entries.append((profile.cfg.num_subcarriers, report))
                return report
            return logged

        return patches.replace("designs", "jpta_solve", make)

    def take(self) -> list:
        out, self.entries = self.entries, []
        return out


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.cells = []
        self._stack = []
        self.cell = None
        self.counters = defaultdict(float)
        self.objective_fracs = []
        self.missing_spans = set()

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.cells.append(self.cell)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def count(self, name: str, amount=1):
        self.counters[name] += amount

    def install(self, patches: Patches):
        """Wrap every entry of WRAPS; note span names whose wrapper is missing."""
        for module_name, attr, span, hook in WRAPS:
            if not patches.replace(module_name, attr,
                                   lambda fn, span=span, hook=hook: self._wrap(fn, span, hook)):
                self.missing_spans.add(span)

    def _wrap(self, fn, span, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out
        return traced

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self):
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start_s", "end_s", "parent", "cell"],
            "spans": [
                [n, s, e, p, c]
                for n, s, e, p, c in zip(self.names, self.starts, self.ends, self.parents, self.cells)
            ],
        }


@contextlib.contextmanager
def span(tracer, name):
    """A span around a call the benchmark makes itself; nothing without a tracer."""
    if tracer is None:
        yield
        return
    idx = tracer.open(name)
    try:
        yield
    finally:
        tracer.close(idx)


def per_layer(tracer: Tracer, traced_s, untraced_s, parse_config_s, checks) -> dict:
    """Per-layer metrics, name -> (value, unit).

    ``traced_s`` and ``untraced_s`` are the wall times of the same units run
    traced and untraced. Counts and times are per unit: totals over the
    traced units divided by their number. A metric whose span could not be
    installed is None. ``share.<layer>`` is the layer's self time over the
    traced units' time; with ``share.unattributed`` (benchmark code outside
    every span) they sum to 1.
    """
    n = len(traced_s)
    total = sum(traced_s)
    busy, own_by_name, calls = defaultdict(float), defaultdict(float), Counter()
    layer_self = defaultdict(float)
    solve_ms = []
    for name, d, own in zip(tracer.names, tracer.durations(), tracer.self_times()):
        busy[name] += d
        own_by_name[name] += own
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own
        if name == "jpta.solve":
            solve_ms.append(d * 1e3)
    count = tracer.counters
    fracs = tracer.objective_fracs
    rows = [
        ("jpta.solve_calls", "count", ["jpta.solve"], calls["jpta.solve"] / n),
        ("jpta.solve_s", "s", ["jpta.solve"], busy["jpta.solve"] / n),
        ("jpta.solve_p50_ms", "ms", ["jpta.solve"], statistics.median(solve_ms) if solve_ms else 0.0),
        ("jpta.iterations", "count", ["jpta.solve"], count["jpta.iterations"] / n),
        ("jpta.nonconverged", "count", ["jpta.solve"], count["jpta.nonconverged"] / n),
        ("jpta.objective_frac_mean", "ratio", ["jpta.solve"],
         statistics.fmean(fracs) if fracs else 0.0),
        ("designs.slanted_s", "s", ["designs.slanted"], busy["designs.slanted"] / n),
        ("designs.stepped_s", "s", ["designs.stepped"], busy["designs.stepped"] / n),
        ("designs.fixed_s", "s", ["designs.fixed"], busy["designs.fixed"] / n),
        ("designs.genie_stepped_s", "s", ["designs.genie_stepped"], busy["designs.genie_stepped"] / n),
        ("designs.genie_stepped_calls", "count", ["designs.genie_stepped"],
         calls["designs.genie_stepped"] / n),
        ("link.min_capacity_self_s", "s", ["link.min_capacity"], own_by_name["link.min_capacity"] / n),
        ("link.eval_points", "count", ["link.min_capacity"], count["link.eval_points"] / n),
        ("arrays.gain_profile_s", "s", ["arrays.gain_profile"], busy["arrays.gain_profile"] / n),
        ("arrays.gain_profile_calls", "count", ["arrays.gain_profile"],
         calls["arrays.gain_profile"] / n),
        ("arrays.awv_matrix_s", "s", ["arrays.awv_matrix"], busy["arrays.awv_matrix"] / n),
        ("arrays.pattern_heatmap_s", "s", ["arrays.pattern_heatmap"],
         busy["arrays.pattern_heatmap"] / n),
        ("cli.write_csv_s", "s", ["cli.write_csv"], busy["cli.write_csv"] / n),
        ("cli.csv_bytes", "bytes", ["cli.write_csv"], count["cli.csv_bytes"] / n),
        ("mobility.sample_scenario_s", "s", ["mobility.sample_scenario"],
         busy["mobility.sample_scenario"] / n),
        ("montecarlo.run_trial_self_s", "s", ["montecarlo.run_trial"],
         own_by_name["montecarlo.run_trial"] / n),
        ("config.parse_config_s", "s", [], statistics.median(parse_config_s)),
    ]
    shares = [(f"share.{layer}", "ratio", [], layer_self[layer] / total) for layer in LAYERS]
    rows += shares
    rows += [
        ("share.unattributed", "ratio", [], 1.0 - sum(v for *_, v in shares)),
        ("traced_cell_p50_s", "s", [], statistics.median(traced_s)),
        ("trace_overhead_frac", "ratio", [],
         statistics.median(t / u for t, u in zip(traced_s, untraced_s)) - 1.0),
        ("failed_frac", "ratio", [], checks["failed_frac"]),
        ("output_max_rel_err", "ratio", [], checks["output_max_rel_err"]),
    ]
    return {
        name: (None if any(s in tracer.missing_spans for s in spans) else float(value), unit)
        for name, unit, spans, value in rows
    }
