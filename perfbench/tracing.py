"""In-process tracing of one CLI run: spans around the calls into each layer.

The spans are recorded from the benchmark's side. Each traced function is
replaced, in every loaded ``fmds`` module that holds it, by a wrapper that
records a span (name, function, start, end, parent span, run id) and the
work counts at that boundary. The originals are restored when the run ends.
Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import functools
import inspect
import os
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager

MIB = 1024.0 * 1024.0
ROOT_SPAN = "cli.main"


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _count_tensor(key):
    def count(counts, bound, result):
        counts[key] += result.num_times * _pairs(result.n)
    return count


def _count_fit(counts, bound, result):
    counts["fitting.epochs_run"] += result.epochs_run
    counts["fitting.pair_updates"] += result.epochs_run * _pairs(result.coefficients.n)


def _count_written(counts, bound, result):
    path = bound.arguments.get("path")
    if path is not None and os.path.exists(path):
        counts["io.bytes_written"] += os.path.getsize(path)


# (span name, module, attribute patterns, count hook). Every public call the
# CLI path makes into a layer is covered; the per-epoch stress evaluation is
# the private helper ``fit`` calls, since no public call isolates it.
TARGETS = (
    ("io.ingest_tensor", "fmds.io", ("ingest_tensor",), _count_tensor("io.tensor_rows")),
    ("io.ingest_panel", "fmds.io", ("ingest_panel",), None),
    ("io.write", "fmds.io", ("write_*",), _count_written),
    ("dissimilarity.rolling_tensor", "fmds.dissimilarity", ("rolling_dissimilarity_tensor",),
     _count_tensor("dissimilarity.pairs")),
    ("cmds.classical_mds", "fmds.cmds", ("classical_mds",), None),
    ("bspline.basis_matrix", "fmds.bspline", ("basis_matrix",),
     lambda counts, bound, result: counts.update({"bspline.basis_points": len(result.values)})),
    ("fitting.fit", "fmds.fitting", ("fit",), _count_fit),
    ("fitting.init_from_cmds", "fmds.fitting", ("init_from_cmds",), None),
    ("fitting.stress", "fmds.fitting", ("_stress_value",), None),
    ("fitting.evaluate_trajectories", "fmds.fitting", ("evaluate_trajectories",), None),
    ("svgplot.render", "fmds.svgplot", ("*_svg",), None),
)


def _resolve(module_name: str, patterns) -> list:
    module = sys.modules[module_name]
    return [
        value for attr, value in sorted(vars(module).items())
        if inspect.isfunction(value) and value.__module__ == module_name
        and any(fnmatch.fnmatchcase(attr, p) for p in patterns)
    ]


@contextmanager
def replaced(wrappers: dict):
    """Swap each original function for its wrapper in every loaded fmds module.

    ``wrappers`` maps id(original) to (original, wrapper). Names bound by
    ``from .x import f`` are swapped too, so every caller sees the wrapper.
    """
    saved = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "fmds" or name.startswith("fmds."))]
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    saved.append((module, attr, value))
                    setattr(module, attr, entry[1])
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


class Tracer:
    """Collects spans and per-run work counts across traced CLI runs."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.missing: list[str] = []
        self.fit_call = None
        self._stack: list[int] = []
        self._run = 0

    @contextmanager
    def span(self, name: str, function: str):
        record = {"id": len(self.spans), "name": name, "function": function,
                  "parent": self._stack[-1] if self._stack else None, "run": self._run}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, fn.__name__):
                result = fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            if count is not None:
                count(self.counts[self._run], bound, result)
            if name == "fitting.fit":
                self.fit_call = (fn, bound)
            return result

        return traced

    def _wrappers(self) -> dict:
        wrappers = {}
        for name, module, patterns, count in TARGETS:
            functions = _resolve(module, patterns)
            if not functions and name not in self.missing:
                self.missing.append(name)
            for fn in functions:
                wrappers[id(fn)] = (fn, self._wrap(name, fn, count))
        return wrappers

    def run(self, run_id: int, main, argv: list[str]) -> int:
        """Call ``main(argv)`` with every target traced, under one root span."""
        self._run = run_id
        with replaced(self._wrappers()), self.span(ROOT_SPAN, main.__name__):
            return main(argv)


def _span_totals(spans: list[dict]):
    """Per span name: total duration, call count and total self time."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    total, calls, self_time = defaultdict(float), Counter(), defaultdict(float)
    for s in spans:
        duration = s["end"] - s["start"]
        total[s["name"]] += duration
        calls[s["name"]] += 1
        self_time[s["name"]] += duration - child_time[s["id"]]
    return total, calls, self_time


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[dict], counts: Counter, wall_s: float, setup_s: float) -> dict:
    """Per-layer metrics of one traced run.

    ``wall_s`` and ``setup_s`` are the untraced medians of the same
    workload, used for the glue cost and the tracing overhead.
    """
    total, calls, self_time = _span_totals(spans)
    root = next(s for s in spans if s["name"] == ROOT_SPAN)
    root_s = root["end"] - root["start"]
    top_level_s = sum(s["end"] - s["start"] for s in spans if s["parent"] == root["id"])
    adam_s = self_time["fitting.fit"]
    pair_updates = counts["fitting.pair_updates"]
    stress_calls = calls["fitting.stress"]
    slices = calls["cmds.classical_mds"]
    return {
        "io.ingest_tensor_s": total["io.ingest_tensor"],
        "io.ingest_tensor_rows_per_s": _rate(counts["io.tensor_rows"], total["io.ingest_tensor"]),
        "io.ingest_panel_s": total["io.ingest_panel"],
        "io.write_s": total["io.write"],
        "io.bytes_written": counts["io.bytes_written"],
        "svgplot.render_s": total["svgplot.render"],
        "svgplot.files": calls["svgplot.render"],
        "dissimilarity.rolling_tensor_s": total["dissimilarity.rolling_tensor"],
        "dissimilarity.pairs_per_s": _rate(counts["dissimilarity.pairs"],
                                           total["dissimilarity.rolling_tensor"]),
        "cmds.classical_mds_s": total["cmds.classical_mds"],
        "cmds.us_per_slice": 1e6 * total["cmds.classical_mds"] / slices if slices else 0.0,
        "fitting.init_from_cmds_s": total["fitting.init_from_cmds"],
        "bspline.basis_matrix_s": total["bspline.basis_matrix"],
        "bspline.basis_points_per_s": _rate(counts["bspline.basis_points"],
                                            total["bspline.basis_matrix"]),
        "fitting.fit_s": total["fitting.fit"],
        "fitting.adam_s": adam_s,
        "fitting.us_per_pair_update": 1e6 * adam_s / pair_updates if pair_updates else 0.0,
        "fitting.pair_updates_per_s": _rate(pair_updates, wall_s),
        "fitting.stress_s": total["fitting.stress"] / stress_calls if stress_calls else 0.0,
        "fitting.evaluate_trajectories_s": total["fitting.evaluate_trajectories"],
        "fitting.epochs_run": counts["fitting.epochs_run"],
        "fitting.pair_updates": pair_updates,
        "io.tensor_rows": counts["io.tensor_rows"],
        "dissimilarity.pairs": counts["dissimilarity.pairs"],
        "cmds.slices": slices,
        "bspline.basis_points": counts["bspline.basis_points"],
        "cli.unaccounted_s": wall_s - setup_s - top_level_s,
        "trace.overhead_pct": 100.0 * ((setup_s + root_s) / wall_s - 1.0),
    }


def dominant_layer(spans: list[dict]) -> tuple[str, float]:
    """The layer metric with the largest self time in one traced run.

    The self time of ``fitting.fit`` is the Adam loop, reported as
    ``fitting.adam_s``; the root span's self time is the CLI glue.
    """
    _, _, self_time = _span_totals(spans)
    names = {"fitting.fit": "fitting.adam_s", ROOT_SPAN: "cli.unaccounted_s"}
    name = max(self_time, key=self_time.get)
    return names.get(name, name + "_s"), self_time[name]


def memory_pass(fit_call, epochs: int = 2) -> tuple[float, float]:
    """Peak traced memory of one fit and of its worst stress evaluation, in MiB.

    Repeats the last traced fit under tracemalloc with its epoch budget cut
    to ``epochs``: each epoch frees its temporaries, so the peak is reached
    in the warm start and the first epochs, and the cut keeps tracemalloc's
    slowdown out of the run's time budget.
    """
    fn, bound = fit_call
    config = bound.arguments["config"]
    bound.arguments["config"] = dataclasses.replace(
        config, max_epochs=min(config.max_epochs, epochs))

    stress_peaks = [0]
    state = {"fit_peak": 0}

    def measured(stress_fn):
        @functools.wraps(stress_fn)
        def wrapper(*a, **kw):
            before, peak = tracemalloc.get_traced_memory()
            state["fit_peak"] = max(state["fit_peak"], peak)
            tracemalloc.reset_peak()
            try:
                return stress_fn(*a, **kw)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                stress_peaks.append(peak - before)
                state["fit_peak"] = max(state["fit_peak"], peak)
        return wrapper

    stress_fns = [f for name, module, patterns, _ in TARGETS if name == "fitting.stress"
                  for f in _resolve(module, patterns)]
    tracemalloc.start()
    try:
        with replaced({id(f): (f, measured(f)) for f in stress_fns}):
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn(*bound.args, **bound.kwargs)
            fit_peak = max(state["fit_peak"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return (fit_peak - baseline) / MIB, max(stress_peaks) / MIB
