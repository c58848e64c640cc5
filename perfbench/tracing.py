"""In-memory spans around the public functions of the drivedml modules.

The tracer replaces every public module-level function of the traced
modules (and ``GbmModel.predict``) with a wrapper that records one span:
name, start, end, parent span and the op it belongs to. A function that
another module imported by name (``from .boosting import fit_gbm``) is
replaced there too, so no call goes unseen. Nothing in the program is
edited; the wrappers live only in the benchmark's process.

Counters are filled from the arguments and return values of the wrapped
calls, at the same boundaries as the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from collections import Counter, defaultdict

# presets and rng are left out: their calls take microseconds and are
# covered by their callers' spans
TRACED_MODULES = (
    "boosting", "cate_tree", "cli", "dml", "io", "report", "signals",
    "simulate", "study_data",
)
ALL_MODULES = TRACED_MODULES + ("presets", "rng", "errors")


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _count_fit_tree(counts, args, kwargs, tree):
    X = _arg(args, kwargs, 0, "X")
    counts["boosting.tree_nodes"] += int(tree.n_nodes)
    counts["boosting.row_feature_visits"] += int(X.shape[0]) * int(X.shape[1])


def _trees_in(model) -> int:
    if model.loss == "squared-error":
        return len(model.trees)
    return sum(len(round_trees) for round_trees in model.trees)


def _flatten(items):
    for item in items:
        if isinstance(item, (list, tuple)):
            yield from _flatten(item)
        else:
            yield item


def _count_fit_dml(counts, args, kwargs, result):
    nuisance = result.nuisance
    # the per-fold models kept on NuisanceFit are due for removal; a
    # missing attribute counts as nothing retained
    models = list(_flatten(getattr(nuisance, "outcome_models", [])))
    models += list(_flatten(getattr(nuisance, "treatment_models", [])))
    counts["dml.models_retained"] += len(models)
    counts["dml.trees_retained"] += sum(_trees_in(m) for m in models)
    counts["dml.estimates"] += len(result.all_estimates())


def _count_cate(counts, args, kwargs, tree):
    counts["cate_tree.nodes"] += len(tree.nodes)


def _count_load(counts, args, kwargs, loaded):
    counts["study_data.rows_loaded"] += len(loaded.records)


def _count_assemble(counts, args, kwargs, table):
    counts["study_data.rows_dropped"] += int(table.n_dropped)


def _count_write(counts, args, kwargs, _):
    text = _arg(args, kwargs, 1, "text")
    counts["report.bytes_written"] += len(text.encode("utf-8"))


def _count_read(counts, args, kwargs, _):
    counts["io.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_extract(counts, args, kwargs, features):
    for key in ("ecg", "eda", "resp"):
        series = kwargs.get(key)
        if series is not None:
            counts["signals.samples_in"] += len(series.samples)
    gaze = kwargs.get("gaze")
    if gaze is not None:
        counts["signals.samples_in"] += len(gaze)
    counts["signals.nonfinite_features"] += sum(
        not math.isfinite(v) for v in features.values()
    )


COUNTERS = {
    "boosting.fit_tree": _count_fit_tree,
    "dml.fit_dml": _count_fit_dml,
    "cate_tree.fit_cate_tree": _count_cate,
    "study_data.load_drive_csv": _count_load,
    "study_data.assemble_feature_table": _count_assemble,
    "report.atomic_write_text": _count_write,
    "io.read_timeseries": _count_read,
    "io.read_gaze_csv": _count_read,
    "signals.extract_drive_features": _count_extract,
}

# return values kept for the workload's own checks (R-peak matching)
CAPTURED = ("signals.detect_r_peaks",)


class Tracer:
    """Spans and counters of one traced run, kept in memory.

    A span is ``[name, start, end, parent_index, op]``. ``op`` groups the
    spans of one benchmark op (its input set-up included).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts_by_op: dict[int, Counter] = defaultdict(Counter)
        self.captured: dict[str, list] = defaultdict(list)
        self.op = -1
        self._stack: list[int] = []

    def span(self, name, fn):
        """``fn`` wrapped so each call records a span and its counters."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        count = COUNTERS.get(name)
        capture = name in CAPTURED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            # append before push and pop before the end time: a host sample
            # (hostref.py) taken from a signal handler in between then nests
            # under the enclosing span, never under itself or a closed one
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            counts = self.counts_by_op[self.op]
            counts[f"{name}.calls"] += 1
            if count is not None:
                count(counts, args, kwargs, result)
            if capture:
                self.captured[name].append(result)
            return result

        return traced

    def take_captured(self) -> dict:
        """Return values captured since the last call, then forget them."""
        out = dict(self.captured)
        self.captured.clear()
        return out

    def run(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of the given name."""
        return self.span(name, fn)(*args, **kwargs)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op: name -> summed self time (duration minus children's)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, op) in enumerate(self.spans):
            out[op][name] += (end - start) - child[i]
        return out


def span_cost(calls: int = 20_000) -> float:
    """Seconds a span adds to one call, measured on a no-op function.

    Counter hooks are not included; they run only on a few functions.
    """
    def noop():
        return None

    traced = Tracer().span("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    bare = clock() - t0
    t0 = clock()
    for _ in range(calls):
        traced()
    return max(clock() - t0 - bare, 0.0) / calls


def import_modules() -> dict:
    return {m: importlib.import_module(f"drivedml.{m}") for m in ALL_MODULES}


def install(tracer: Tracer) -> list[str]:
    """Wrap every public function of the traced modules; return span names."""
    modules = import_modules()
    package = importlib.import_module("drivedml")
    namespaces = [package, *modules.values()]
    names = []
    for short in TRACED_MODULES:
        module = modules[short]
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            wrapped = tracer.span(name, fn)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapped)
            names.append(name)
    gbm = modules["boosting"].GbmModel
    gbm.predict = tracer.span("boosting.GbmModel.predict", gbm.predict)
    names.append("boosting.GbmModel.predict")
    return names
