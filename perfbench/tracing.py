"""Spans and counts around sqfr's public functions, for the traced run.

The tracer replaces each named function with a wrapper on its module, so
callers inside the package that look the name up on the module (or, within
the same module, as a global) go through the wrapper too. Spans are kept in
memory as ``(id, parent, op, name, start, end)`` tuples and written out at
the end; counts are taken at the same boundaries from the call's arguments
and result. Uninstalling puts the original functions back, so an untraced
operation runs the program's code unchanged.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

import numpy as np


def _one(args, result):
    return 1


#: (module, function, span name, count name, count taken from (args, result)).
#: Both threshold sweeps share the span name ``measures.thresholds``.
TRACED = (
    ("cli", "main", "cli.main", None, None),
    ("dataset", "load_csv", "dataset.load_csv", "dataset.rows_read",
     lambda args, result: result.provenance.row_count),
    ("dataset", "load_json", "dataset.load_json", None, None),
    ("dataset", "validate", "dataset.validate", None, None),
    # the CSV text is ASCII, so its length is its size in bytes
    ("dataset", "dumps_csv", "dataset.dumps_csv", "dataset.bytes_written",
     lambda args, result: len(result)),
    ("measures", "mean_aggregate", "measures.mean_aggregate", "measures.aggregate_calls", _one),
    ("measures", "median_aggregate", "measures.median_aggregate", "measures.aggregate_calls",
     _one),
    ("measures", "lwm_aggregate", "measures.lwm_aggregate", "measures.aggregate_calls", _one),
    ("measures", "gini_coefficient", "measures.gini_coefficient", None, None),
    ("measures", "relevant_thresholds", "measures.thresholds", "measures.thresholds_swept",
     lambda args, result: int(result.size)),
    ("measures", "observed_thresholds", "measures.thresholds", "measures.thresholds_swept",
     lambda args, result: int(result.size)),
    ("measures", "discard_curve", "measures.discard_curve", None, None),
    ("measures", "mdg", "measures.mdg", None, None),
    ("kernels", "count_below", "kernels.count_below", "kernels.count_below_calls", _one),
    ("kernels", "low_weight_sums", "kernels.low_weight_sums", None, None),
    ("kernels", "kde_gaussian", "kernels.kde_gaussian", "kernels.kde_pairs",
     lambda args, result: int(np.size(args[0])) * int(np.size(args[1]))),
    # components evaluated, the base of measures.aggregate_useful_ratio
    ("report", "build_report", "report.build_report", "report.components",
     lambda args, result: len(result.components)),
    ("report", "render", "report.render", "report.bytes_out", lambda args, result: len(result)),
    ("plotdata", "build_plotdata", "plotdata.build_plotdata", None, None),
    ("plotdata", "silverman_bandwidth", "plotdata.silverman_bandwidth", None, None),
    ("plotdata", "render", "plotdata.render", "plotdata.bytes_out",
     lambda args, result: len(result)),
    ("scenarios", "generate", "scenarios.generate", "scenarios.samples_drawn",
     lambda args, result: sum(int(g.size) for g in result.groups.values())),
)

SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TRACED))
COUNT_NAMES = tuple(dict.fromkeys(t[3] for t in TRACED if t[3] and t[3] != "report.components"))


class Tracer:
    """Records spans and counts while installed; ``op`` tags each span."""

    def __init__(self, package):
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._originals = []
        self._wrappers = []
        for module_name, attr, span, count, counter in TRACED:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            self._wrappers.append((module, attr, self._wrap(original, span, count, counter)))

    def _wrap(self, fn, span, count, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, self.op, span, start, end))
            if count is not None:
                self.counts[self.op][count] += counter(args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, fn in self._wrappers:
            setattr(module, attr, fn)

    def uninstall(self) -> None:
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)

    def span_dicts(self) -> list[dict]:
        keys = ("id", "parent", "op", "name", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans]

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per traced operation: self seconds per span name, cli total, counts."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, op, name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        ops: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, parent, op, name, start, end in self.spans:
            ops[op][name + "_self"] += (end - start) - child_time[sid]
            ops[op][name + "_total"] += end - start
        for op, counts in self.counts.items():
            ops[op].update(counts)
        return ops


def layer_metrics(per_op: dict[int, dict[str, float]]) -> dict[str, tuple[float, str]]:
    """Median over traced operations of each per-layer figure, with its unit.

    Times are self time (a wrapped function's duration minus that of the
    wrapped calls beneath it), except ``cli.main_s``, which is the whole
    call. Counts are the lower median, so they stay whole numbers. Figures
    of a layer a workload does not use read 0.
    """
    def med(key: str) -> float:
        return statistics.median(op.get(key, 0.0) for op in per_op.values())

    def count(key: str) -> int:
        return int(statistics.median_low(op.get(key, 0) for op in per_op.values()))

    out: dict[str, tuple[float, str]] = {}
    out["cli.main_s"] = (med("cli.main_total"), "s")
    out["cli.self_s"] = (med("cli.main_self"), "s")
    for name in SPAN_NAMES:
        if name != "cli.main":
            out[name + "_s"] = (med(name + "_self"), "s")
    for name in COUNT_NAMES:
        out[name] = (count(name), "count")

    def ratio(num: str, den: str, scale: float = 1.0) -> float:
        values = [scale * op.get(num, 0.0) / op[den] for op in per_op.values() if op.get(den)]
        return statistics.median(values) if values else 0.0

    out["dataset.load_csv_rows_per_s"] = (
        ratio("dataset.rows_read", "dataset.load_csv_self"), "1/s")
    out["kernels.kde_pairs_per_s"] = (ratio("kernels.kde_pairs", "kernels.kde_gaussian_self"), "1/s")
    # each component needs its mean, median and LWM aggregate once
    out["measures.aggregate_useful_ratio"] = (
        ratio("report.components", "measures.aggregate_calls", scale=3.0), "ratio")
    return out
