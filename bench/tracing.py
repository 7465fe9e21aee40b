"""Span recording around the v2xcal layers, installed from outside the package.

The package binds its cross-module calls with ``from .x import f``, so a
wrapper must replace the name where the caller looks it up: ``cli.run_scenario``
and ``calibration.run_scenario`` are two patches on one function. Each span
keeps its name, start, end and parent; a layer's self time is its spans'
durations minus the time their child spans cover. Counts are taken at the
same boundaries so ratios are measured where the work happens.

Spans recorded inside process-pool workers stay in the workers; only the
parent's spans reach the summary.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "simulator", "propagation", "dataio", "calibration")


def _count_packets(counts, args, kwargs, result):
    counts["simulator.packets"] += len(result)


def _count_gain_points(counts, args, kwargs, result):
    counts["propagation.gain_points"] += result.size  # one gain per sweep distance


def _count_rows_parsed(counts, args, kwargs, result):
    counts["dataio.rows_parsed"] += len(result)


def _count_rows_written(counts, args, kwargs, result):
    counts["dataio.rows_written"] += result.count("\n") - 1  # minus the header


def _count_search(counts, args, kwargs, result):
    from v2xcal.calibration import INFEASIBLE_RMSE
    from v2xcal.propagation import FastFadingModel

    history = result.history
    nakagami = [r.genome.nakagami_m for r in history
                if r.genome.fast_model is FastFadingModel.NAKAGAMI]
    counts["calibration.evaluations"] += result.evaluations
    counts["calibration.distinct_genomes"] += len({r.genome for r in history})
    counts["calibration.nakagami_evaluations"] += len(nakagami)
    counts["calibration.distinct_m"] += len(set(nakagami))
    counts["calibration.infeasible"] += sum(r.rmse == INFEASIBLE_RMSE for r in history)
    counts["calibration.best_rmse"] = result.best_rmse


#: (module where the caller looks the name up, attribute, span name, counter).
#: The span name is the layer that owns the function, whoever calls it.
PATCHES = (
    ("v2xcal.cli", "parse_trace_csv", "dataio.parse_trace_csv", _count_rows_parsed),
    ("v2xcal.cli", "project_enu", "dataio.project_enu", None),
    ("v2xcal.cli", "parse_pdr_csv", "dataio.parse_pdr_csv", _count_rows_parsed),
    ("v2xcal.cli", "parse_log_csv", "dataio.parse_log_csv", _count_rows_parsed),
    ("v2xcal.cli", "export_log_csv", "dataio.export_log_csv", _count_rows_written),
    ("v2xcal.cli", "export_pdr_csv", "dataio.export_pdr_csv", _count_rows_written),
    ("v2xcal.cli", "export_heatmap_csv", "dataio.export_heatmap_csv", _count_rows_written),
    ("v2xcal.cli", "run_scenario", "simulator.run_scenario", _count_packets),
    ("v2xcal.cli", "pdr_curve", "simulator.pdr_curve", None),
    ("v2xcal.cli", "heatmap", "simulator.heatmap", None),
    ("v2xcal.cli", "evolve", "calibration.evolve", _count_search),
    ("v2xcal.cli", "history_to_csv", "calibration.history_to_csv", _count_rows_written),
    ("v2xcal.cli", "result_summary", "calibration.result_summary", None),
    ("v2xcal.calibration", "objective", "calibration.objective", None),
    ("v2xcal.calibration", "deterministic_gain_db", "propagation.deterministic_gain_db",
     _count_gain_points),
    ("v2xcal.calibration", "run_scenario", "simulator.run_scenario", _count_packets),
    ("v2xcal.calibration", "pdr_curve", "simulator.pdr_curve", None),
    ("v2xcal.calibration", "rmse", "simulator.rmse", None),
    ("v2xcal.simulator", "log_distance_rx_power", "propagation.log_distance_rx_power", None),
    ("v2xcal.simulator", "nakagami_power_sample", "propagation.nakagami_power_sample", None),
)


class Tracer:
    """Records spans and counts while installed; one tracer per operation."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def _call(self, name, fn, count, args, kwargs):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index][1:3] = start, end
        self.counts[name + ".calls"] += 1
        if count is not None:
            count(self.counts, args, kwargs, result)
        return result

    def _wrap(self, name, fn, count):
        # functools.wraps keeps __module__/__qualname__, so a wrapped
        # objective still pickles by reference for the process pool.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, count, args, kwargs)

        return traced

    def __enter__(self):
        for module_name, attr, name, count in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, count))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def summary(self, wall_s: float) -> dict:
        """Per-operation figures: call durations by span name, self time by layer.

        ``cli`` self time is the operation's wall time minus the spans called
        from it, so the layer self times add up to ``wall_s`` exactly.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        durations = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        top_level_s = 0.0
        for (name, start, end, parent), children in zip(self.spans, child_s):
            durations.setdefault(name, []).append(end - start)
            self_s[name.partition(".")[0]] += end - start - children
            if parent < 0:
                top_level_s += end - start
        self_s["cli"] = wall_s - top_level_s
        return {"durations": durations, "self_s": self_s, "counts": dict(self.counts)}


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it.

    Fewer than twenty samples have no such percentile; the median stands in.
    """
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sequence; the 50th is the median."""
    if pct == 50.0:
        return statistics.median(values)
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]
