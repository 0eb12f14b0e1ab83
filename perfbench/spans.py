"""Span tracing around fiberxtalk's layer boundaries, and the per-layer metrics.

The tracer wraps, from outside the package, the public functions each layer
exposes: the names ``fiberxtalk.cli`` imports, the ``tagio`` functions it
calls through the module, and the analysis steps ``run_otdr_analysis`` calls.
A span records its name, layer, parent span, operation, start and end, plus
event counts taken from cheap attributes of the arguments and result. Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

from inputs import PLAN_CASES

LAYERS = ("cli", "simulate", "tagio", "analysis", "switchlab", "plant", "units")


def _tags_in(args, kwargs, hist):
    return {"tags_in": args[0].n_records - hist.total_triggers, "bins": hist.n_bins,
            "dropped": hist.diagnostics.dropped_total}


def _file_read(args, kwargs, stream):
    return {"bytes": os.stat(args[0]).st_size, "records": stream.n_records}


def _states(args, kwargs, result):
    from fiberxtalk.switchlab import assignment_search_space

    bands = args[3] if len(args) > 3 else kwargs.get("bands")
    return {"states": assignment_search_space(args[0], args[1], args[2], bands),
            "exhaustive": int(result.method == "exhaustive"), "objective_db": result.objective_db}


# (module, attribute, layer, counter); the counter maps (args, kwargs, result) to counts.
WRAPPED = (
    ("cli", "load_topology", "plant", lambda a, k, r: {"connectors": len(r.connectors)}),
    ("cli", "simulate_otdr_tags", "simulate",
     lambda a, k, r: {"pulses": r.metadata["n_pulses"], "tags_out": r.n_records}),
    ("cli", "simulate_spectral_scan", "simulate", lambda a, k, r: {"points": int(r.counts.size)}),
    ("cli", "run_otdr_analysis", "analysis", None),
    ("cli", "detect_spectral_lines", "analysis", lambda a, k, r: {"lines": len(r)}),
    ("cli", "optimize_assignment", "switchlab", _states),
    ("cli", "brute_force_assignment", "switchlab", _states),
    ("cli", "load_measured_table", "switchlab", lambda a, k, r: {"keys": len(r)}),
    ("cli", "sweep_configs", "switchlab", None),
    ("cli", "sweep_wavelength", "switchlab", None),
    ("cli", "validate_wavelength_nm", "units", None),
    ("analysis", "fold_histogram", "analysis", _tags_in),
    ("analysis", "estimate_baseline", "analysis", None),
    ("analysis", "detect_peaks", "analysis", lambda a, k, r: {"peaks": len(r)}),
    ("analysis", "localize", "analysis", None),
    ("analysis", "estimate_coupling_db", "analysis", None),
    ("tagio", "read_tags", "tagio", None),
    ("tagio", "read_tags_xtt1", "tagio", _file_read),
    ("tagio", "read_tags_csv", "tagio", _file_read),
    ("tagio", "write_tags_xtt1", "tagio", lambda a, k, r: {"records": a[1].n_records}),
    ("tagio", "read_scan_csv", "tagio", None),
    ("tagio", "write_scan_csv", "tagio", None),
    ("tagio", "write_histogram_csv", "tagio", None),
    ("tagio", "read_metadata", "tagio", None),
    ("tagio", "write_metadata", "tagio", None),
)


class Span:
    __slots__ = ("id", "name", "layer", "parent", "op", "start", "end", "counts")

    def __init__(self, id, name, layer, parent, op, start):
        self.id, self.name, self.layer, self.parent, self.op = id, name, layer, parent, op
        self.start, self.end, self.counts = start, start, None

    def to_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    """Records spans while installed; ``uninstall`` restores the original functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.ops: list[tuple[int, str]] = []  # (pass index, op label) per operation id
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    def span(self, name: str, layer: str, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, layer, parent, len(self.ops) - 1, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result
        return wrapper

    def begin_op(self, pass_index: int, label: str) -> None:
        self.ops.append((pass_index, label))

    def install(self) -> None:
        import fiberxtalk.analysis
        import fiberxtalk.cli
        import fiberxtalk.tagio

        modules = {"cli": fiberxtalk.cli, "analysis": fiberxtalk.analysis, "tagio": fiberxtalk.tagio}
        for module_name, attr, layer, counter in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.span(f"{layer}.{attr}", layer, original, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


# --- per-layer metrics ------------------------------------------------------------------


# (name, unit, better) of the metrics a --trace 1 run reports.
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("simulate.otdr_s", "s", "lower"),
    ("simulate.pulses_per_s", "1/s", "higher"),
    ("simulate.tags_out", "count", "higher"),
    ("simulate.scan_s", "s", "lower"),
    ("simulate.scan_points_per_s", "1/s", "higher"),
    ("tagio.self_s", "s", "lower"),
    ("tagio.read_csv_s", "s", "lower"),
    ("tagio.read_csv_mb_per_s", "MB/s", "higher"),
    ("tagio.read_xtt1_s", "s", "lower"),
    ("tagio.read_xtt1_mb_per_s", "MB/s", "higher"),
    ("tagio.write_xtt1_s", "s", "lower"),
    ("tagio.write_hist_csv_s", "s", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("analysis.fold_s", "s", "lower"),
    ("analysis.fold_tags_per_s", "1/s", "higher"),
    ("analysis.fold_bins", "count", "lower"),
    ("analysis.baseline_s", "s", "lower"),
    ("analysis.detect_s", "s", "lower"),
    ("analysis.couple_s", "s", "lower"),
    ("analysis.peaks_found", "count", "higher"),
    ("analysis.fold_dropped", "count", "lower"),
    ("switchlab.self_s", "s", "lower"),
    *[(f"switchlab.plan_s.{case}", "s", "lower") for case, *_ in PLAN_CASES],
    *[(f"switchlab.states.{case}", "count", "lower") for case, *_ in PLAN_CASES],
    ("switchlab.states_per_s", "1/s", "higher"),
    ("switchlab.exhaustive_share", "ratio", "higher"),
    ("switchlab.load_table_s", "s", "lower"),
    ("switchlab.plan_worst_leak_db", "dB", "lower"),
    ("plant.self_s", "s", "lower"),
    ("plant.load_topology_s", "s", "lower"),
    ("units.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


def _ratio(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0.0 else 0.0


def per_layer_metrics(tracer: Tracer, traced_passes: list[int], overhead_s: float) -> dict[str, float]:
    """Per-pass medians of span times and counts, and rates over all traced passes."""
    op_pass = {op: p for op, (p, _) in enumerate(tracer.ops)}
    op_label = {op: label for op, (_, label) in enumerate(tracer.ops)}
    child_time = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start

    per_pass: dict[int, dict[str, float]] = {p: {} for p in traced_passes}

    def add(p: int, key: str, value: float) -> None:
        per_pass[p][key] = per_pass[p].get(key, 0.0) + value

    for span in tracer.spans:
        p = op_pass[span.op]
        duration = span.end - span.start
        add(p, f"{span.layer}.self_s", duration - child_time[span.id])
        add(p, f"time:{span.name}", duration)
        add(p, "trace.spans", 1)
        for key, value in (span.counts or {}).items():
            add(p, f"count:{span.name}:{key}", value)
        if span.name == "switchlab.optimize_assignment":
            case = op_label[span.op].split(":", 1)[1]
            add(p, f"switchlab.plan_s.{case}", duration)
            add(p, f"switchlab.states.{case}", span.counts["states"])
            if span.counts["exhaustive"]:
                add(p, "exhaustive_states", span.counts["states"])
                add(p, "exhaustive_s", duration)
            add(p, "exhaustive_cases", span.counts["exhaustive"])
            add(p, "plan_cases", 1)
            add(p, "objective_db_sum", span.counts["objective_db"])

    def med(key: str) -> float:
        return statistics.median(per_pass[p].get(key, 0.0) for p in traced_passes)

    def total(key: str) -> float:
        return sum(per_pass[p].get(key, 0.0) for p in traced_passes)

    metrics = {f"{layer}.self_s": med(f"{layer}.self_s") for layer in LAYERS}
    metrics.update({
        "simulate.otdr_s": med("time:simulate.simulate_otdr_tags"),
        "simulate.pulses_per_s": _ratio(total("count:simulate.simulate_otdr_tags:pulses"),
                                        total("time:simulate.simulate_otdr_tags")),
        "simulate.tags_out": med("count:simulate.simulate_otdr_tags:tags_out"),
        "simulate.scan_s": med("time:simulate.simulate_spectral_scan"),
        "simulate.scan_points_per_s": _ratio(total("count:simulate.simulate_spectral_scan:points"),
                                             total("time:simulate.simulate_spectral_scan")),
        "tagio.read_csv_s": med("time:tagio.read_tags_csv"),
        "tagio.read_csv_mb_per_s": _ratio(total("count:tagio.read_tags_csv:bytes") / 1e6,
                                          total("time:tagio.read_tags_csv")),
        "tagio.read_xtt1_s": med("time:tagio.read_tags_xtt1"),
        "tagio.read_xtt1_mb_per_s": _ratio(total("count:tagio.read_tags_xtt1:bytes") / 1e6,
                                           total("time:tagio.read_tags_xtt1")),
        "tagio.write_xtt1_s": med("time:tagio.write_tags_xtt1"),
        "tagio.write_hist_csv_s": med("time:tagio.write_histogram_csv"),
        "analysis.fold_s": med("time:analysis.fold_histogram"),
        "analysis.fold_tags_per_s": _ratio(total("count:analysis.fold_histogram:tags_in"),
                                           total("time:analysis.fold_histogram")),
        "analysis.fold_bins": med("count:analysis.fold_histogram:bins"),
        "analysis.baseline_s": med("time:analysis.estimate_baseline"),
        "analysis.detect_s": med("time:analysis.detect_peaks"),
        "analysis.couple_s": med("time:analysis.estimate_coupling_db"),
        "analysis.peaks_found": med("count:analysis.detect_peaks:peaks"),
        "analysis.fold_dropped": med("count:analysis.fold_histogram:dropped"),
        "switchlab.states_per_s": _ratio(total("exhaustive_states"), total("exhaustive_s")),
        "switchlab.exhaustive_share": _ratio(total("exhaustive_cases"), total("plan_cases")),
        "switchlab.load_table_s": med("time:switchlab.load_measured_table"),
        "switchlab.plan_worst_leak_db": _ratio(total("objective_db_sum"), total("plan_cases")),
        "plant.load_topology_s": med("time:plant.load_topology"),
        "trace.overhead_s": overhead_s,
        "trace.spans": med("trace.spans"),
    })
    for case, *_ in PLAN_CASES:
        metrics[f"switchlab.plan_s.{case}"] = med(f"switchlab.plan_s.{case}")
        metrics[f"switchlab.states.{case}"] = med(f"switchlab.states.{case}")
    return {name: metrics[name] for name, _, _ in PER_LAYER}
