"""Span recorder for the traced benchmark run.

The program is not edited. Instead, each layer's public functions are
replaced, for the length of a traced phase, by wrappers bound under the names
their callers look up (``helistar.catalog.solve_band`` is the closure solver as
the catalog sees it). Every call records a span: name, parent span, start and
end. Spans stay in memory and are written out once, when the run ends.

band_combinatorics gets no span: it runs inside every other layer on
microsecond-scale work, so its cost lands in its callers' self time.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager


def _branches(counters, result, args, kwargs):
    counters["branches"] += len(result)


def _intersecting(counters, result, args, kwargs):
    counters["face_scans"] += 1
    counters["face_intersecting"] += bool(result[0])


def _faces(counters, result, args, kwargs):
    counters["faces"] += len(result.faces)


def _entries(counters, result, args, kwargs):
    counters["entries"] += len(result)


def _sink_bytes(position):
    """Counter for an export function whose sink is argument `position`."""

    def count(counters, result, args, kwargs):
        sink = args[position]  # every caller passes the sink positionally
        if hasattr(sink, "getvalue"):
            counters["export_bytes"] += len(sink.getvalue().encode("utf-8"))
        else:
            counters["export_bytes"] += os.path.getsize(sink)

    return count


# (module, attribute, span name, counter). The span name's first part is the
# layer. A function is listed once per module that calls it by name, because
# `from .x import f` binds f separately in each caller.
PATCHES = [
    ("catalog", "enumerate_catalog", "catalog.enumerate", _entries),
    ("catalog", "write_catalog", "catalog.write", None),
    ("catalog", "write_catalog_csv", "catalog.write_csv", None),
    ("catalog", "build_report", "catalog.build_report", None),
    ("catalog", "format_report", "catalog.format_report", None),
    ("catalog", "solve_band", "closure_solver.solve_band", _branches),
    ("catalog", "classify", "analysis.classify", None),
    ("closure_solver", "solve_band", "closure_solver.solve_band", _branches),
    ("analysis", "classify_face_intersection", "analysis.face", _intersecting),
    ("analysis", "vertex_figure", "analysis.vertex_figure", None),
    ("realization", "realize", "realization.realize", _faces),
    ("realization", "verify_uniform", "realization.verify", None),
    ("export", "export_obj", "export.obj", _sink_bytes(1)),
    ("export", "unfold_net", "export.unfold_net", None),
    ("export", "export_net_svg", "export.net_svg", _sink_bytes(1)),
    ("export", "export_modules_svg", "export.modules_svg", _sink_bytes(2)),
    ("cli", "main", "cli.main", None),
    ("cli", "solve_band", "closure_solver.solve_band", _branches),
    ("cli", "classify", "analysis.classify", None),
    ("cli", "realize", "realization.realize", _faces),
    ("cli", "verify_uniform", "realization.verify", None),
    ("cli", "export_obj", "export.obj", _sink_bytes(1)),
    ("cli", "unfold_net", "export.unfold_net", None),
    ("cli", "export_net_svg", "export.net_svg", _sink_bytes(1)),
    ("cli", "export_modules_svg", "export.modules_svg", _sink_bytes(2)),
]


class Tracer:
    """In-memory spans and counters for one traced phase (single thread)."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, time.perf_counter(), None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()
            if count is not None:
                count(counters, result, args, kwargs)
            return result

        return traced

    @contextmanager
    def installed(self, helistar):
        """Swap the wrappers in for the body of the with-block, then restore."""
        saved = []
        try:
            for module_name, attr, name, count in PATCHES:
                module = getattr(helistar, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def as_dict(self, t0: float) -> dict:
        """Spans (times in seconds from t0) and counters, for the span file."""
        return {
            "counters": dict(self.counters),
            "spans": [
                {"name": n, "parent": p, "start": s - t0, "end": e - t0}
                for n, p, s, e in self.spans
            ],
        }


def durations(spans, own=None) -> list[float]:
    """Each span's seconds; own(start, seconds) may take out time not the program's."""
    if own is None:
        return [end - start for _name, _parent, start, end in spans]
    return [own(start, end - start) for _name, _parent, start, end in spans]


def self_times(spans, dur: list[float]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = list(dur)
    for i, (_name, parent, _start, _end) in enumerate(spans):
        if parent >= 0:
            out[parent] -= dur[i]
    return out


def layer_metrics(tracer: Tracer, wall_s: float, overhead_s: float,
                  own=None) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of BENCHMARK.json from one traced phase.

    own(start, seconds) gives a span's seconds less the speed probes that ran
    inside it; wall_s is the phase's wall time less all its probes.
    """
    spans = tracer.spans
    dur = durations(spans, own)
    own_dur = self_times(spans, dur)
    c = tracer.counters

    def total(*names, times=dur):
        return sum((t for (name, *_rest), t in zip(spans, times) if name in names), 0.0)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    solves = calls("closure_solver.solve_band")
    root_s = sum((t for (_n, parent, *_r), t in zip(spans, dur) if parent < 0), 0.0)
    return {
        "closure_solver.calls": (solves, "count"),
        "closure_solver.busy_s": (total("closure_solver.solve_band"), "s"),
        "closure_solver.branches_per_call": (
            c["branches"] / solves if solves else 0.0, "branch/call"),
        "analysis.face_busy_s": (total("analysis.face"), "s"),
        "analysis.vertex_figure_busy_s": (total("analysis.vertex_figure"), "s"),
        "analysis.intersecting_ratio": (
            c["face_intersecting"] / c["face_scans"] if c["face_scans"] else 0.0, "ratio"),
        "realization.realize_busy_s": (total("realization.realize"), "s"),
        "realization.verify_busy_s": (total("realization.verify"), "s"),
        "realization.faces": (c["faces"], "count"),
        "export.obj_busy_s": (total("export.obj"), "s"),
        "export.net_busy_s": (total("export.unfold_net", "export.net_svg"), "s"),
        "export.modules_busy_s": (total("export.modules_svg"), "s"),
        "export.bytes": (c["export_bytes"], "bytes"),
        "catalog.enumerate_self_s": (total("catalog.enumerate", times=own_dur), "s"),
        "catalog.write_busy_s": (total("catalog.write", "catalog.write_csv"), "s"),
        "catalog.report_busy_s": (total("catalog.build_report", "catalog.format_report"), "s"),
        "catalog.entries": (c["entries"], "count"),
        "cli.main_self_s": (total("cli.main", times=own_dur), "s"),
        "cli.commands": (calls("cli.main"), "count"),
        "trace.wall_s": (wall_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.span_coverage": (root_s / wall_s if wall_s > 0 else 0.0, "ratio"),
    }
