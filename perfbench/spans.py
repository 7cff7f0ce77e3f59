"""In-memory spans around the calls into each cloudmcdm module, and self times.

Calls are wrapped where they are looked up, not where they are defined:
`pipeline` binds its helpers with `from .cloud import ...`, `auto_correct`
reaches `consistency_ratio` through the `iahp` module, `run_pipeline` imports
`cloud_diagram` from `svgplot` at call time, and `cli` binds the pipeline
stages it calls. Every span carries a name, start, end and parent. A span's
self time is its duration minus the part its children cover, so the self
times of one operation add up to the operation's root span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span in Tracer.spans, -1 for a root


def _count_cells(result) -> dict[str, float]:
    return {"dataprep.cells": result.values.size}


def _count_repair(result) -> dict[str, float]:
    return {"iahp.matrices": 1, "iahp.repair_iters": result[1].iterations}


def _count_droplets(result) -> dict[str, float]:
    return {"cloud.forward_droplets": len(result.x)}


def _count_len(metric: str):
    def count(result) -> dict[str, float]:
        return {metric: len(result.encode() if isinstance(result, str) else result)}
    return count


def _calls(metric: str):
    def count(result) -> dict[str, float]:
        return {metric: 1}
    return count


def targets():
    """(owner, attribute, span name, counter) for every call site the traced run wraps."""
    from cloudmcdm import cli, iahp, pipeline, svgplot

    return [
        (pipeline, "load_hierarchy", "hierarchy.load", None),
        (pipeline, "validate_hierarchy", "hierarchy.load", None),
        (pipeline, "load_data_csv", "dataprep.load_csv", _count_cells),
        (pipeline, "min_max_normalize", "dataprep.normalize", None),
        (pipeline, "load_judgment_csv", "iahp.load_judgment", None),
        (pipeline, "auto_correct", "iahp.repair", _count_repair),
        (iahp, "consistency_ratio", "iahp.cr", _calls("iahp.cr_calls")),
        (pipeline, "principal_weights", "iahp.eigen", _calls("iahp.eigen_calls")),
        (pipeline, "entropy_weights", "ewm.entropy", None),
        (pipeline, "combine_weights", "combiner.fuse", None),
        (pipeline, "indicator_cloud", "cloud.backward", _calls("cloud.backward_calls")),
        (pipeline, "aggregate_clouds", "cloud.aggregate", None),
        (pipeline, "assign_grade", "cloud.grade", _calls("cloud.grade_calls")),
        (pipeline, "membership_matrix", "fce.score", None),
        (pipeline, "fce_score", "fce.score", None),
        (pipeline, "forward_cloud", "cloud.forward", _count_droplets),
        (svgplot, "forward_cloud", "cloud.forward", _count_droplets),
        (svgplot, "cloud_diagram", "svgplot.diagram", _count_len("svgplot.bytes")),
        (pipeline, "droplets_csv_bytes", "pipeline.droplets_csv", _count_len("pipeline.droplets_csv_size")),
        (pipeline.EvaluationReport, "to_json_bytes", "pipeline.report_json",
         _count_len("pipeline.report_bytes")),
        (cli, "load_inputs", "pipeline.self", None),
        (cli, "compute_weights", "pipeline.self", None),
    ]


class Tracer:
    """Records spans and counters while installed; `uninstall` restores every wrapped name."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, counter=None):
        """Wrap `fn` so that each call records a span `name` and feeds `counter` its result."""
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx].end = time.perf_counter()
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts[key] += value
            return result
        return wrapper

    def install(self, sites) -> None:
        for owner, attr, name, counter in sites:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.span(name, fn, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps([s.name, s.start, s.end, s.parent]) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: duration minus the union of the children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for idx, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children[idx]):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.name] += (s.end - s.start) - covered
    return dict(out)
