"""In-memory spans around the benchmark's calls into plattersim.

A span records one call the benchmark makes into a layer's public
function: its name, start and end (``perf_counter`` seconds), the span that
was open when it started, and the scenario it worked on.  Spans are kept
in a list and written out once, when the run ends.  Nothing inside the
package is instrumented, so a span's children are only the calls the
benchmark itself nested under it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    scenario: str

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        """The plattersim module a span belongs to; the harness's own spans are ``bench``."""
        head, dot, _ = self.name.partition(".")
        return head if dot else "bench"


class NullTracer:
    """Untraced runs: the call and nothing else."""

    def call(self, name, scenario, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call; nesting follows the benchmark's own call stack."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span | None] = []
        self._open: list[int] = []

    def call(self, name, scenario, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, scenario)

    def root(self, index: int) -> str:
        """Name of the outermost span above ``index`` (``setup``, ``unit``, ``probe`` or ``census``)."""
        span = self.spans[index]
        while span.parent is not None:
            span = self.spans[span.parent]
        return span.name

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def durations(self, roots: tuple[str, ...]) -> dict[str, list[float]]:
        """Call durations by span name, for spans under the given roots."""
        found: dict[str, list[float]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if self.root(index) in roots:
                found[span.name].append(span.seconds)
        return found

    def layer_self_seconds(self, root: str) -> dict[str, float]:
        """Self time summed per layer over the spans under ``root`` spans."""
        by_layer: dict[str, float] = defaultdict(float)
        for index, own in enumerate(self.self_seconds()):
            if self.root(index) == root:
                by_layer[self.spans[index].layer] += own
        return by_layer

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "id": index,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "workload": self.workload,
                "scenario": span.scenario,
            }
            for index, span in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows) + "\n")
