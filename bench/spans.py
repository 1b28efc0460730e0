"""In-memory span recorder for the benchmark's ``--trace`` runs.

A span is one timed call from a benchmark file into the system: a name, a
start and an end (``time.perf_counter`` seconds), the span that caused it
and the trace it belongs to, which is the id of its root span, so the spans
of one request or one probe call share it.  Spans are kept in memory and
written out once, as JSON lines, when the run ends.  A disabled recorder
keeps nothing, so untraced runs pay one attribute check per call.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Tuple


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int          # 0 = root
    trace: int           # span id of the root
    name: str
    start: float
    end: float

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Collects :class:`Span` records while ``enabled``."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._trace_of: Dict[int, int] = {}

    def _open(self, parent: int) -> Tuple[int, int]:
        span_id = next(self._ids)
        trace = self._trace_of[parent] if parent else span_id
        self._trace_of[span_id] = trace
        return span_id, trace

    def record(self, name: str, start: float, end: float, parent: int = 0) -> int:
        """Add a span measured by the caller; returns its id (0 when off)."""
        if not self.enabled:
            return 0
        span_id, trace = self._open(parent)
        self.spans.append(Span(span_id, parent, trace, name, start, end))
        return span_id

    @contextmanager
    def span(self, name: str, parent: int = 0) -> Iterator[int]:
        """Time the ``with`` body as one span; yields its id for children."""
        if not self.enabled:
            yield 0
            return
        span_id, trace = self._open(parent)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans.append(Span(span_id, parent, trace, name, start, time.perf_counter()))

    def durations_ms(self, name: str) -> List[float]:
        return [span.ms for span in self.spans if span.name == name]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
