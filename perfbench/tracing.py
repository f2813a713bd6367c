"""In-memory span recorder for the traced benchmark pass.

The recorder rebinds the module attributes that callers look up (for example
``ofdmradar.admm.psd_project``) to wrappers that open a span per call, and
restores the originals on exit, also when a wrapped call raises.  Spans stay
in memory and are written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index of the enclosing span in Tracer.spans, -1 at the root
    trial: int    # -1 outside trials (input generation)
    size: float | None = None  # optional count taken at the call boundary


@dataclass
class Totals:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    size: float = 0.0


class Tracer:
    def __init__(self, active: bool = True):
        self.spans: list[Span] = []
        self.trial = -1
        self.active = active
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield None
            return
        span = Span(name, time.perf_counter(), math.nan,
                    self._open[-1] if self._open else -1, self.trial)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (work outside the timed region)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, name: str, fn, size=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if span is not None and size is not None:
                    span.size = size(args, result)
                return result
        return traced

    @contextlib.contextmanager
    def instrument(self, targets):
        """Rebind each ``(module, attribute, span name, size)`` for the block."""
        saved = []
        try:
            for module, attr, name, size in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, size))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        return [span.end - span.start - c for span, c in zip(self.spans, child)]

    def summarize(self) -> dict[str, Totals]:
        totals: dict[str, Totals] = defaultdict(Totals)
        for span, self_s in zip(self.spans, self.self_times()):
            t = totals[span.name]
            t.calls += 1
            t.inclusive_s += span.end - span.start
            t.self_s += self_s
            t.size += span.size or 0.0
        return dict(totals)

    def dump(self, path) -> None:
        """Write one JSON array per span: name, start, end, self, parent, trial, size."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for span, self_s in zip(self.spans, self.self_times()):
                fh.write(json.dumps([span.name, span.start - origin, span.end - origin,
                                     self_s, span.parent, span.trial, span.size]) + "\n")
