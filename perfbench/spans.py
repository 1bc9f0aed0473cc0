"""Span recorder that wraps functions from outside the code it measures.

`Tracer.wrap` replaces a module attribute with a wrapper that records a span
(name, start, end, parent span, analysis id) around each call, or only counts
the call. Spans stay in memory; `summarize` turns one analysis's spans into
inclusive and self time per span name. Self time is a span's duration minus
the part of it that its child spans cover, so a function that calls another
wrapped function is not charged for the callee's time twice.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    analysis: int
    name: str
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self.analysis = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts.setdefault(self.analysis, Counter())[key] += amount

    def wrap(self, owner, attr: str, name: str, *, span: bool = True, label=None, on_result=None):
        """Patch `owner.attr` with a recording wrapper; `restore` undoes it.

        `label(args, kwargs)` appends a suffix to the span name, and
        `on_result(tracer, args, kwargs, result)` records counts from a call.
        With `span=False` the wrapper only counts calls under `name`.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not span:
                tracer.count(name)
                return original(*args, **kwargs)
            sid = len(tracer.spans)
            full = name + label(args, kwargs) if label else name
            parent = tracer._stack[-1] if tracer._stack else None
            record = Span(sid, parent, tracer.analysis, full, time.perf_counter())
            tracer.spans.append(record)
            tracer._stack.append(sid)
            try:
                result = original(*args, **kwargs)
            finally:
                record.end = time.perf_counter()
                tracer._stack.pop()
            if on_result:
                on_result(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans: list[Span], analysis: int) -> tuple[Counter, Counter]:
    """(inclusive seconds, self seconds) per span name for one analysis."""
    mine = [s for s in spans if s.analysis == analysis]
    own = self_times(mine)
    inclusive, self_s = Counter(), Counter()
    for s in mine:
        inclusive[s.name] += s.end - s.start
        self_s[s.name] += own[s.id]
    return inclusive, self_s
