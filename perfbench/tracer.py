"""In-memory spans around the benchmark's calls into reconkit's layers.

A span records its name, start, end, parent span and item id. Spans stay in
memory until the run ends. A span's self time is its duration minus the
durations of its children. The item span's self time is the benchmark's
own work inside the item; the layer spans' self times are the layers'.
The item id is an item's index in the traced phase, or "setup" or "probe"
for calls made outside items.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Callable, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "attrs")

    def __init__(self, name, start, parent, item, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("tracer", "name", "attrs", "span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> Span:
        tr = self.tracer
        parent = tr._open[-1] if tr._open else None
        tr._open.append(len(tr.spans))
        span = Span(self.name, 0.0, parent, tr.item, self.attrs)
        tr.spans.append(span)
        span.start = span.end = tr.clock()
        self.span = span
        return span

    def __exit__(self, *exc) -> None:
        self.span.end = self.tracer.clock()
        self.tracer._open.pop()


class Tracer:
    """Records every span opened with `span(name, **attrs)`, timed by
    `clock`."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.item: Optional[int] = None

    def span(self, name: str, **attrs) -> _Open:
        return _Open(self, name, attrs)

    def self_times(self) -> list[float]:
        """Per span: duration minus the summed durations of its children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def nesting_residual(self) -> float:
        """Largest gap, over items, between an item span's duration and the
        summed self times of the spans tagged with that item.

        Self times telescope, so the gap is 0 up to rounding whenever every
        span tagged with an item is nested inside that item's span; it
        catches a span tagged with the wrong item or left open. It says
        nothing about how much of an item the layer spans cover: the item
        span's own self time (bench.self_s) shows that.
        """
        gap: dict[int, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            if not isinstance(s.item, int):
                continue
            gap[s.item] = gap.get(s.item, 0.0) + own
            if s.name == "item":
                gap[s.item] -= s.duration
        return max((abs(g) for g in gap.values()), default=0.0)

    def dump(self, path, header: dict) -> None:
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "item": s.item,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({**header, "spans": rows}, fh)


class _NullSpan:
    __slots__ = ("attrs",)

    def __init__(self) -> None:
        self.attrs: dict = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class NullTracer:
    """Tracing off: every span is one shared no-op context."""

    def __init__(self) -> None:
        self.item: Optional[int] = None
        self._span = _NullSpan()

    def span(self, name: str, **attrs) -> _NullSpan:
        return self._span
