"""Spans around the calls into each layer, recorded from outside.

The benchmark wraps the public methods of the layer objects it builds
(``Tracer.wrap``); nothing inside ``repro`` is changed.  Every call
becomes a :class:`Span` kept in memory and written out as JSON lines
when the run ends.

Parents come from a context variable, so nesting on one thread or one
asyncio task is exact.  Threads the program starts itself (HTTP
handler threads, executor and replica-applier threads) begin with an
empty context; their top spans are linked afterwards to the deepest
span of another thread whose interval contains them.  One client
operation is in flight at a time except inside a write burst, where a
span carrying the same entry identifier is preferred.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import inspect
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.repository.entry import ExampleEntry

#: How many operations before the one a span starts in may still hold
#: it: a write burst keeps this many operations in flight at once.
_BURST_WINDOW = 16


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    thread: int = 0
    key: str | None = None
    trace: int | None = None
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """The span minus the part of it that its children cover."""
        return self.duration - _covered(self.children, self.start, self.end)


def _covered(spans: Iterable[Span], lo: float, hi: float) -> float:
    """Length of the union of ``spans`` clipped to ``[lo, hi]``."""
    total = 0.0
    edge = lo
    for span in sorted(spans, key=lambda s: s.start):
        start, end = max(span.start, edge), min(span.end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def _root(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


def _key_of(args: tuple) -> str | None:
    if not args:
        return None
    first = args[0]
    if isinstance(first, ExampleEntry):
        return first.identifier
    if isinstance(first, str):
        return first
    return None


class Tracer:
    """Collects spans; one instance per traced phase."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[Span | None] = (
            contextvars.ContextVar("bxbench_span", default=None))
        self._linked = False

    # -- recording -----------------------------------------------------

    def begin(self, name: str, layer: str, key: str | None = None) -> tuple:
        span = Span(name, layer, time.perf_counter(),
                    parent=self._current.get(),
                    thread=threading.get_ident(), key=key)
        return span, self._current.set(span)

    def finish(self, opened: tuple) -> Span:
        span, token = opened
        span.end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(span)
        return span

    def wrap(self, obj: object, layer: str, methods: Iterable[str]) -> None:
        """Shadow ``obj``'s methods with recording wrappers."""
        for name in methods:
            setattr(obj, name, self._wrapper(getattr(obj, name),
                                             f"{layer}.{name}", layer))

    def wrap_handler(self, handler_class: type) -> type:
        """A subclass of an HTTP handler whose do_* methods record spans.

        Wrapping ``do_GET`` and friends, not ``handle_one_request``,
        keeps the wait for a kept-alive client's next request out of
        the server span.
        """
        tracer = self

        def traced(verb: str):
            original = getattr(handler_class, f"do_{verb}")

            def do(self) -> None:
                opened = tracer.begin(f"server.{verb}", "server")
                try:
                    original(self)
                finally:
                    tracer.finish(opened)
            return do

        return type("Traced" + handler_class.__name__, (handler_class,), {
            f"do_{verb}": traced(verb) for verb in ("GET", "POST", "PUT")})

    def _wrapper(self, method, name: str, layer: str):
        tracer = self
        if inspect.iscoroutinefunction(method):
            @functools.wraps(method)
            async def traced_async(*args, **kwargs):
                opened = tracer.begin(name, layer, _key_of(args))
                try:
                    return await method(*args, **kwargs)
                finally:
                    tracer.finish(opened)
            return traced_async

        @functools.wraps(method)
        def traced(*args, **kwargs):
            opened = tracer.begin(name, layer, _key_of(args))
            try:
                return method(*args, **kwargs)
            finally:
                tracer.finish(opened)
        return traced

    # -- analysis ------------------------------------------------------

    def link(self) -> None:
        """Attach orphan spans to their causes and give each a trace id."""
        if self._linked:
            return
        self._linked = True
        ops = sorted((s for s in self.spans if s.layer == "op"),
                     key=lambda s: s.start)
        starts = [op.start for op in ops]
        groups: dict[int, list[Span]] = {id(op): [] for op in ops}
        orphans = []
        for span in sorted(self.spans, key=lambda s: s.start):
            root = _root(span)
            if root.layer == "op":
                groups[id(root)].append(span)
            elif root is span:
                orphans.append(span)
        for span in orphans:
            cause = self._container(span, ops, starts, groups)
            if cause is not None:
                span.parent = cause
                groups[id(_root(cause))].append(span)
        for span in self.spans:
            if span.parent is not None:
                span.parent.children.append(span)
            span.trace = _root(span).trace

    @staticmethod
    def _container(span: Span, ops: list[Span], starts: list[float],
                   groups: dict[int, list[Span]]) -> Span | None:
        """The deepest span of another thread whose interval holds ``span``.

        Only the operations around ``span`` are searched: operations run
        one at a time, or a few at once inside a write burst.
        """
        best: Span | None = None
        best_rank = (False, 0.0)
        index = bisect.bisect_right(starts, span.start) - 1
        for op in ops[max(0, index - _BURST_WINDOW):index + 1]:
            if op.end < span.end:
                continue
            for other in (op, *groups[id(op)]):
                if (other.thread == span.thread or other.start > span.start
                        or other.end < span.end):
                    continue
                # Prefer an identifier match, then the deepest span.
                rank = (span.key is not None and other.key == span.key,
                        other.start)
                if best is None or rank >= best_rank:
                    best, best_rank = other, rank
        return best

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (ids are list positions)."""
        self.link()
        ids = {id(span): index for index, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": (ids[id(span.parent)]
                               if span.parent is not None else None),
                    "trace": span.trace,
                    "thread": span.thread,
                    "key": span.key,
                }) + "\n")
