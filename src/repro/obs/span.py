"""Span tracing: nested wall-clock timing with attributes.

A :class:`Span` is one timed region of a run — an LP solve, a rounding
trial batch, a trace replay.  Spans nest: entering a span while another
is open makes it a child, so one planning run yields a tree whose
leaves are the primitive costs the paper's evaluation reports
(Section 4: LP solve time, rounding cost, per-query communication).

The :class:`Tracer` keeps a per-thread stack of open spans plus the
list of finished root spans.  It is stdlib-only and thread-safe; each
thread grows its own subtree, and root spans from all threads land in
one shared list.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterator


class Span:
    """One timed region with attributes and child spans.

    Spans are created by :meth:`Tracer.span`, which attaches them to
    the trace tree.  ``duration`` is valid while the span is still
    open — it reads the clock — and final once the span has exited.
    """

    __slots__ = ("name", "attributes", "children", "start_time", "end_time")

    def __init__(self, name: str, attributes: dict[str, Any] | None = None):
        self.name = name
        self.attributes: dict[str, Any] = dict(attributes or {})
        self.children: list[Span] = []
        self.start_time = time.perf_counter()
        self.end_time: float | None = None

    def set(self, **attrs: Any) -> "Span":
        """Attach or overwrite attributes; returns self for chaining."""
        self.attributes.update(attrs)
        return self

    def finish(self) -> None:
        """Stamp the end time (idempotent)."""
        if self.end_time is None:
            self.end_time = time.perf_counter()

    @property
    def duration(self) -> float:
        """Elapsed seconds (to now if the span is still open)."""
        end = self.end_time if self.end_time is not None else time.perf_counter()
        return end - self.start_time

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation of the subtree.

        ``start``/``end`` are ``time.perf_counter`` readings, so a
        subtree rebuilt with :func:`span_from_payload` keeps its
        timeline.
        """
        end = self.end_time if self.end_time is not None else time.perf_counter()
        return {
            "name": self.name,
            "start": self.start_time,
            "end": end,
            "duration_seconds": self.duration,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        state = "open" if self.end_time is None else f"{self.duration:.6f}s"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class _NullSpan:
    """The do-nothing span returned on the disabled fast path.

    A single shared instance stands in for every span when
    instrumentation is off; all methods are no-ops so instrumented
    code never branches on enablement.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def finish(self) -> None:
        return None

    @property
    def duration(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "NullSpan()"


NULL_SPAN = _NullSpan()


class _OpenSpan:
    """Context manager binding a span to a tracer's per-thread stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc: object) -> None:
        self._span.finish()
        self._tracer._pop(self._span)


class Tracer:
    """Collects a forest of spans across threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.roots: list[Span] = []

    def span(self, name: str, **attributes: Any) -> _OpenSpan:
        """Open a span as a child of the innermost open span.

        Use as a context manager::

            with tracer.span("exact.solve", objects=12) as sp:
                ...
                sp.set(solves=2)
        """
        return _OpenSpan(self, Span(name, attributes))

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()

    def all_spans(self) -> Iterator[Span]:
        """Every recorded span, depth-first over all roots."""
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        """All recorded spans with the given name."""
        return [s for s in self.all_spans() if s.name == name]

    def reset(self) -> None:
        """Drop all recorded spans (open stacks are untouched)."""
        with self._lock:
            self.roots.clear()


def span_from_payload(payload: dict[str, Any]) -> Span:
    """Rebuild a :class:`Span` tree from :meth:`Span.to_dict` output.

    This is how saved metrics documents load back into spans
    (:func:`repro.obs.analytics.spans_from_document`).  ``start``/``end``
    are restored verbatim.  Payloads from older metrics documents that
    lack ``start``/``end`` still load; they get a zero-based timeline
    preserving durations.
    """
    span = Span(payload["name"], payload.get("attributes"))
    if "start" in payload:
        span.start_time = float(payload["start"])
        span.end_time = float(payload["end"])
    else:
        span.start_time = 0.0
        span.end_time = float(payload.get("duration_seconds", 0.0))
    for child in payload.get("children", ()):
        span.children.append(span_from_payload(child))
    return span
