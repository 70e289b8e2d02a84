"""Global instrumentation state with a zero-cost disabled path.

The rest of the codebase reaches observability exclusively through the
module-level helpers here (``span``, ``timed``, ``counter``, ``gauge``,
``histogram``).  When nothing has called :func:`enable`, every helper
returns a shared no-op object — one global read and one attribute call,
no allocation, no branching at call sites — so instrumentation can stay
threaded through hot paths permanently.

``timed`` is the one exception to "no-op when disabled": it always
returns a real (detached) :class:`~repro.obs.span.Span`, because some
timings are part of the public result surface (``LPStats.solve_seconds``,
``FullReport.elapsed_seconds``) and must exist whether or not a run is
being traced.  When tracing is on, the same span is also attached to
the trace tree.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.obs.journal import Journal
from repro.obs.metrics import (
    NULL_INSTRUMENT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.span import NULL_SPAN, Span, Tracer, _OpenSpan


class Instrumentation:
    """One tracer + one metrics registry (+ optional journal) — the
    unit of enablement.

    The journal is opt-in: most instrumented runs want spans and
    metrics but not a decision log, and a journal-less unit keeps
    :func:`record` a no-op even while tracing is on.
    """

    def __init__(self, journal: Journal | None = None) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.journal = journal


_lock = threading.Lock()
_active: Instrumentation | None = None


def enable(instrumentation: Instrumentation | None = None) -> Instrumentation:
    """Turn instrumentation on (idempotent) and return the active unit.

    Passing an existing :class:`Instrumentation` activates that one —
    useful for tests that want a private registry.
    """
    global _active
    with _lock:
        if instrumentation is not None:
            _active = instrumentation
        elif _active is None:
            _active = Instrumentation()
        return _active


def disable() -> None:
    """Turn instrumentation off; helpers revert to the no-op path."""
    global _active
    with _lock:
        _active = None


def is_enabled() -> bool:
    """Whether an instrumentation unit is active."""
    return _active is not None


def current() -> Instrumentation | None:
    """The active instrumentation unit, or None when disabled."""
    return _active


def span(name: str, **attributes: Any) -> Any:
    """A traced span context manager (shared no-op when disabled)."""
    active = _active
    if active is None:
        return NULL_SPAN
    return active.tracer.span(name, **attributes)


class _TimedSpan:
    """Context manager yielding a span that always measures time.

    When tracing is active the span joins the trace tree; otherwise it
    is detached but still stamps start/end, so callers can read
    ``duration`` either way.
    """

    __slots__ = ("_name", "_attributes", "_span", "_open")

    def __init__(self, name: str, attributes: dict[str, Any]):
        self._name = name
        self._attributes = attributes
        self._span: Span | None = None
        self._open: _OpenSpan | None = None

    def __enter__(self) -> Span:
        active = _active
        if active is None:
            self._span = Span(self._name, self._attributes)
        else:
            self._open = active.tracer.span(self._name, **self._attributes)
            self._span = self._open.__enter__()
        return self._span

    def __exit__(self, *exc: object) -> None:
        if self._open is not None:
            self._open.__exit__(*exc)
        elif self._span is not None:
            self._span.finish()


def timed(name: str, **attributes: Any) -> _TimedSpan:
    """A span that measures wall-clock even when instrumentation is off.

    Use for timings that feed public result fields::

        with obs.timed("lp.solve") as sp:
            result = linprog(program.c, ...)
        elapsed = sp.duration
    """
    return _TimedSpan(name, attributes)


def record(kind: str, **fields: Any) -> dict | None:
    """Append one event to the active journal (no-op otherwise).

    The flight-recorder analogue of :func:`counter`: call sites stay
    threaded through control loops permanently and cost one global
    read plus a None check until a journal-carrying
    :class:`Instrumentation` is enabled.  Payload rules are the
    journal's: JSON-encodable values only, virtual time in ``t``,
    never the wall clock (see :mod:`repro.obs.journal`).

    Returns:
        The stored record (with ``seq``), or None when not journaling.
    """
    active = _active
    if active is None or active.journal is None:
        return None
    return active.journal.record(kind, **fields)


def counter(name: str, labels: dict[str, str] | None = None) -> Counter:
    """The named counter (shared no-op when disabled)."""
    active = _active
    if active is None:
        return NULL_INSTRUMENT  # type: ignore[return-value]
    return active.metrics.counter(name, labels=labels)


def gauge(name: str, labels: dict[str, str] | None = None) -> Gauge:
    """The named gauge (shared no-op when disabled)."""
    active = _active
    if active is None:
        return NULL_INSTRUMENT  # type: ignore[return-value]
    return active.metrics.gauge(name, labels=labels)


def histogram(
    name: str,
    reservoir: int | None = None,
    labels: dict[str, str] | None = None,
) -> Histogram:
    """The named histogram (shared no-op when disabled).

    ``reservoir`` bounds retained observations for long-running loops
    (exact until full, then reservoir sampling); it applies only when
    this call creates the histogram — see
    :meth:`~repro.obs.metrics.MetricsRegistry.histogram`.
    """
    active = _active
    if active is None:
        return NULL_INSTRUMENT  # type: ignore[return-value]
    return active.metrics.histogram(name, reservoir=reservoir, labels=labels)
