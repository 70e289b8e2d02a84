"""Windowing over timestamped operation streams.

The online control loop consumes traffic over *time*: the stream is cut
into tumbling (fixed-length, non-overlapping) periods, and at each
period boundary the correlation estimate can be exponentially decayed
so correlations that stop occurring age out instead of haunting the
placement forever.

Works directly over :class:`~repro.workloads.stream.TimedQuery`
streams (a query's keywords are its operation) as well as over plain
:class:`TimedOperation` records, so the same controller drives search
workloads and generic multi-object operation traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

from repro.core.correlation import PairEstimator
from repro.workloads.stream import TimedQuery

ObjectId = Hashable
Operation = tuple[ObjectId, ...]


@dataclass(frozen=True)
class TimedOperation:
    """A multi-object operation stamped with its arrival time."""

    time_s: float
    objects: Operation


def as_timed_operation(item: "TimedQuery | TimedOperation") -> TimedOperation:
    """Normalize a stream element to a :class:`TimedOperation`.

    Accepts :class:`~repro.workloads.stream.TimedQuery` (the query's
    keyword tuple becomes the operation) or :class:`TimedOperation`
    (passed through).
    """
    if isinstance(item, TimedOperation):
        return item
    if isinstance(item, TimedQuery):
        return TimedOperation(item.time_s, tuple(item.query.keywords))
    raise TypeError(
        f"expected TimedQuery or TimedOperation, got {type(item).__name__}"
    )


@dataclass(frozen=True)
class StreamPeriod:
    """One tumbling window of a stream.

    Attributes:
        index: Zero-based period number.
        start_s: Inclusive period start.
        end_s: Exclusive period end (``start_s + window_s``).
        operations: The period's operations, in arrival order.  An
            operation landing exactly on ``end_s`` belongs to the
            *next* period.
    """

    index: int
    start_s: float
    end_s: float
    operations: tuple[Operation, ...]

    @property
    def num_operations(self) -> int:
        """Operations in the period."""
        return len(self.operations)


def tumbling_periods(
    stream: Iterable["TimedQuery | TimedOperation"],
    window_s: float,
    origin_s: float | None = None,
) -> Iterator[StreamPeriod]:
    """Cut a timestamped stream into consecutive fixed-length periods.

    Period 0 is anchored at the first observed timestamp's window —
    ``floor(first_time / window_s) * window_s`` — so streams with
    absolute epoch timestamps do not produce millions of leading empty
    periods.  Quiet periods in the middle of the stream are emitted
    empty (the control loop still ticks); trailing empty periods are
    not.  The stream is consumed in one pass, so generators work.

    Args:
        stream: Timestamped queries or operations in non-decreasing
            time order.
        window_s: Period length in seconds.
        origin_s: Explicit start of period 0, overriding the
            first-timestamp anchor; every timestamp must be at or
            after it.

    Raises:
        ValueError: On a non-positive window, on a NaN or infinite
            timestamp, when a timestamp runs backwards (the slicing
            would silently misfile operations), or when a timestamp
            precedes an explicit ``origin_s``.
    """
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    index = 0
    boundary: float | None = None if origin_s is None else origin_s + window_s
    current: list[Operation] = []
    last_time: float | None = None
    for item in stream:
        timed = as_timed_operation(item)
        if not math.isfinite(timed.time_s):
            raise ValueError(f"stream timestamp {timed.time_s!r} is not finite")
        if last_time is None:
            if origin_s is not None and timed.time_s < origin_s:
                raise ValueError(
                    f"timestamp {timed.time_s:g}s precedes the stream "
                    f"origin {origin_s:g}s"
                )
            if boundary is None:
                boundary = math.floor(timed.time_s / window_s) * window_s + window_s
        elif timed.time_s < last_time:
            raise ValueError(
                "stream timestamps must be non-decreasing: got "
                f"{timed.time_s:g}s after {last_time:g}s"
            )
        last_time = timed.time_s
        while timed.time_s >= boundary:
            yield StreamPeriod(
                index, boundary - window_s, boundary, tuple(current)
            )
            current = []
            index += 1
            boundary += window_s
        current.append(timed.objects)
    if last_time is not None:
        yield StreamPeriod(index, boundary - window_s, boundary, tuple(current))


class DecayingEstimator:
    """A :class:`PairEstimator` aged exponentially at period boundaries.

    Wraps any estimator implementing the protocol; calling
    :meth:`advance_period` multiplies all history by ``factor``, so an
    observation's weight after ``p`` further periods is ``factor**p``
    — a correlation that disappears from the stream halves out of the
    estimate with half-life ``log(0.5) / log(factor)`` periods.

    Args:
        estimator: The wrapped estimator (exact or sketch).
        factor: Per-period decay multiplier in ``(0, 1]``; 1 disables
            aging (a pure tumbling accumulation).
    """

    def __init__(self, estimator: PairEstimator, factor: float = 1.0):
        if not 0.0 < factor <= 1.0:
            raise ValueError("decay factor must be in (0, 1]")
        self.estimator = estimator
        self.factor = factor
        self.periods_advanced = 0

    def advance_period(self) -> None:
        """Apply one period's worth of decay to the wrapped history."""
        if self.factor < 1.0:
            self.estimator.decay(self.factor)
        self.periods_advanced += 1

    # ------------------------------------------------------------------
    # PairEstimator delegation
    # ------------------------------------------------------------------
    @property
    def num_operations(self) -> int:
        """Discounted operation count of the wrapped estimator."""
        return self.estimator.num_operations

    def observe(self, operation: Sequence[ObjectId]) -> None:
        """Fold one operation into the wrapped estimator."""
        self.estimator.observe(operation)

    def observe_all(self, trace: Iterable[Sequence[ObjectId]]) -> None:
        """Fold every operation of ``trace`` into the wrapped estimator."""
        self.estimator.observe_all(trace)

    def observe_trace(self, trace: Iterable[Sequence[ObjectId]]) -> int:
        """Fold a whole trace via the wrapped batched ingest, if any.

        Estimators exposing ``observe_trace`` (the exact and sketch
        backends both do) get the vectorized path; anything else falls
        back to per-operation :meth:`observe` with the same result.
        """
        batched = getattr(self.estimator, "observe_trace", None)
        if batched is not None:
            return int(batched(trace))
        ops = 0
        for operation in trace:
            self.estimator.observe(operation)
            ops += 1
        return ops

    def observe_columns(self, columns) -> int:
        """Fold a columnar trace via the wrapped columnar ingest.

        Estimators exposing ``observe_columns`` (the sketch backend
        does) get the vectorized pair extraction of
        :class:`~repro.workloads.traces.TraceColumns`; anything else
        replays the row view through :meth:`observe_trace`, which is
        byte-identical by construction.
        """
        batched = getattr(self.estimator, "observe_columns", None)
        if batched is not None:
            return int(batched(columns))
        return self.observe_trace(columns.operations())

    def decay(self, factor: float) -> None:
        """Explicit extra decay (beyond the per-period factor)."""
        self.estimator.decay(factor)

    def correlations(self, min_support: int = 1):
        """Current pair-probability estimates."""
        return self.estimator.correlations(min_support)

    def top_pairs(self, k: int):
        """The ``k`` most correlated pairs, descending."""
        return self.estimator.top_pairs(k)
