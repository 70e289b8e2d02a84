"""Windowing over timestamped operation streams.

The online control loop consumes traffic over *time*: the stream is cut
into tumbling (fixed-length, non-overlapping) periods.  After each
period the controller decays its correlation estimate by the config's
factor (:meth:`~repro.online.sketch.SketchCorrelationEstimator.decay`), so
correlations that stop occurring age out instead of haunting the
placement forever.

Works directly over :class:`~repro.workloads.stream.TimedQuery`
streams (a query's keywords are its operation) as well as over plain
:class:`TimedOperation` records, so the same controller drives search
workloads and generic multi-object operation traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

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

    Raises:
        ValueError: On a window that is not positive and finite, on a
            NaN or infinite timestamp, or when a timestamp runs
            backwards (the slicing would silently misfile operations).
    """
    if not (math.isfinite(window_s) and window_s > 0):
        raise ValueError(f"window_s must be positive and finite, got {window_s!r}")
    index = 0
    boundary = 0.0
    current: list[Operation] = []
    last_time: float | None = None
    for item in stream:
        timed = as_timed_operation(item)
        if not math.isfinite(timed.time_s):
            raise ValueError(f"stream timestamp {timed.time_s!r} is not finite")
        if last_time is None:
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
