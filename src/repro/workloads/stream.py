"""Timestamped query streams with diurnal load patterns.

The latency simulator and the online control loop both consume traffic
over *time*; this module turns a query model into a timestamped stream
whose arrival rate follows a configurable diurnal curve (real search
traffic peaks mid-day and troughs at night), and slices streams into
periods for the control loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.search.query import Query
from repro.workloads.query_gen import QueryWorkloadModel


@dataclass(frozen=True)
class TimedQuery:
    """A query stamped with its arrival time (seconds from stream start)."""

    time_s: float
    query: Query


def diurnal_rate(time_s: float, base_qps: float, peak_factor: float = 2.0) -> float:
    """Arrival rate at a point in the 24h cycle.

    A sinusoid with its trough at hour 4 and peak at hour 16, scaled so
    the rate swings between ``base/peak_factor`` and ``base*peak_factor``.
    """
    if base_qps <= 0:
        raise ValueError("base_qps must be positive")
    if peak_factor < 1:
        raise ValueError("peak_factor must be at least 1")
    hours = (time_s / 3600.0) % 24.0
    phase = np.cos(2 * np.pi * (hours - 16.0) / 24.0)  # +1 at peak hour
    log_swing = np.log(peak_factor)
    return float(base_qps * np.exp(log_swing * phase))


def generate_stream(
    model: QueryWorkloadModel,
    duration_s: float,
    base_qps: float = 10.0,
    peak_factor: float = 2.0,
    seed: int | None = 0,
) -> list[TimedQuery]:
    """Generate a timestamped stream via a thinned Poisson process.

    Args:
        model: Query content generator.
        duration_s: Stream length in seconds.
        base_qps: Geometric-mean arrival rate.
        peak_factor: Peak-to-mean rate ratio of the diurnal curve.
        seed: Seed for arrivals and query content.

    Returns:
        Timed queries in increasing time order.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    rng = np.random.default_rng(seed)
    max_rate = base_qps * peak_factor

    # Thinning: draw candidate arrivals at the max rate, keep each with
    # probability rate(t)/max_rate.
    times = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / max_rate)
        if t >= duration_s:
            break
        if rng.random() <= diurnal_rate(t, base_qps, peak_factor) / max_rate:
            times.append(t)

    log = model.generate(len(times), rng=rng)
    return [TimedQuery(time_s, query) for time_s, query in zip(times, log)]


def split_stream_by_window(
    stream: list[TimedQuery], window_s: float
) -> Iterator[list[TimedQuery]]:
    """Slice a stream into consecutive fixed-length windows.

    Empty trailing windows are not produced; empty windows in the
    middle of the stream are (a control loop sees quiet periods).

    Raises:
        ValueError: On a non-positive window, or when a timestamp runs
            backwards — out-of-order streams would be silently misfiled
            into the wrong windows.
    """
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    if not stream:
        return
    current: list[TimedQuery] = []
    boundary = window_s
    last_time: float | None = None
    for timed in stream:
        if last_time is not None and timed.time_s < last_time:
            raise ValueError(
                "stream timestamps must be non-decreasing: got "
                f"{timed.time_s:g}s after {last_time:g}s"
            )
        last_time = timed.time_s
        while timed.time_s >= boundary:
            yield current
            current = []
            boundary += window_s
        current.append(timed)
    yield current
