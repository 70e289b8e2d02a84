"""Timestamped query streams with diurnal load patterns.

The latency simulator and the online control loop both consume traffic
over *time*; this module turns a query model into a timestamped stream
whose arrival rate follows a configurable diurnal curve (real search
traffic peaks mid-day and troughs at night).  The control loop cuts it
into periods with :func:`repro.online.windows.tumbling_periods`.
"""

from __future__ import annotations

from dataclasses import dataclass

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
