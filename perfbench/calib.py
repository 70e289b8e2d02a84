"""Host-speed calibration: a fixed reference loop timed between units.

Shared hosts change speed by up to ~1.6x within seconds (SMT siblings
and frequency are not ours to pin).  Every timing the benchmark reports
is therefore rescaled to a nominal host speed.  A short, fixed mix of
interpreter and numpy work, the same kinds of work the program does, is
timed between units of real work.  Each unit's wall time is multiplied
by ``REFERENCE_S / reference wall``, averaged over the samples within
WINDOW_S of the unit.  A faster program still reads faster, because the
reference is benchmark code and never changes; a slower host does not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Wall seconds of one reference() call on an unloaded reference host;
# normalized timings read as wall-clock on that host.
REFERENCE_S = 0.008
REPEATS = 3
INTERVAL_S = 0.5
# Samples this close to a unit set its speed: wide enough to average
# several noisy samples, narrow enough to follow regimes of a few seconds.
WINDOW_S = 2.0

_KEYS = [(i * 7919 % 613, i * 104729 % 409) for i in range(6000)]
_A = np.arange(0, 60000, 3, dtype=np.int64)
_B = np.arange(0, 60000, 2, dtype=np.int64)


def reference() -> int:
    """Fixed work: tuple-keyed dict counting, a sort, numpy intersects."""
    counts: dict = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    hits = 0
    for _ in range(4):
        hits += int(np.intersect1d(_A, _B, assume_unique=True).size)
    return hits + len(ordered)


def sample(repeats: int = REPEATS) -> float:
    """Host speed now: REFERENCE_S over the median of a few reference runs."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference()
        walls.append(time.perf_counter() - start)
    return REFERENCE_S / statistics.median(walls)


class Calibrator:
    """Host-speed samples taken along a run, between units of work."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.speeds: list[float] = []

    def tick(self, force: bool = False, repeats: int = REPEATS) -> None:
        """Sample the host speed if INTERVAL_S has passed (or ``force``)."""
        if force or not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            speed = sample(repeats)
            self.times.append(time.perf_counter())
            self.speeds.append(speed)

    @property
    def speed(self) -> float:
        """The run's median host speed (reported, not used to rescale)."""
        return statistics.median(self.speeds)

    def normalize(self, start: float, wall: float) -> float:
        """``wall`` seconds from ``start``, rescaled to nominal host speed
        by the mean sample within WINDOW_S of the interval (the nearest
        sample when none is)."""
        lo, hi = start - WINDOW_S, start + wall + WINDOW_S
        near = [s for t, s in zip(self.times, self.speeds) if lo <= t <= hi]
        if not near:
            mid = start + wall / 2.0
            near = [min(zip(self.times, self.speeds), key=lambda ts: abs(ts[0] - mid))[1]]
        return wall * statistics.mean(near)
