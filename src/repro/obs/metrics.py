"""Metrics: counters, gauges, and histograms with percentile summaries.

The registry is the numeric side of the observability layer — where
spans say *where time went*, metrics say *how much of what happened*:
bytes shipped per query, rounding-trial costs, LP sizes.  All three
instrument kinds are thread-safe; only the batched
:meth:`Histogram.observe_counts` uses numpy.

Naming convention: dotted lowercase paths (``engine.query.bytes``,
``lp.solve_seconds``).  The Prometheus exporter rewrites dots to
underscores; the JSON exporter keeps them verbatim.
"""

from __future__ import annotations

import random
import threading
import zlib
from typing import Any, Iterator, Mapping, Sequence

import numpy as np


def _label_key(name: str, labels: Mapping[str, str] | None) -> str:
    """Canonical registry key: name plus sorted label pairs."""
    if not labels:
        return name
    pairs = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{pairs}}}"


class Counter:
    """A monotonically increasing count (events, bytes, trials).

    ``labels`` are optional exposition-format key/value pairs (e.g.
    ``{"case": "log_replay"}``); they distinguish instruments sharing
    a name and are rendered — escaped — by the Prometheus exporter.
    """

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Mapping[str, str] | None = None):
        self.name = name
        self.labels: dict[str, str] = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def key(self) -> str:
        """Registry/report key: name plus sorted labels."""
        return _label_key(self.name, self.labels)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be nonnegative)."""
        if amount < 0:
            raise ValueError("counters only go up; use a gauge instead")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self._value})"


class Gauge:
    """A point-in-time value that can move either way (sizes, loads)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Mapping[str, str] | None = None):
        self.name = name
        self.labels: dict[str, str] = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def key(self) -> str:
        """Registry/report key: name plus sorted labels."""
        return _label_key(self.name, self.labels)

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self._value})"


class Histogram:
    """A distribution with percentile summaries.

    Two retention modes:

    * **Exact** (``reservoir=None``, the default): every observation is
      retained verbatim and percentiles are exact — computed with the
      linear-interpolation rule numpy uses by default.  Right for the
      short planning/evaluation runs this repo mostly times.
    * **Capped reservoir** (``reservoir=N``): exact until ``N``
      observations, then classic reservoir sampling (Vitter's
      Algorithm R) over a fixed-size sample, so memory stays bounded
      under long ``repro online`` runs while percentiles stay unbiased
      estimates.  ``count``/``sum``/``min``/``max``/``mean`` remain
      exact in both modes — only the percentile sample is capped.

    The reservoir's RNG is seeded from the histogram *name*, never the
    wall clock, so a deterministic observation stream yields a
    deterministic summary.
    """

    __slots__ = (
        "name",
        "labels",
        "reservoir",
        "_values",
        "_sorted",
        "_lock",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_rng",
    )

    def __init__(
        self,
        name: str,
        reservoir: int | None = None,
        labels: Mapping[str, str] | None = None,
    ):
        if reservoir is not None and reservoir < 1:
            raise ValueError("reservoir must be at least 1 (or None)")
        self.name = name
        self.labels: dict[str, str] = dict(labels or {})
        self.reservoir = reservoir
        self._values: list[float] = []
        self._sorted = True
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0
        self._rng = (
            None
            if reservoir is None
            else random.Random(zlib.crc32(name.encode("utf-8")))
        )

    @property
    def key(self) -> str:
        """Registry/report key: name plus sorted labels."""
        return _label_key(self.name, self.labels)

    def _observe_locked(self, value: float) -> None:
        self._count += 1
        self._sum += value
        if self._count == 1:
            self._min = self._max = value
        else:
            self._min = min(self._min, value)
            self._max = max(self._max, value)
        if self.reservoir is None or len(self._values) < self.reservoir:
            if self._sorted and self._values and value < self._values[-1]:
                self._sorted = False
            self._values.append(value)
            return
        # Algorithm R: observation n survives with probability k/n.
        assert self._rng is not None
        slot = self._rng.randrange(self._count)
        if slot < self.reservoir:
            self._values[slot] = value
            self._sorted = False

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self._observe_locked(float(value))

    def observe_many(self, value: float, count: int) -> None:
        """Record ``count`` identical observations in one call.

        Equivalent to ``count`` :meth:`observe` calls — the batched
        replay path aggregates repeated queries and reports each
        unique value once with its multiplicity.
        """
        if count < 0:
            raise ValueError("count must be nonnegative")
        if count == 0:
            return
        value = float(value)
        with self._lock:
            if self.reservoir is None:
                self._count += count
                self._sum += value * count
                if self._count == count:
                    self._min = self._max = value
                else:
                    self._min = min(self._min, value)
                    self._max = max(self._max, value)
                if self._sorted and self._values and value < self._values[-1]:
                    self._sorted = False
                self._values.extend([value] * count)
            else:
                for _ in range(count):
                    self._observe_locked(value)

    def observe_counts(
        self, values: Sequence[float] | np.ndarray, counts: Sequence[int] | np.ndarray
    ) -> None:
        """Record ``counts[k]`` copies of each ``values[k]``, in order.

        Equivalent to one :meth:`observe_many` call per pair: the same
        count, sum (accumulated in the same order), min, max and sample,
        and in reservoir mode the same random draws.  The batched replay
        path feeds each per-query histogram with one call.
        """
        values = np.asarray(values, dtype=np.float64)
        counts = np.asarray(counts, dtype=np.int64)
        if values.shape != counts.shape or values.ndim != 1:
            raise ValueError("values and counts must be 1-D and of one length")
        if np.any(counts < 0):
            raise ValueError("count must be nonnegative")
        observed = counts > 0
        values, counts = values[observed], counts[observed]
        if not len(values):
            return
        listed = values.tolist()
        with self._lock:
            if self.reservoir is not None:
                for value, count in zip(listed, counts.tolist()):
                    for _ in range(count):
                        self._observe_locked(value)
                return
            if self._count == 0:
                self._min, self._max = min(listed), max(listed)
            else:
                self._min = min(self._min, *listed)
                self._max = max(self._max, *listed)
            self._count += int(counts.sum())
            # add.accumulate adds left to right, as observe_many's += does.
            terms = np.concatenate(([self._sum], values * counts))
            self._sum = float(np.add.accumulate(terms)[-1])
            if self._sorted and (
                (self._values and listed[0] < self._values[-1])
                or bool(np.any(values[1:] < values[:-1]))
            ):
                self._sorted = False
            self._values.extend(np.repeat(values, counts).tolist())

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> float:
        return self._min

    @property
    def max(self) -> float:
        return self._max

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def retained(self) -> int:
        """Observations currently in the percentile sample."""
        return len(self._values)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100), linearly interpolated.

        Exact in exact mode; an unbiased reservoir estimate once a
        capped histogram has seen more than ``reservoir`` observations.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            if not self._values:
                return 0.0
            if not self._sorted:
                self._values.sort()
                self._sorted = True
            values = self._values
            rank = (p / 100.0) * (len(values) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(values) - 1)
            frac = rank - lo
            return values[lo] * (1.0 - frac) + values[hi] * frac

    def summary(self) -> dict[str, float]:
        """count/sum/min/max/mean plus p50, p90, p95, p99."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for the disabled path."""

    __slots__ = ()
    name = "noop"
    key = "noop"
    labels: dict[str, str] = {}
    reservoir = None
    retained = 0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def dec(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def observe_many(self, value: float, count: int) -> None:
        return None

    def observe_counts(
        self, values: Sequence[float] | np.ndarray, counts: Sequence[int] | np.ndarray
    ) -> None:
        return None

    value = 0.0
    count = 0
    sum = 0.0
    min = 0.0
    max = 0.0
    mean = 0.0

    def percentile(self, p: float) -> float:
        return 0.0

    def summary(self) -> dict[str, float]:
        return {}

    def __repr__(self) -> str:
        return "NullInstrument()"


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Get-or-create home for named instruments.

    Asking twice for the same name *and labels* returns the same
    instrument; asking for a key already registered as a different
    kind raises.  Constructor-only options (a histogram's
    ``reservoir``) apply when the call creates the instrument —
    first creation wins, later calls just fetch.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(
        self,
        name: str,
        kind: type,
        labels: Mapping[str, str] | None = None,
        **options: Any,
    ) -> Any:
        key = _label_key(name, labels)
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = self._instruments[key] = kind(
                    name, labels=labels, **options
                )
            elif not isinstance(instrument, kind):
                raise ValueError(
                    f"metric {key!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> Counter:
        return self._get(name, Counter, labels)

    def gauge(self, name: str, labels: Mapping[str, str] | None = None) -> Gauge:
        return self._get(name, Gauge, labels)

    def histogram(
        self,
        name: str,
        reservoir: int | None = None,
        labels: Mapping[str, str] | None = None,
    ) -> Histogram:
        return self._get(name, Histogram, labels, reservoir=reservoir)

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        with self._lock:
            return iter(list(self._instruments.values()))

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)
