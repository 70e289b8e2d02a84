"""Streaming correlation mining and online replanning.

This package turns the offline LPRR pipeline into a continuous control
loop over timestamped operation streams:

* :mod:`repro.online.sketch` — memory-bounded correlation estimation: a
  seeded Count-Min sketch plus a Space-Saving heavy-hitter tracker,
  combined into :class:`SketchCorrelationEstimator` with provable
  overcount bounds.
* :mod:`repro.online.windows` — tumbling periods over
  :class:`~repro.workloads.stream.TimedQuery` /
  :class:`TimedOperation` streams.
* :mod:`repro.online.drift` — replan triggers from top-K pair churn and
  estimated-cost inflation.
* :mod:`repro.online.controller` — the :class:`OnlinePlanner` daemon:
  ingest, estimate, detect drift, replan through the resilient fallback
  chain, migrate under a byte budget, and report byte-reproducibly.

See ``docs/ONLINE.md`` for the theory (sketch error bounds, drift
thresholds, migration budgets) and determinism guarantees.
"""

from repro.online.controller import (
    ONLINE_REPORT_SCHEMA,
    OnlineConfig,
    OnlinePlanner,
    OnlineReport,
    PeriodDecision,
    heavy_hitter_plan,
)
from repro.online.drift import (
    DriftDecision,
    DriftDetector,
    DriftThresholds,
    pair_churn,
)
from repro.online.sketch import (
    CountMinSketch,
    SketchCorrelationEstimator,
    SpaceSavingPairs,
)
from repro.online.windows import (
    StreamPeriod,
    TimedOperation,
    as_timed_operation,
    tumbling_periods,
)

__all__ = [
    "ONLINE_REPORT_SCHEMA",
    "CountMinSketch",
    "DriftDecision",
    "DriftDetector",
    "DriftThresholds",
    "OnlineConfig",
    "OnlinePlanner",
    "OnlineReport",
    "PeriodDecision",
    "SketchCorrelationEstimator",
    "SpaceSavingPairs",
    "StreamPeriod",
    "TimedOperation",
    "as_timed_operation",
    "heavy_hitter_plan",
    "pair_churn",
    "tumbling_periods",
]
