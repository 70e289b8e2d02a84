"""The serving layer: batched asyncio routing over hot-swappable plans.

See docs/SERVING.md for the architecture.  The pieces:

* :mod:`repro.serve.snapshot` — immutable :class:`PlanSnapshot` behind
  an atomic-swap :class:`PlanHandle`;
* :mod:`repro.serve.admission` — token-bucket admission with typed
  :class:`AdmissionError` rejections;
* :mod:`repro.serve.router` — the max-batch/max-delay
  :class:`QueryRouter` with its explicit service-time model;
* :mod:`repro.serve.vtime` — the deterministic
  :class:`VirtualTimeLoop` that makes loadgen byte-reproducible;
* :mod:`repro.serve.loadgen` — seeded scenarios and the
  :class:`ServeReport` deliverable.
"""

from repro.serve.admission import AdmissionError, TokenBucket
from repro.serve.loadgen import (
    LoadgenConfig,
    ServeReport,
    build_scenario,
    run_loadgen,
)
from repro.serve.router import QueryRouter, RoutedQuery, ServeConfig
from repro.serve.snapshot import PlanHandle, PlanSnapshot
from repro.serve.vtime import VirtualTimeLoop, run_virtual

__all__ = [
    "AdmissionError",
    "TokenBucket",
    "LoadgenConfig",
    "ServeReport",
    "build_scenario",
    "run_loadgen",
    "QueryRouter",
    "RoutedQuery",
    "ServeConfig",
    "PlanHandle",
    "PlanSnapshot",
    "VirtualTimeLoop",
    "run_virtual",
]
