"""Resilience subsystem: fault injection, degraded serving, self-healing.

The pipeline this package hardens is the one the rest of the library
builds: plan a placement, materialize it on a cluster, serve a trace.
Here that pipeline meets failure on purpose —

* :mod:`repro.resilience.faults` injects deterministic, seeded crash /
  recover / slow / partition schedules over virtual (operation-index)
  time;
* :mod:`repro.resilience.degraded` quantifies what each fault epoch
  does to availability and communication cost, single-copy vs
  replicated;
* :mod:`repro.resilience.healing` keeps planning alive with the
  ``"resilient"`` fallback-chain planner;
* :mod:`repro.resilience.repair` re-places only what a crash lost,
  onto surviving capacity, and re-replicates under-replicated objects
  into the cheapest valid failure domain;
* :mod:`repro.resilience.chaos` runs the whole loop end to end and
  emits the byte-reproducible :class:`DegradedReport` behind the
  ``repro chaos`` CLI command.
"""

from repro.resilience.chaos import ChaosConfig, run_chaos, synthetic_scenario
from repro.resilience.degraded import (
    DegradedReport,
    EpochReport,
    ModeStats,
    mode_stats,
)
from repro.resilience.faults import (
    CRASH_DOMAIN,
    FAULT_KINDS,
    HEAL_DOMAIN,
    ClusterView,
    Epoch,
    FaultEvent,
    FaultSchedule,
    FaultState,
)
from repro.resilience.healing import FallbackStep, plan_with_fallbacks
from repro.resilience.repair import (
    RepairOutcome,
    ReplicaRepairOutcome,
    re_replicate,
    replace_lost_objects,
)

__all__ = [
    "CRASH_DOMAIN",
    "FAULT_KINDS",
    "HEAL_DOMAIN",
    "ChaosConfig",
    "ClusterView",
    "DegradedReport",
    "Epoch",
    "EpochReport",
    "FallbackStep",
    "FaultEvent",
    "FaultSchedule",
    "FaultState",
    "ModeStats",
    "RepairOutcome",
    "ReplicaRepairOutcome",
    "mode_stats",
    "plan_with_fallbacks",
    "re_replicate",
    "replace_lost_objects",
    "run_chaos",
    "synthetic_scenario",
]
