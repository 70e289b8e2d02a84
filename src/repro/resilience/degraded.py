"""Degraded-mode analytics: what a fault epoch costs, quantified.

Given a placement (single-copy or replicated) and a
:class:`~repro.resilience.faults.ClusterView`, :func:`mode_stats`
computes the epoch's serving picture: which objects still have a live
copy, which operations remain servable (partition-aware — an operation
needs all its objects reachable *within one side*), and the pair-cost
the survivors pay, expressed as inflation over the healthy cost.

:class:`DegradedReport` is the chaos run's deliverable — per-epoch
:class:`EpochReport` rows comparing single-copy against replicated
serving, plus run-level totals.  Everything in it is derived from the
seed, the trace, and the schedule; no wall-clock ever enters, so the
same seed always produces byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.core.placement import Placement
from repro.core.replication import ReplicatedPlacement
from repro.resilience.faults import ClusterView

ObjectId = Hashable
Operation = Sequence[ObjectId]


@dataclass(frozen=True)
class ModeStats:
    """Serving quality of one placement mode during one epoch.

    Attributes:
        object_availability: Fraction of objects with a live copy.
        operations: Operations attempted in the epoch.
        servable_operations: Operations with every (known) object
            reachable within a single partition side.
        lost_objects: Objects with no live copy.
        degraded_cost: Pair weight still paid remotely by servable
            pairs under the view.
        lost_pair_weight: Pair weight belonging to unservable pairs
            (excluded from ``degraded_cost``).
        cost_inflation: ``degraded_cost`` over the healthy cost of the
            same placement (1.0 when the healthy cost is zero and
            nothing degraded, infinity-free by convention: a zero
            healthy cost with nonzero degraded cost reports the
            degraded cost itself).
    """

    object_availability: float
    operations: int
    servable_operations: int
    lost_objects: int
    degraded_cost: float
    lost_pair_weight: float
    cost_inflation: float

    @property
    def operation_availability(self) -> float:
        """Fraction of the epoch's operations that were servable."""
        if self.operations == 0:
            return 1.0
        return self.servable_operations / self.operations

    def to_dict(self) -> dict:
        """JSON-ready form (floats rounded for stable text output)."""
        return {
            "object_availability": round(self.object_availability, 9),
            "operation_availability": round(self.operation_availability, 9),
            "operations": self.operations,
            "servable_operations": self.servable_operations,
            "lost_objects": self.lost_objects,
            "degraded_cost": round(self.degraded_cost, 6),
            "lost_pair_weight": round(self.lost_pair_weight, 6),
            "cost_inflation": round(self.cost_inflation, 9),
        }


def copy_sets(placement: Placement | ReplicatedPlacement) -> list[set[int]]:
    """Per-object sets of node *indices* holding a copy."""
    if isinstance(placement, ReplicatedPlacement):
        return [set(int(k) for k in row) for row in placement.assignment]
    return [{int(k)} for k in placement.assignment]


def mode_stats(
    placement: Placement | ReplicatedPlacement,
    view: ClusterView,
    operations: Sequence[Operation],
    healthy_cost: float | None = None,
) -> ModeStats:
    """Evaluate one placement under one cluster view.

    Args:
        placement: Single-copy or replicated placement.
        view: Cluster health for the epoch.
        operations: The epoch's slice of the trace; object ids unknown
            to the placement's problem are ignored, matching the
            engines.
        healthy_cost: The placement's cost with everything up; computed
            if omitted (pass it in when evaluating many epochs).

    Returns:
        The epoch's :class:`ModeStats`.

    Raises:
        ValueError: If ``view`` describes a cluster of a different size
            than the placement's problem.
    """
    problem = placement.problem
    if view.num_nodes != problem.num_nodes:
        raise ValueError(
            f"view has {view.num_nodes} nodes but the placement has "
            f"{problem.num_nodes}"
        )
    copies = copy_sets(placement)
    groups = view.groups()
    live = [
        tuple(c & g for g in groups)  # live copies per partition side
        for c in copies
    ]
    alive = [any(parts) for parts in live]

    lost = sum(1 for a in alive if not a)
    object_availability = (
        (problem.num_objects - lost) / problem.num_objects
        if problem.num_objects
        else 1.0
    )

    index_of = {obj: i for i, obj in enumerate(problem.object_ids)}
    total_ops = 0
    servable = 0
    for operation in operations:
        total_ops += 1
        known = [index_of[obj] for obj in operation if obj in index_of]
        if any(
            all(live[i][g] for i in known) for g in range(len(groups))
        ) or not known:
            servable += 1

    degraded_cost = 0.0
    lost_weight = 0.0
    for (i, j), weight in zip(problem.pair_index, problem.pair_weights):
        i, j = int(i), int(j)
        both = [
            g
            for g in range(len(groups))
            if live[i][g] and live[j][g]
        ]
        if not both:
            lost_weight += float(weight)
        elif not any(live[i][g] & live[j][g] for g in both):
            degraded_cost += float(weight)

    if healthy_cost is None:
        healthy_cost = placement.communication_cost()
    if healthy_cost > 0:
        inflation = degraded_cost / healthy_cost
    else:
        inflation = degraded_cost if degraded_cost > 0 else 1.0

    return ModeStats(
        object_availability=object_availability,
        operations=total_ops,
        servable_operations=servable,
        lost_objects=lost,
        degraded_cost=degraded_cost,
        lost_pair_weight=lost_weight,
        cost_inflation=inflation,
    )


@dataclass(frozen=True)
class EpochReport:
    """One fault epoch's row in the degraded report.

    Attributes:
        index: Epoch position.
        start: First operation index (inclusive).
        end: One past the last operation index.
        events: JSON forms of the events that opened the epoch.
        down: Crashed node indices throughout the epoch, sorted.
        slow: Slow node indices, sorted.
        isolated: Partitioned-away node indices, sorted.
        single: Serving stats for the single-copy placement.
        replicated: Serving stats for the replicated placement.
        trace_bytes: Bytes the cluster simulation actually moved
            serving the epoch's slice on the single-copy placement.
        trace_unserved: Operations the simulation refused (objects on
            failed nodes).
        repair: Summary of the incremental repair run at epoch end, or
            ``None`` when nothing was lost.
        down_domains: Labels of failure domains crashed as a unit
            throughout the epoch (empty outside domain-mode runs).
    """

    index: int
    start: int
    end: int
    events: tuple[dict, ...]
    down: tuple[int, ...]
    slow: tuple[int, ...]
    isolated: tuple[int, ...]
    single: ModeStats
    replicated: ModeStats
    trace_bytes: float
    trace_unserved: int
    repair: dict | None = None
    down_domains: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """JSON-ready form."""
        doc = {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "events": list(self.events),
            "down": list(self.down),
            "slow": list(self.slow),
            "isolated": list(self.isolated),
            "single": self.single.to_dict(),
            "replicated": self.replicated.to_dict(),
            "trace_bytes": round(self.trace_bytes, 6),
            "trace_unserved": self.trace_unserved,
            "repair": self.repair,
        }
        if self.down_domains:
            doc["down_domains"] = list(self.down_domains)
        return doc


@dataclass(frozen=True)
class DegradedReport:
    """The full deliverable of one chaos run.

    Deterministic by construction: every field derives from the seed,
    the problem, the trace, and the fault schedule.  ``to_json`` is the
    byte-reproducibility surface the chaos-smoke CI job compares.

    Attributes:
        seed: Root seed of the run (``None`` for caller-built
            schedules).
        num_objects: Problem size.
        num_nodes: Cluster size.
        replicas: Copies per object in the replicated placement.
        operations: Trace length.
        mode: Cluster operation mode (``"intersection"``/``"union"``).
        planner: Planner that produced the single-copy placement.
        planning: Planner diagnostics (includes the fallback chain when
            the resilient planner ran).
        schedule: The fault schedule, in JSON form.
        healthy_cost_single: Pair cost of the single-copy placement
            with everything up.
        healthy_cost_replicated: Same for the replicated placement.
        epochs: Per-epoch rows.
        availability_single: Operation-weighted availability of the
            single-copy placement across the run.
        availability_replicated: Same for the replicated placement.
        repair_moves: Total objects re-placed by incremental repair.
        repair_bytes: Total repair traffic.
        baseline: What the ``single``/``healthy_cost_single`` slots
            hold — ``"single"`` (legacy runs: the unreplicated
            placement) or ``"rep:hash"`` (domain-mode runs: the
            spread-hash replicated baseline the optimized placement is
            compared against).
        topology: Failure-domain topology of the run in JSON form, or
            ``None`` for flat (legacy) runs.
        spread: Domain level the replicas are spread across, or
            ``None`` for legacy runs.
        data_loss: Whether any object lost *all* replicas in some epoch
            (before repair) — the loud-failure flag the chaos CLI turns
            into a nonzero exit code.
        domain_impact: Per-domain blast radius: for every domain that
            was down during some epoch, the operations attempted,
            unserved operations (optimized placement), and peak
            lost-object count while it was down.
    """

    seed: int | None
    num_objects: int
    num_nodes: int
    replicas: int
    operations: int
    mode: str
    planner: str
    planning: dict
    schedule: dict
    healthy_cost_single: float
    healthy_cost_replicated: float
    epochs: tuple[EpochReport, ...]
    availability_single: float
    availability_replicated: float
    repair_moves: int
    repair_bytes: float
    baseline: str = "single"
    topology: dict | None = None
    spread: str | None = None
    data_loss: bool = False
    domain_impact: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "seed": self.seed,
            "num_objects": self.num_objects,
            "num_nodes": self.num_nodes,
            "replicas": self.replicas,
            "operations": self.operations,
            "mode": self.mode,
            "planner": self.planner,
            "planning": self.planning,
            "schedule": self.schedule,
            "healthy_cost_single": round(self.healthy_cost_single, 6),
            "healthy_cost_replicated": round(self.healthy_cost_replicated, 6),
            "epochs": [e.to_dict() for e in self.epochs],
            "availability_single": round(self.availability_single, 9),
            "availability_replicated": round(self.availability_replicated, 9),
            "repair_moves": self.repair_moves,
            "repair_bytes": round(self.repair_bytes, 6),
            "baseline": self.baseline,
            "topology": self.topology,
            "spread": self.spread,
            "data_loss": self.data_loss,
            "domain_impact": self.domain_impact,
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, 2-space indent, ``\\n`` ending."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        """Short human summary for the CLI."""
        left = "single" if self.baseline == "single" else self.baseline
        loss = " | DATA LOSS" if self.data_loss else ""
        return (
            f"chaos: {self.operations} ops over {len(self.epochs)} epochs, "
            f"{len(self.schedule.get('events', []))} faults | availability "
            f"{left} {self.availability_single:.1%} vs replicated "
            f"{self.availability_replicated:.1%} | repair moved "
            f"{self.repair_moves} objects ({self.repair_bytes:.0f} bytes)"
            f"{loss}"
        )
