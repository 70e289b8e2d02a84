"""End-to-end chaos runs: plan, inject faults, serve, repair, report.

:func:`run_chaos` is the resilience subsystem's integration point — it
drives a fault schedule against the cluster simulation and produces the
:class:`~repro.resilience.degraded.DegradedReport`:

1. Plan a single-copy placement (default: the ``"resilient"``
   fallback-chain planner) and build a replicated placement on top of
   the same primaries.
2. Walk the schedule's epochs over the operation trace.  At each epoch
   start, crashes and recoveries are applied to the live
   :class:`~repro.cluster.cluster.Cluster`; the epoch's trace slice is
   then executed (unservable operations come back ``served=False``)
   while the analytic layer scores single-copy vs replicated serving
   under the full view, partitions included.
3. After any epoch that stranded objects, incremental repair
   (:func:`~repro.resilience.repair.replace_lost_objects`) re-places
   the lost objects onto surviving capacity and replays the moves on
   the cluster, so following epochs serve from the repaired layout.

*Domain mode* (``ChaosConfig.topology`` set) changes the contest: both
sides are replicated under the same failure-domain spread constraints —
the optimized side planned through the replication-aware fallback chain
(``lprr:rep``), the baseline side by the domain-aware
:func:`~repro.core.replication.replicate_hash` — faults arrive as
domain-correlated ``crash_domain`` / ``heal_domain`` events, reads are
routed through the cheapest live replica, under-replicated objects are
re-replicated into the cheapest valid domain after each lossy epoch,
and the report carries a per-domain blast-radius table plus the
``data_loss`` flag the CLI turns into a nonzero exit code.

Slow-node and partition events affect the analytic serving stats but
not the byte simulation — the cluster model has no latency dimension,
which keeps the simulated bytes comparable across schedules.

Time is virtual throughout (operation indices); a run is a pure
function of ``(problem, operations, schedule, config)``, which is what
makes the report byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from repro import obs
from repro.cluster.cluster import Cluster
from repro.core.replication import (
    ReplicatedPlacement,
    greedy_replicated_placement,
    replicate_hash,
    spread_replicated_placement,
)
from repro.core.strategies import PlanConfig, plan
from repro.resilience.degraded import DegradedReport, EpochReport, mode_stats
from repro.resilience.faults import ClusterView, FaultSchedule
from repro.resilience.repair import re_replicate, replace_lost_objects

if TYPE_CHECKING:
    from repro.cluster.topology import Topology

ObjectId = Hashable
Operation = Sequence[ObjectId]


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of a chaos run.

    Attributes:
        replicas: Copies per object in the replicated comparison
            placement (clamped to the node count).
        planner: Registry name of the planner for the single-copy
            placement (domain mode: for the optimized replicated
            placement; ``"resilient"`` routes through the ``lprr:rep``
            fallback chain).
        plan_config: Planning knobs forwarded to the planner.
        mode: Cluster operation mode (``"intersection"``/``"union"``).
        repair: Run incremental repair after epochs that lose objects
            (domain mode: re-replication into the cheapest valid
            domain).
        topology: Failure-domain membership of the node indices; when
            set the run switches to *domain mode* — replicated LPRR vs
            replicated hash under domain-correlated faults.
    """

    replicas: int = 2
    planner: str = "resilient"
    plan_config: PlanConfig = field(default_factory=PlanConfig)
    mode: str = "intersection"
    repair: bool = True
    topology: "Topology | None" = None


def synthetic_scenario(
    num_objects: int = 30,
    num_nodes: int = 5,
    num_operations: int = 60,
    seed: int = 0,
    capacity_factor: float = 2.0,
) -> tuple:
    """A small seeded (problem, trace) pair for chaos runs.

    Sizes, correlations, and the operation trace are all drawn from one
    seeded generator, so the scenario — like everything downstream of
    it — is a pure function of its arguments.  Operations lean toward
    correlated pairs (70%) so placements actually matter, with the rest
    uniform 2–3 object draws.

    Returns:
        ``(problem, operations)`` ready for :func:`run_chaos`.
    """
    from repro.core.problem import PlacementProblem

    if num_objects < 4 or num_nodes < 2:
        raise ValueError("scenario needs at least 4 objects and 2 nodes")
    rng = np.random.default_rng(seed)
    object_ids = [f"obj{i:03d}" for i in range(num_objects)]
    sizes = {o: float(rng.integers(1, 64)) for o in object_ids}

    correlations: dict[tuple[str, str], float] = {}
    for _ in range(2 * num_objects):
        a, b = rng.choice(num_objects, size=2, replace=False)
        key = tuple(sorted((object_ids[int(a)], object_ids[int(b)])))
        correlations[key] = correlations.get(key, 0.0) + float(
            rng.integers(1, 10)
        )

    per_node = capacity_factor * sum(sizes.values()) / num_nodes
    capacities = {f"node{k}": per_node for k in range(num_nodes)}
    problem = PlacementProblem.build(sizes, capacities, correlations)

    pair_keys = sorted(correlations)
    operations: list[tuple[str, ...]] = []
    for _ in range(num_operations):
        if pair_keys and rng.random() < 0.7:
            op = list(pair_keys[int(rng.integers(len(pair_keys)))])
            if rng.random() < 0.3:
                extra = object_ids[int(rng.integers(num_objects))]
                if extra not in op:
                    op.append(extra)
        else:
            count = int(rng.integers(2, 4))
            op = [
                object_ids[int(i)]
                for i in rng.choice(num_objects, size=count, replace=False)
            ]
        operations.append(tuple(op))
    return problem, operations


def _jsonish(value):
    """Coerce planner diagnostics into JSON-stable primitives."""
    if isinstance(value, dict):
        return {str(k): _jsonish(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonish(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    return str(value)


def run_chaos(
    problem,
    operations: Sequence[Operation],
    schedule: FaultSchedule,
    config: ChaosConfig | None = None,
    seed: int | None = None,
) -> DegradedReport:
    """Run one fault schedule against one problem and trace.

    Args:
        problem: The CCA instance
            (:class:`~repro.core.problem.PlacementProblem`).
        operations: The multi-object operation trace; its length is the
            virtual-time horizon.
        schedule: Fault events over that horizon (its ``num_nodes``
            must match the problem).
        config: Run knobs (default :class:`ChaosConfig`).
        seed: Recorded in the report for provenance (the schedule is
            already fixed; pass the seed it was drawn from).

    Returns:
        The deterministic :class:`DegradedReport`.
    """
    config = config or ChaosConfig()
    if schedule.num_nodes != problem.num_nodes:
        raise ValueError(
            f"schedule is for {schedule.num_nodes} nodes, "
            f"problem has {problem.num_nodes}"
        )
    ops = [tuple(op) for op in operations]
    if not ops:
        raise ValueError("chaos run needs a nonempty operation trace")
    if config.topology is not None:
        return _run_domain_chaos(problem, ops, schedule, config, seed)

    with obs.span(
        "chaos.run", operations=len(ops), events=len(schedule)
    ) as run_span:
        obs.record(
            "chaos.start",
            operations=len(ops),
            events=len(schedule),
            planner=config.planner,
            mode=config.mode,
            replicas=config.replicas,
            repair=config.repair,
            seed=seed,
        )
        result = plan(problem, config.planner, config.plan_config)
        current = result.placement
        replicas = min(config.replicas, problem.num_nodes)
        replicated = greedy_replicated_placement(
            problem, replicas=replicas, primary_strategy=lambda p: current
        )
        healthy_single = current.communication_cost()
        healthy_replicated = replicated.communication_cost()

        cluster = Cluster(current)
        node_ids = problem.node_ids
        epochs: list[EpochReport] = []
        repair_moves = 0
        repair_bytes = 0.0
        data_loss = False

        for epoch in schedule.epochs(len(ops)):
            with obs.span("chaos.epoch", index=epoch.index):
                for event in epoch.events:
                    obs.record(
                        "chaos.fault",
                        t=event.time,
                        epoch=epoch.index,
                        fault=event.kind,
                        nodes=list(event.nodes),
                    )
                    if event.kind == "crash":
                        for k in event.nodes:
                            cluster.fail(node_ids[k])
                    elif event.kind == "recover":
                        for k in event.nodes:
                            cluster.recover(node_ids[k])

                view = epoch.view
                chunk = ops[epoch.start : epoch.end]
                results = cluster.execute_trace(chunk, mode=config.mode)
                single_stats = mode_stats(current, view, chunk)
                repl_stats = mode_stats(
                    replicated, view, chunk, healthy_replicated
                )
                if repl_stats.lost_objects:
                    data_loss = True

                repair_doc = None
                stranded = any(
                    int(k) in view.down for k in current.assignment
                )
                if config.repair and stranded:
                    failed_ids = [node_ids[k] for k in sorted(view.down)]
                    outcome = replace_lost_objects(
                        current, failed_ids, operations=chunk
                    )
                    for move in outcome.plan.migrations:
                        cluster.migrate(move.obj, move.destination)
                    current = outcome.placement
                    repair_doc = outcome.to_dict()
                    repair_moves += outcome.plan.num_moves
                    repair_bytes += outcome.plan.bytes_moved

                obs.record(
                    "chaos.epoch",
                    t=epoch.start,
                    epoch=epoch.index,
                    down=sorted(view.down),
                    unserved=sum(1 for r in results if not r.served),
                    repaired=repair_doc is not None,
                )
                epochs.append(
                    EpochReport(
                        index=epoch.index,
                        start=epoch.start,
                        end=epoch.end,
                        events=tuple(e.to_dict() for e in epoch.events),
                        down=tuple(sorted(view.down)),
                        slow=tuple(sorted(view.slow)),
                        isolated=tuple(sorted(view.isolated)),
                        single=single_stats,
                        replicated=repl_stats,
                        trace_bytes=float(
                            sum(r.bytes_transferred for r in results)
                        ),
                        trace_unserved=sum(1 for r in results if not r.served),
                        repair=repair_doc,
                    )
                )

        total = len(ops)
        avail_single = (
            sum(e.single.servable_operations for e in epochs) / total
        )
        avail_repl = (
            sum(e.replicated.servable_operations for e in epochs) / total
        )
        run_span.set(
            epochs=len(epochs),
            availability_single=avail_single,
            availability_replicated=avail_repl,
        )
        obs.counter("chaos.runs").inc()
        obs.record(
            "chaos.end",
            epochs=len(epochs),
            availability_single=round(avail_single, 9),
            availability_replicated=round(avail_repl, 9),
            repair_moves=repair_moves,
            repair_bytes=round(repair_bytes, 9),
        )

    return DegradedReport(
        seed=seed,
        num_objects=problem.num_objects,
        num_nodes=problem.num_nodes,
        replicas=replicas,
        operations=total,
        mode=config.mode,
        planner=config.planner,
        planning=_jsonish(dict(result.diagnostics)),
        schedule=schedule.to_dict(),
        healthy_cost_single=healthy_single,
        healthy_cost_replicated=healthy_replicated,
        epochs=tuple(epochs),
        availability_single=avail_single,
        availability_replicated=avail_repl,
        repair_moves=repair_moves,
        repair_bytes=repair_bytes,
        data_loss=data_loss,
    )


def _route_replicated_trace(
    replicated: ReplicatedPlacement,
    view: ClusterView,
    chunk: Sequence[Operation],
) -> tuple[float, int]:
    """Serve a trace slice through the cheapest live replicas.

    Each operation is routed within one partition side: the coordinator
    is the live node holding copies of the most requested objects
    (ties: prefer non-slow nodes, then the lowest index), and every
    object without a copy on the coordinator ships its size once.
    Operations whose objects cannot all be found live within a single
    side are unserved.

    Returns:
        ``(bytes_moved, unserved_operations)`` for the slice.
    """
    problem = replicated.problem
    index_of = {obj: i for i, obj in enumerate(problem.object_ids)}
    copies = [
        frozenset(int(k) for k in row) for row in replicated.assignment
    ]
    groups = view.groups()
    bytes_moved = 0.0
    unserved = 0
    for operation in chunk:
        known = [index_of[obj] for obj in operation if obj in index_of]
        if not known:
            continue
        chosen: frozenset[int] | None = None
        for g in groups:
            if all(copies[i] & g for i in known):
                chosen = g
                break
        if chosen is None:
            unserved += 1
            continue
        candidates = sorted(chosen)
        coordinator = max(
            candidates,
            key=lambda k: (
                sum(1 for i in known if k in copies[i]),
                k not in view.slow,
                -k,
            ),
        )
        bytes_moved += float(
            sum(
                problem.sizes[i]
                for i in known
                if coordinator not in copies[i]
            )
        )
    return bytes_moved, unserved


def _plan_replicated(
    problem, config: ChaosConfig, replicas: int
) -> tuple:
    """The optimized replicated placement and its planning result."""
    rep_config = config.plan_config.with_options(
        replicas=replicas, topology=config.topology
    )
    result = plan(problem, config.planner, rep_config)
    if isinstance(result.details, ReplicatedPlacement):
        return result, result.details
    # A single-copy planner was requested: keep its primaries and add
    # spread-constrained replicas on top.
    replicated = spread_replicated_placement(
        problem,
        config.topology,
        replicas=replicas,
        primary_strategy=lambda p: result.placement,
    )
    return result, replicated


def _run_domain_chaos(
    problem,
    ops: list,
    schedule: FaultSchedule,
    config: ChaosConfig,
    seed: int | None,
) -> DegradedReport:
    """Domain-mode chaos: replicated LPRR vs replicated hash.

    Both placements obey the same spread constraints over
    ``config.topology``; the report's ``single`` slots carry the
    spread-hash baseline (``baseline="rep:hash"``) so the availability
    comparison isolates correlation awareness, not replication itself.
    """
    topology = config.topology
    replicas = min(config.replicas, problem.num_nodes)

    with obs.span(
        "chaos.run", operations=len(ops), events=len(schedule)
    ) as run_span:
        obs.record(
            "chaos.start",
            operations=len(ops),
            events=len(schedule),
            planner=config.planner,
            mode=config.mode,
            replicas=replicas,
            repair=config.repair,
            seed=seed,
            topology=topology.to_dict(),
        )
        result, optimized = _plan_replicated(problem, config, replicas)
        plan_spread = optimized.spread
        baseline = replicate_hash(problem, topology, replicas=replicas)
        healthy_baseline = baseline.communication_cost()
        healthy_optimized = optimized.communication_cost()

        epochs: list[EpochReport] = []
        repair_moves = 0
        repair_bytes = 0.0
        data_loss = False
        impact: dict[str, dict] = {}

        for epoch in schedule.epochs(len(ops)):
            with obs.span("chaos.epoch", index=epoch.index):
                for event in epoch.events:
                    kind = "chaos.domain_fault" if event.domain else "chaos.fault"
                    fields = {
                        "t": event.time,
                        "epoch": epoch.index,
                        "fault": event.kind,
                        "nodes": list(event.nodes),
                    }
                    if event.domain:
                        fields["domain"] = event.domain
                    obs.record(kind, **fields)

                view = epoch.view
                chunk = ops[epoch.start : epoch.end]
                base_stats = mode_stats(baseline, view, chunk, healthy_baseline)
                opt_stats = mode_stats(optimized, view, chunk, healthy_optimized)
                if opt_stats.lost_objects:
                    data_loss = True
                trace_bytes, trace_unserved = _route_replicated_trace(
                    optimized, view, chunk
                )

                for label in sorted(view.down_domains):
                    row = impact.setdefault(
                        label,
                        {
                            "epochs": 0,
                            "operations": 0,
                            "unserved_operations": 0,
                            "lost_objects": 0,
                        },
                    )
                    row["epochs"] += 1
                    row["operations"] += opt_stats.operations
                    row["unserved_operations"] += (
                        opt_stats.operations - opt_stats.servable_operations
                    )
                    row["lost_objects"] = max(
                        row["lost_objects"], opt_stats.lost_objects
                    )

                repair_doc = None
                down = view.down
                stranded = bool(down) and bool(
                    (np.isin(optimized.assignment, sorted(down))).any()
                    or (np.isin(baseline.assignment, sorted(down))).any()
                )
                if config.repair and stranded:
                    outcome = re_replicate(optimized, view, operations=chunk)
                    optimized = outcome.placement
                    repair_doc = outcome.to_dict()
                    repair_moves += outcome.moves
                    repair_bytes += outcome.bytes_moved
                    # The baseline heals too — the contest stays fair.
                    baseline = re_replicate(
                        baseline, view, operations=chunk
                    ).placement

                obs.record(
                    "chaos.epoch",
                    t=epoch.start,
                    epoch=epoch.index,
                    down=sorted(view.down),
                    down_domains=sorted(view.down_domains),
                    unserved=trace_unserved,
                    repaired=repair_doc is not None,
                )
                epochs.append(
                    EpochReport(
                        index=epoch.index,
                        start=epoch.start,
                        end=epoch.end,
                        events=tuple(e.to_dict() for e in epoch.events),
                        down=tuple(sorted(view.down)),
                        slow=tuple(sorted(view.slow)),
                        isolated=tuple(sorted(view.isolated)),
                        single=base_stats,
                        replicated=opt_stats,
                        trace_bytes=trace_bytes,
                        trace_unserved=trace_unserved,
                        repair=repair_doc,
                        down_domains=tuple(sorted(view.down_domains)),
                    )
                )

        total = len(ops)
        avail_base = sum(e.single.servable_operations for e in epochs) / total
        avail_opt = sum(e.replicated.servable_operations for e in epochs) / total
        run_span.set(
            epochs=len(epochs),
            availability_single=avail_base,
            availability_replicated=avail_opt,
        )
        obs.counter("chaos.runs").inc()
        obs.record(
            "chaos.end",
            epochs=len(epochs),
            availability_single=round(avail_base, 9),
            availability_replicated=round(avail_opt, 9),
            repair_moves=repair_moves,
            repair_bytes=round(repair_bytes, 9),
            data_loss=data_loss,
        )

    return DegradedReport(
        seed=seed,
        num_objects=problem.num_objects,
        num_nodes=problem.num_nodes,
        replicas=replicas,
        operations=total,
        mode=config.mode,
        planner=config.planner,
        planning=_jsonish(dict(result.diagnostics)),
        schedule=schedule.to_dict(),
        healthy_cost_single=healthy_baseline,
        healthy_cost_replicated=healthy_optimized,
        epochs=tuple(epochs),
        availability_single=avail_base,
        availability_replicated=avail_opt,
        repair_moves=repair_moves,
        repair_bytes=repair_bytes,
        baseline="rep:hash",
        topology=topology.to_dict(),
        spread=plan_spread,
        data_loss=data_loss,
        domain_impact=impact,
    )
