"""Incremental repair: re-place only what a failure lost.

After a crash, a single-copy placement has objects stranded on dead
nodes.  Re-running the full planner would move far more than necessary;
:func:`replace_lost_objects` instead computes a *minimal* repair — only
the lost objects get new homes, chosen greedily on surviving nodes to
maximize restored pair locality under remaining capacity — and returns
it as a standard :class:`~repro.core.migration.MigrationPlan` (every
move sourced at the dead node, modelling restore-from-replica or
re-ingest) together with before/after availability so the repair's
effect is quantified, not assumed.

:func:`re_replicate` is the replicated analogue: after a fault, every
copy sitting on a down node is re-created on a live node in the
cheapest *valid* failure domain — one holding no other live copy of
the object — restoring full replication degree without ever violating
the spread constraints the placement was built under.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.core.migration import MigrationPlan, diff_placements
from repro.core.placement import Placement
from repro.exceptions import PlacementError
from repro.resilience.degraded import mode_stats
from repro.resilience.faults import ClusterView

if TYPE_CHECKING:
    from repro.core.replication import ReplicatedPlacement

NodeId = Hashable
ObjectId = Hashable
Operation = Sequence[ObjectId]


@dataclass(frozen=True)
class RepairOutcome:
    """What an incremental repair did and bought.

    Attributes:
        plan: The executable migration plan (one move per lost object,
            sourced at its failed node).
        placement: The repaired placement (nothing on failed nodes).
        failed_nodes: The failure set repaired around, sorted.
        lost_objects: Objects that had to be re-placed, sorted.
        availability_before: Operation availability of the broken
            placement under the failure set.
        availability_after: Same measure for the repaired placement.
    """

    plan: MigrationPlan
    placement: Placement
    failed_nodes: tuple[NodeId, ...]
    lost_objects: tuple[ObjectId, ...]
    availability_before: float
    availability_after: float

    @property
    def restored(self) -> float:
        """Availability gained by the repair."""
        return self.availability_after - self.availability_before

    def to_dict(self) -> dict:
        """JSON-ready summary (plan details reduced to totals)."""
        return {
            "failed_nodes": [str(n) for n in self.failed_nodes],
            "lost_objects": [str(o) for o in self.lost_objects],
            "moves": self.plan.num_moves,
            "bytes_moved": float(self.plan.bytes_moved),
            "cost_after": float(self.plan.cost_after),
            "availability_before": float(self.availability_before),
            "availability_after": float(self.availability_after),
        }


def replace_lost_objects(
    placement: Placement,
    failed: Iterable[NodeId],
    operations: Iterable[Operation] = (),
    capacity_tolerance: float = 0.05,
) -> RepairOutcome:
    """Re-place every object stranded on failed nodes.

    Lost objects are handled largest-first; each goes to the surviving
    node where it restores the most correlation weight toward already
    (re-)placed neighbors, subject to remaining capacity with
    ``capacity_tolerance`` slack.  When nothing fits, the least-loaded
    surviving node takes the object anyway — repair never strands data
    to preserve a capacity preference.

    Args:
        placement: The single-copy placement at failure time.
        failed: Node ids that are down (validated against the problem).
        operations: Optional trace used for the availability numbers in
            the outcome.
        capacity_tolerance: Relative slack when judging whether a
            candidate node has room.

    Returns:
        A :class:`RepairOutcome`; its plan is empty when nothing was
        lost.

    Raises:
        PlacementError: If every node failed (no surviving capacity) or
            a failed id is unknown.
    """
    problem = placement.problem
    failed_set = {node for node in failed}
    failed_idx = {problem.node_index(node) for node in failed_set}
    survivors = [k for k in range(problem.num_nodes) if k not in failed_idx]
    if not failed_idx:
        return RepairOutcome(
            plan=diff_placements(placement, placement),
            placement=placement,
            failed_nodes=(),
            lost_objects=(),
            availability_before=1.0,
            availability_after=1.0,
        )
    if not survivors:
        raise PlacementError("every node failed; nothing to repair onto")

    operations = [tuple(op) for op in operations]
    view = ClusterView(problem.num_nodes, down=frozenset(failed_idx))
    before = mode_stats(placement, view, operations)

    assignment = placement.assignment.copy()
    lost = sorted(
        (i for i in range(problem.num_objects) if int(assignment[i]) in failed_idx),
        key=lambda i: (-problem.sizes[i], repr(problem.object_ids[i])),
    )

    loads = np.zeros(problem.num_nodes)
    for i in range(problem.num_objects):
        if int(assignment[i]) not in failed_idx:
            loads[assignment[i]] += problem.sizes[i]

    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(problem.num_objects)]
    for (i, j), weight in zip(problem.pair_index, problem.pair_weights):
        if weight > 0:
            adjacency[int(i)].append((int(j), float(weight)))
            adjacency[int(j)].append((int(i), float(weight)))

    pending = set(lost)
    with obs.span("repair", lost=len(lost), failed=len(failed_idx)):
        for i in lost:
            gains = {k: 0.0 for k in survivors}
            for neighbor, weight in adjacency[i]:
                if neighbor in pending:
                    continue  # still stranded; contributes nowhere yet
                where = int(assignment[neighbor])
                if where in gains:
                    gains[where] += weight
            fits = [
                k
                for k in survivors
                if loads[k] + problem.sizes[i]
                <= problem.capacities[k] * (1.0 + capacity_tolerance) + 1e-9
            ]
            pool = fits or survivors
            # Most restored locality wins; ties go to the emptier node.
            best = max(pool, key=lambda k: (gains[k], -loads[k], -k))
            assignment[i] = best
            loads[best] += problem.sizes[i]
            pending.discard(i)

    repaired = Placement(problem, assignment)
    plan = diff_placements(placement, repaired)
    after = mode_stats(repaired, view, operations)
    obs.counter("repair.objects_replaced").inc(len(lost))
    obs.histogram("repair.bytes").observe(plan.bytes_moved)

    return RepairOutcome(
        plan=plan,
        placement=repaired,
        failed_nodes=tuple(sorted(failed_set, key=repr)),
        lost_objects=tuple(problem.object_ids[i] for i in lost),
        availability_before=before.operation_availability,
        availability_after=after.operation_availability,
    )


@dataclass(frozen=True)
class ReplicaRepairOutcome:
    """What a re-replication pass did and bought.

    Attributes:
        placement: The repaired :class:`ReplicatedPlacement` (every
            repairable copy back on a live node).
        moves: Copies re-created on new nodes.
        bytes_moved: Total re-replication traffic (one object size per
            re-created copy, modelling restore from a surviving copy or
            re-ingest).
        repaired_objects: Objects that had at least one copy
            re-created, sorted by object id.
        lost_objects: Objects that had *no* live copy when repair
            started — actual data loss; their copies are re-created
            anyway (modelling re-ingest from an upstream source).
        unrepaired_copies: Down copies that could not be re-placed
            (fewer live nodes than the replication factor).
        availability_before: Operation availability of the broken
            replicated placement under the view.
        availability_after: Same measure after re-replication.
    """

    placement: "ReplicatedPlacement"
    moves: int
    bytes_moved: float
    repaired_objects: tuple[ObjectId, ...]
    lost_objects: tuple[ObjectId, ...]
    unrepaired_copies: int
    availability_before: float
    availability_after: float

    def to_dict(self) -> dict:
        """JSON-ready summary."""
        return {
            "moves": self.moves,
            "bytes_moved": float(self.bytes_moved),
            "repaired_objects": [str(o) for o in self.repaired_objects],
            "lost_objects": [str(o) for o in self.lost_objects],
            "unrepaired_copies": self.unrepaired_copies,
            "availability_before": float(self.availability_before),
            "availability_after": float(self.availability_after),
        }


def re_replicate(
    replicated: "ReplicatedPlacement",
    view: "ClusterView",
    operations: Iterable[Operation] = (),
    capacity_tolerance: float = 0.05,
) -> ReplicaRepairOutcome:
    """Re-create every replica stranded on a down node.

    Objects are handled largest-first.  Each down copy is re-created on
    a live node in the cheapest *valid* failure domain — a domain (at
    the placement's spread level) holding no other copy of the object —
    preferring the node that restores the most still-split pair weight
    toward live partner copies, then the least-loaded.  When no live
    node in a fresh domain exists (e.g. a whole zone is down), the
    spread constraint is relaxed to distinct live nodes rather than
    leaving the object under-replicated; when even distinct live nodes
    run out, the copy stays unrepaired and is counted.

    Args:
        replicated: The replicated placement at fault time.
        view: Cluster health (``view.down`` are the dead node indices).
        operations: Optional trace used for the availability numbers.
        capacity_tolerance: Relative slack when judging whether a
            candidate node has room.

    Returns:
        A :class:`ReplicaRepairOutcome`; ``moves == 0`` when no copy
        was on a down node.

    Raises:
        PlacementError: When every node is down.
    """
    from repro.core.replication import ReplicatedPlacement

    problem = replicated.problem
    down = set(view.down)
    live = [k for k in range(problem.num_nodes) if k not in down]
    if not live:
        raise PlacementError("every node failed; nothing to re-replicate onto")

    if replicated.topology is None:
        from repro.cluster.topology import Topology

        topology = Topology.flat(problem.num_nodes)
    else:
        topology = replicated.topology
    ids = topology.domain_ids(replicated.spread)

    before = mode_stats(replicated, view, list(operations))
    assignment = replicated.assignment.copy()
    copies: list[set[int]] = [set(int(k) for k in row) for row in assignment]
    lost = tuple(
        problem.object_ids[i]
        for i in range(problem.num_objects)
        if not (copies[i] - down)
    )

    loads = np.zeros(problem.num_nodes)
    for i in range(problem.num_objects):
        for k in copies[i]:
            if k not in down:
                loads[k] += problem.sizes[i]

    adjacency: list[list[tuple[int, float]]] = [
        [] for _ in range(problem.num_objects)
    ]
    for (i, j), weight in zip(problem.pair_index, problem.pair_weights):
        if weight > 0:
            adjacency[int(i)].append((int(j), float(weight)))
            adjacency[int(j)].append((int(i), float(weight)))

    order = sorted(
        range(problem.num_objects),
        key=lambda i: (-problem.sizes[i], repr(problem.object_ids[i])),
    )
    moves = 0
    bytes_moved = 0.0
    unrepaired = 0
    repaired: list[int] = []
    with obs.span("repair.replicas", down=len(down)):
        for i in order:
            size = problem.sizes[i]
            for r in range(assignment.shape[1]):
                if int(assignment[i, r]) not in down:
                    continue
                held = copies[i] - {int(assignment[i, r])}
                used_domains = {int(ids[k]) for k in held if k not in down}
                used_domains |= {int(ids[k]) for k in held & down}
                fresh = [
                    k
                    for k in live
                    if int(ids[k]) not in used_domains and k not in held
                ]
                candidates = fresh or [k for k in live if k not in held]
                if not candidates:
                    unrepaired += 1
                    continue
                gains = {k: 0.0 for k in candidates}
                for j, weight in adjacency[i]:
                    if copies[i] & copies[j] - down:
                        continue  # pair already co-resident and live
                    for k in copies[j] - down:
                        if k in gains:
                            gains[k] += weight
                fits = [
                    k
                    for k in candidates
                    if loads[k] + size
                    <= problem.capacities[k] * (1.0 + capacity_tolerance) + 1e-9
                ]
                pool = fits or candidates
                best = max(pool, key=lambda k: (gains[k], -loads[k], -k))
                copies[i].discard(int(assignment[i, r]))
                assignment[i, r] = best
                copies[i].add(best)
                loads[best] += size
                moves += 1
                bytes_moved += float(size)
                if i not in repaired:
                    repaired.append(i)

    # A domain-wide outage may have forced copies into shared domains;
    # relax the spread one level at a time (zone -> rack -> node) and
    # keep the strictest invariant the repaired layout still satisfies.
    levels = ["zone", "rack", "node"]
    start = levels.index(replicated.spread) if replicated.spread in levels else 2
    placement = None
    for level in levels[start:]:
        try:
            placement = ReplicatedPlacement(
                problem, assignment, topology=replicated.topology, spread=level
            )
            break
        except PlacementError:
            continue
    if placement is None:
        placement = ReplicatedPlacement(
            problem, assignment, topology=replicated.topology, spread="node"
        )
    after = mode_stats(placement, view, list(operations))
    obs.counter("repair.replicas_recreated").inc(moves)
    obs.record(
        "rep.repair",
        moves=moves,
        bytes_moved=round(bytes_moved, 9),
        lost_objects=len(lost),
        unrepaired_copies=unrepaired,
    )

    return ReplicaRepairOutcome(
        placement=placement,
        moves=moves,
        bytes_moved=bytes_moved,
        repaired_objects=tuple(
            sorted((problem.object_ids[i] for i in repaired), key=repr)
        ),
        lost_objects=lost,
        unrepaired_copies=unrepaired,
        availability_before=before.operation_availability,
        availability_after=after.operation_availability,
    )
