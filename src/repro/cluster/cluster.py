"""A simulated cluster executing multi-object operations.

This is the generic (non-search) consumer of placements: given a
:class:`~repro.core.placement.Placement`, the cluster materializes the
objects on storage nodes and executes intersection-like or union-like
multi-object operations per Section 3.2's execution models, charging
every byte to the network model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from repro import obs
from repro.cluster.network import NetworkModel
from repro.cluster.node import StorageNode
from repro.core.placement import Placement
from repro.exceptions import PlacementError

ObjectId = Hashable
NodeId = Hashable


@dataclass(frozen=True)
class OperationResult:
    """Outcome of one multi-object operation.

    Attributes:
        objects: The requested object ids, as given.
        bytes_transferred: Inter-node bytes this operation moved.
        coordinator: Node where the final aggregation happened.
        num_remote_objects: Objects that had to be moved.
        served: False when a requested object lives only on a failed
            node and the operation could not run.
    """

    objects: tuple[ObjectId, ...]
    bytes_transferred: float
    coordinator: NodeId
    num_remote_objects: int
    served: bool = True

    @property
    def is_local(self) -> bool:
        """Whether all requested objects shared one node."""
        return self.num_remote_objects == 0


class Cluster:
    """Storage nodes + network, populated from a placement.

    Args:
        placement: Object placement to materialize; node capacities
            come from the placement's problem.
    """

    def __init__(self, placement: Placement):
        problem = placement.problem
        self.placement = placement
        self.nodes: dict[NodeId, StorageNode] = {
            node_id: StorageNode(node_id, float(cap))
            for node_id, cap in zip(problem.node_ids, problem.capacities)
        }
        self.network = NetworkModel(list(problem.node_ids))
        self._sizes: dict[ObjectId, float] = {}
        self._location: dict[ObjectId, NodeId] = {}
        self._failed: set[NodeId] = set()
        for obj, node_id in placement.to_mapping().items():
            size = problem.size_of(obj)
            self.nodes[node_id].store(obj, size)
            self._sizes[obj] = size
            self._location[obj] = node_id

    def locate(self, obj: ObjectId) -> NodeId:
        """Node currently holding ``obj``."""
        try:
            return self._location[obj]
        except KeyError:
            raise PlacementError(f"unknown object {obj!r}") from None

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def fail(self, node_id: NodeId) -> None:
        """Take a node down; its objects become unreachable (not lost —
        recovery brings them straight back)."""
        if node_id not in self.nodes:
            raise PlacementError(f"unknown node {node_id!r}")
        if node_id not in self._failed:
            self._failed.add(node_id)
            obs.counter("cluster.node_failures").inc()

    def recover(self, node_id: NodeId) -> None:
        """Bring a failed node back online with its stored objects."""
        if node_id not in self.nodes:
            raise PlacementError(f"unknown node {node_id!r}")
        if node_id in self._failed:
            self._failed.discard(node_id)
            obs.counter("cluster.node_recoveries").inc()

    def is_available(self, obj: ObjectId) -> bool:
        """Whether ``obj``'s hosting node is up."""
        return self.locate(obj) not in self._failed

    def unreachable_objects(self) -> list[ObjectId]:
        """Objects currently hosted on failed nodes, sorted by repr."""
        return sorted(
            (o for o, node in self._location.items() if node in self._failed),
            key=repr,
        )

    def _unserved(self, objects: tuple[ObjectId, ...]) -> OperationResult | None:
        """An unserved result if any requested object is unreachable."""
        down = [obj for obj in objects if self.locate(obj) in self._failed]
        if not down:
            return None
        obs.counter("cluster.ops.unserved").inc()
        return OperationResult(
            objects=objects,
            bytes_transferred=0.0,
            coordinator=self.locate(down[0]),
            num_remote_objects=0,
            served=False,
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def execute_intersection(self, objects: Sequence[ObjectId]) -> OperationResult:
        """Intersection-like operation, smallest-first pipelined.

        The running result starts at the smallest object's node; at
        each step the (upper-bounded) running result — never larger
        than the smallest object — ships to the next object's node.
        This is conservative: real intersections shrink the result, so
        measured engine traffic is at most this.
        """
        objects = tuple(objects)
        distinct = sorted(set(objects), key=lambda o: (self._sizes_or_raise(o), repr(o)))
        if not distinct:
            raise ValueError("operation requests no objects")
        unserved = self._unserved(objects)
        if unserved is not None:
            return unserved
        coordinator = self.locate(distinct[0])
        running = self._sizes[distinct[0]]
        transferred = 0.0
        remote = 0
        for obj in distinct[1:]:
            target = self.locate(obj)
            if target != coordinator:
                moved = self.network.transfer(coordinator, target, int(running))
                transferred += moved
                remote += 1
                coordinator = target
            running = min(running, self._sizes[obj])
        obs.counter("cluster.ops.intersection").inc()
        obs.histogram("cluster.op.bytes").observe(transferred)
        return OperationResult(objects, transferred, coordinator, remote)

    def execute_union(self, objects: Sequence[ObjectId]) -> OperationResult:
        """Union-like operation: ship everything to the largest object.

        Matches Section 3.2's union model — all requested objects move
        to the node of the largest one, costing each mover's full size.
        """
        objects = tuple(objects)
        distinct = sorted(set(objects), key=lambda o: (self._sizes_or_raise(o), repr(o)))
        if not distinct:
            raise ValueError("operation requests no objects")
        unserved = self._unserved(objects)
        if unserved is not None:
            return unserved
        largest = distinct[-1]
        coordinator = self.locate(largest)
        transferred = 0.0
        remote = 0
        for obj in distinct[:-1]:
            source = self.locate(obj)
            if source != coordinator:
                moved = self.network.transfer(source, coordinator, int(self._sizes[obj]))
                transferred += moved
                remote += 1
        obs.counter("cluster.ops.union").inc()
        obs.histogram("cluster.op.bytes").observe(transferred)
        return OperationResult(objects, transferred, coordinator, remote)

    def execute_trace(
        self, operations: Iterable[Sequence[ObjectId]], mode: str = "intersection"
    ) -> list[OperationResult]:
        """Execute a whole trace; returns per-operation results.

        Args:
            operations: Iterable of object-id sequences.
            mode: ``"intersection"`` or ``"union"``.
        """
        if mode == "intersection":
            run = self.execute_intersection
        elif mode == "union":
            run = self.execute_union
        else:
            raise ValueError(f"unknown operation mode {mode!r}")
        with obs.span("cluster.trace", mode=mode) as trace_span:
            results = [run(op) for op in operations]
            trace_span.set(
                operations=len(results),
                total_bytes=sum(r.bytes_transferred for r in results),
                unserved=sum(1 for r in results if not r.served),
            )
        return results

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def overloaded_nodes(self) -> list[NodeId]:
        """Ids of nodes above capacity."""
        return [nid for nid, node in self.nodes.items() if node.is_overloaded]

    def migrate(self, obj: ObjectId, destination: NodeId) -> float:
        """Move an object to another node; returns bytes moved.

        Migrations into a failed node are rejected; migrations *out of*
        a failed node are allowed — that is exactly what incremental
        repair does (restoring the object from a replica or re-ingest,
        modelled as a transfer of its size).
        """
        source = self.locate(obj)
        if destination not in self.nodes:
            raise PlacementError(f"unknown node {destination!r}")
        if destination in self._failed:
            raise PlacementError(
                f"cannot migrate {obj!r} onto failed node {destination!r}"
            )
        if destination == source:
            return 0.0
        size = self.nodes[source].evict(obj)
        self.nodes[destination].store(obj, size)
        self._location[obj] = destination
        obs.counter("cluster.migrations").inc()
        return float(self.network.transfer(source, destination, int(size)))

    def _sizes_or_raise(self, obj: ObjectId) -> float:
        try:
            return self._sizes[obj]
        except KeyError:
            raise PlacementError(f"unknown object {obj!r}") from None

    def __repr__(self) -> str:
        return (
            f"Cluster(nodes={len(self.nodes)}, objects={len(self._sizes)}, "
            f"bytes={self.network.total_bytes})"
        )
