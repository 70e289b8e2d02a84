"""Replicated placement — the paper's natural extension.

The paper's summary points to its companion work on replication-degree
customization; combining the two is the obvious next step: each object
keeps ``R`` copies (for availability and read scaling), and a
multi-object operation can be served by *any* copy pair, so a
correlated pair only pays communication when **no** node holds copies
of both objects.

Since 1.7 replication is *failure-domain aware*: a
:class:`~repro.cluster.topology.Topology` attaches rack and zone
membership to the node indices, and replica spread is enforced at the
widest domain level the topology affords (:meth:`Topology.spread_level`
— zones when there are at least ``R`` of them, else racks, else plain
distinct nodes, which is exactly the pre-1.7 constraint).

This module provides the replicated analogues of the single-copy
machinery:

* :class:`ReplicatedPlacement` — a ``(t, R)`` assignment with the
  any-copy-pair cost semantics, replica-aware capacity accounting, and
  hard spread validation that names the offending *domain*;
* :func:`replicate_hash` — the correlation-oblivious hash baseline:
  salted MD5 per replica, probing forward until the copy lands in a
  fresh failure domain (over ``Topology.flat(n)``, on a distinct
  node);
* :func:`greedy_replicated_placement` — primary copies via any
  single-copy strategy, remaining replicas placed to maximize
  *additional* pair coverage under capacity (distinct nodes only);
* :func:`spread_replicated_placement` — the same correlation-aware
  replica rounds under hard domain-spread constraints: every copy of
  an object in a different rack/zone, ties broken toward nodes where
  the object's correlated partners already sit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.greedy import greedy_placement
from repro.core.hashing import hash_node
from repro.core.placement import Placement
from repro.core.problem import NodeId, ObjectId, PlacementProblem
from repro.exceptions import PlacementError, ReplicationError

if TYPE_CHECKING:  # imported lazily at runtime to keep core free of cluster
    from repro.cluster.topology import Topology


def _flat_topology(num_nodes: int) -> "Topology":
    from repro.cluster.topology import Topology

    return Topology.flat(num_nodes)


def spread_violations(
    assignment: np.ndarray, domain_ids: np.ndarray
) -> np.ndarray:
    """Object indices whose replicas share a failure domain (vectorized).

    Args:
        assignment: ``(t, R)`` array of node indices.
        domain_ids: Per-node domain index at the spread level
            (:meth:`~repro.cluster.topology.Topology.domain_ids`).

    Returns:
        Sorted array of violating object row indices (empty when the
        placement is fully spread).
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.ndim != 2 or assignment.shape[1] < 2:
        return np.empty(0, dtype=np.int64)
    domains = np.sort(np.asarray(domain_ids, dtype=np.int64)[assignment], axis=1)
    clash = (domains[:, 1:] == domains[:, :-1]).any(axis=1)
    return np.flatnonzero(clash)


class ReplicatedPlacement:
    """An assignment of ``R`` replicas of every object to nodes.

    Attributes:
        problem: The underlying CCA instance.
        assignment: ``(t, R)`` int array of node indices; replicas of
            one object must sit on distinct nodes and — when a topology
            is attached — on distinct domains at the ``spread`` level.
        topology: Failure-domain membership of the node indices, or
            ``None`` for the flat pre-1.7 model.
        spread: Domain kind the replicas are spread across (``"zone"``,
            ``"rack"``, or ``"node"``); defaults to the widest level
            the topology can hold (:meth:`Topology.spread_level`).
    """

    def __init__(
        self,
        problem: PlacementProblem,
        assignment: np.ndarray,
        topology: "Topology | None" = None,
        spread: str | None = None,
    ):
        self.problem = problem
        self.assignment = np.asarray(assignment, dtype=np.int64)
        if self.assignment.ndim != 2 or self.assignment.shape[0] != problem.num_objects:
            raise ReplicationError(
                f"assignment must be (num_objects, replicas); got "
                f"{self.assignment.shape}"
            )
        if self.assignment.size and (
            self.assignment.min() < 0 or self.assignment.max() >= problem.num_nodes
        ):
            raise ReplicationError("assignment contains out-of-range node indices")
        if topology is not None and topology.num_nodes != problem.num_nodes:
            raise ReplicationError(
                f"topology covers {topology.num_nodes} nodes, problem has "
                f"{problem.num_nodes}"
            )
        self.topology = topology
        effective = topology or _flat_topology(problem.num_nodes)
        self.spread = spread or effective.spread_level(self.assignment.shape[1])
        self._validate_spread(effective)

    def _validate_spread(self, topology: "Topology") -> None:
        # Node-distinctness is always required, whatever the spread
        # level; check it first so the error message names the shared
        # node when that is the actual offense.
        bad = spread_violations(
            self.assignment, topology.domain_ids("node")
        )
        if bad.size:
            i = int(bad[0])
            raise ReplicationError(
                f"object {self.problem.object_ids[i]!r} has replicas "
                f"sharing a node"
            )
        if self.spread == "node":
            return
        ids = topology.domain_ids(self.spread)
        bad = spread_violations(self.assignment, ids)
        if bad.size:
            i = int(bad[0])
            row = self.assignment[i]
            domains = [int(ids[int(k)]) for k in row]
            shared = next(d for d in domains if domains.count(d) > 1)
            raise ReplicationError(
                f"object {self.problem.object_ids[i]!r} has replicas "
                f"sharing {self.spread}:{shared}"
            )

    @property
    def replication_factor(self) -> int:
        """Number of copies per object."""
        return self.assignment.shape[1]

    def nodes_of(self, obj: ObjectId) -> list[NodeId]:
        """Nodes holding copies of ``obj``."""
        i = self.problem.object_index(obj)
        return [self.problem.node_ids[k] for k in self.assignment[i]]

    # ------------------------------------------------------------------
    # Cost and capacity
    # ------------------------------------------------------------------
    def communication_cost(self) -> float:
        """Objective (1) under any-copy semantics.

        A pair is local when the replica node sets intersect.
        """
        p = self.problem
        cost = 0.0
        sets = [set(row.tolist()) for row in self.assignment]
        for (i, j), weight in zip(p.pair_index, p.pair_weights):
            if not sets[int(i)] & sets[int(j)]:
                cost += weight
        return float(cost)

    def node_loads(self) -> np.ndarray:
        """Per-node stored bytes, counting every replica."""
        loads = np.zeros(self.problem.num_nodes)
        for r in range(self.replication_factor):
            loads += np.bincount(
                self.assignment[:, r],
                weights=self.problem.sizes,
                minlength=self.problem.num_nodes,
            )
        return loads

    def is_feasible(self, tolerance: float = 0.0) -> bool:
        """Whether replica-inclusive loads respect node capacities."""
        limits = self.problem.capacities * (1.0 + tolerance)
        return bool(np.all(self.node_loads() <= limits + 1e-9))

    def primary(self) -> Placement:
        """The first-copy placement as a plain :class:`Placement`."""
        return Placement(self.problem, self.assignment[:, 0])

    def __repr__(self) -> str:
        return (
            f"ReplicatedPlacement(R={self.replication_factor}, "
            f"spread={self.spread!r}, "
            f"cost={self.communication_cost():.6g})"
        )


def replicate_hash(
    problem: PlacementProblem,
    topology: "Topology",
    replicas: int = 2,
) -> ReplicatedPlacement:
    """Domain-aware hash baseline: each copy in a fresh failure domain.

    Replica ``r`` hashes with salt ``str(r)`` and probes forward
    (ring order) until it lands on a node whose spread-level domain
    holds no earlier copy of the object.  Correlation-oblivious but
    spread-correct — the fair baseline for ``lprr:rep``.

    Args:
        problem: The CCA instance.
        topology: Failure-domain membership of the node indices.
        replicas: Copies per object.
    """
    _check_replicas(problem, replicas, topology)
    n = problem.num_nodes
    spread = topology.spread_level(replicas)
    ids = topology.domain_ids(spread)
    assignment = np.empty((problem.num_objects, replicas), dtype=np.int64)
    for i, obj in enumerate(problem.object_ids):
        chosen: list[int] = []
        used_domains: set[int] = set()
        for r in range(replicas):
            k = hash_node(obj, n, salt=str(r))
            while int(ids[k]) in used_domains or k in chosen:
                k = (k + 1) % n
            chosen.append(k)
            used_domains.add(int(ids[k]))
        assignment[i] = chosen
    return ReplicatedPlacement(problem, assignment, topology=topology, spread=spread)


def greedy_replicated_placement(
    problem: PlacementProblem,
    replicas: int = 2,
    primary_strategy: Callable[[PlacementProblem], Placement] | None = None,
) -> ReplicatedPlacement:
    """Correlation-aware replication on top of any primary placement.

    Primaries come from ``primary_strategy`` (default: the greedy
    heuristic).  Each additional replica round walks objects in
    importance order and places the new copy on the feasible node that
    *covers* the most still-split pair weight (i.e. the node where the
    object's correlated partners already have copies), falling back to
    the least-loaded feasible node.

    Args:
        problem: The CCA instance.
        replicas: Total copies per object (``>= 1``).
        primary_strategy: Strategy for the first copy.

    Returns:
        A feasible-when-possible :class:`ReplicatedPlacement`.
    """
    _check_replicas(problem, replicas)
    primary_strategy = primary_strategy or greedy_placement
    primary = primary_strategy(problem)

    t, n = problem.num_objects, problem.num_nodes
    assignment = np.empty((t, replicas), dtype=np.int64)
    assignment[:, 0] = primary.assignment
    loads = primary.node_loads().astype(float)

    adjacency = _pair_adjacency(problem)
    copies: list[set[int]] = [{int(assignment[i, 0])} for i in range(t)]
    order = np.argsort(-problem.sizes, kind="stable")

    for r in range(1, replicas):
        for i in order:
            i = int(i)
            size = problem.sizes[i]
            # Coverage gain per node: weight of still-split pairs whose
            # partner already has a copy there.
            gain = np.zeros(n)
            for j, weight in adjacency[i]:
                if copies[i] & copies[j]:
                    continue  # already local
                for k in copies[j]:
                    gain[k] += weight
            feasible = problem.capacities - loads >= size
            feasible[list(copies[i])] = False
            candidates = np.where(feasible)[0]
            if candidates.size == 0:
                # No capacity anywhere: least-loaded node without a copy.
                others = np.array(
                    [k for k in range(n) if k not in copies[i]], dtype=np.int64
                )
                if others.size == 0:
                    raise PlacementError(
                        "more replicas requested than nodes available"
                    )
                k = int(others[np.argmin(loads[others])])
            elif gain[candidates].max() > 0:
                k = int(candidates[np.argmax(gain[candidates])])
            else:
                k = int(candidates[np.argmin(loads[candidates])])
            assignment[i, r] = k
            copies[i].add(k)
            loads[k] += size
    return ReplicatedPlacement(problem, assignment)


def spread_replicated_placement(
    problem: PlacementProblem,
    topology: "Topology",
    replicas: int = 2,
    primary_strategy: Callable[[PlacementProblem], Placement] | None = None,
) -> ReplicatedPlacement:
    """Correlation-aware replication under hard domain-spread constraints.

    Primaries come from ``primary_strategy`` (default greedy); each
    additional replica round walks objects in importance (size) order
    and places the new copy on a node in a *fresh* failure domain —
    one holding no earlier copy of the object — preferring, among
    feasible fresh-domain nodes, the one covering the most still-split
    pair weight, then the least-loaded.  The spread level is the
    widest the topology can hold for ``replicas`` copies
    (:meth:`Topology.spread_level`), so the constraint is always
    satisfiable and the result validates clean.

    Args:
        problem: The CCA instance.
        topology: Failure-domain membership of the node indices.
        replicas: Total copies per object (``>= 1``).
        primary_strategy: Strategy for the first copy.

    Returns:
        A spread-valid :class:`ReplicatedPlacement` (feasible when
        capacity allows; spread is the hard constraint).
    """
    _check_replicas(problem, replicas, topology)
    spread = topology.spread_level(replicas)
    ids = topology.domain_ids(spread)
    primary_strategy = primary_strategy or greedy_placement
    primary = primary_strategy(problem)

    t, n = problem.num_objects, problem.num_nodes
    assignment = np.empty((t, replicas), dtype=np.int64)
    assignment[:, 0] = primary.assignment
    loads = primary.node_loads().astype(float)

    adjacency = _pair_adjacency(problem)
    copies: list[set[int]] = [{int(assignment[i, 0])} for i in range(t)]
    used: list[set[int]] = [
        {int(ids[int(assignment[i, 0])])} for i in range(t)
    ]
    order = np.argsort(-problem.sizes, kind="stable")

    for r in range(1, replicas):
        for i in order:
            i = int(i)
            size = problem.sizes[i]
            gain = np.zeros(n)
            for j, weight in adjacency[i]:
                if copies[i] & copies[j]:
                    continue  # already local
                for k in copies[j]:
                    gain[k] += weight
            fresh = np.array(
                [k for k in range(n) if int(ids[k]) not in used[i]],
                dtype=np.int64,
            )
            # The spread level has at least ``replicas`` domains, so a
            # fresh one exists.
            feasible = fresh[
                problem.capacities[fresh] - loads[fresh] >= size
            ]
            pool = feasible if feasible.size else fresh
            if gain[pool].max() > 0:
                k = int(pool[np.argmax(gain[pool])])
            else:
                k = int(pool[np.argmin(loads[pool])])
            assignment[i, r] = k
            copies[i].add(k)
            used[i].add(int(ids[k]))
            loads[k] += size
    return ReplicatedPlacement(problem, assignment, topology=topology, spread=spread)


def _pair_adjacency(problem: PlacementProblem) -> list[list[tuple[int, float]]]:
    adjacency: list[list[tuple[int, float]]] = [
        [] for _ in range(problem.num_objects)
    ]
    for (i, j), weight in zip(problem.pair_index, problem.pair_weights):
        if weight > 0:
            adjacency[int(i)].append((int(j), float(weight)))
            adjacency[int(j)].append((int(i), float(weight)))
    return adjacency


def _check_replicas(
    problem: PlacementProblem,
    replicas: int,
    topology: "Topology | None" = None,
) -> None:
    if replicas < 1:
        raise ReplicationError("replicas must be at least 1")
    if replicas > problem.num_nodes:
        raise ReplicationError(
            f"cannot place {replicas} distinct copies on "
            f"{problem.num_nodes} nodes"
        )
    if topology is not None and topology.num_nodes != problem.num_nodes:
        raise ReplicationError(
            f"topology covers {topology.num_nodes} nodes, problem has "
            f"{problem.num_nodes}"
        )
