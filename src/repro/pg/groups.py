"""Placement groups: a small, stable object→node map.

A million-object placement serialized per object is megabytes of state
that every replan rewrites.  The PG layer (Ceph/CRUSH-style) instead
hashes the long tail of objects into ``K`` placement groups with the
same seeded MD5 idiom as :mod:`repro.core.hashing`, keeps the top-M
important objects exact, and stores only ``K`` group→node entries plus
the exact entries — a map whose size is independent of the object
count.

:class:`PGMap` implements the
:class:`~repro.core.placement.PlacementMap` protocol
(``assign``/``locate``/``to_dict``).  Node membership
changes use highest-random-weight (rendezvous) hashing so the remapped
set is provably minimal:

* ``remove_node`` re-homes exactly the groups (and exact objects)
  hosted on the removed node; everything else keeps its node.
* ``add_node`` moves exactly the groups whose rendezvous draw the new
  node wins (expected ``K / (n + 1)``); nothing else moves.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.problem import NodeId, ObjectId, PlacementProblem
from repro.exceptions import PlacementError


def _text(value) -> str:
    """The hashing text of an id (string ids hash as themselves)."""
    return value if isinstance(value, str) else repr(value)


def pg_group(obj: ObjectId, num_groups: int, salt: str = "") -> int:
    """The placement group of ``obj`` under seeded MD5-mod-K hashing.

    Same idiom as :func:`repro.core.hashing.hash_node` with a ``pg``
    namespace prefix, so group membership is a pure function of
    ``(obj, num_groups, salt)`` — stable across processes and runs.
    """
    if num_groups < 1:
        raise ValueError("num_groups must be at least 1")
    digest = hashlib.md5(f"{salt}|pg|{_text(obj)}".encode("utf-8")).digest()
    return int.from_bytes(digest, "big") % num_groups


def _hrw_score(salt: str, key: str, node: NodeId) -> int:
    digest = hashlib.md5(
        f"{salt}|pg-hrw|{key}|{_text(node)}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest, "big")


def rendezvous_node(
    key: str,
    candidates,
    node_ids,
    salt: str = "",
) -> int:
    """Highest-random-weight winner among candidate node indices.

    Scores are keyed on node *ids* (not indices), so adding or
    retiring nodes never perturbs the scores of the survivors — the
    property that makes remaps minimal.

    Args:
        key: Hash key of the thing being placed (group or object).
        candidates: Iterable of eligible node indices.
        node_ids: The map's node-id tuple the indices point into.
        salt: The map's salt.

    Returns:
        The winning node index.
    """
    best = -1
    best_score = -1
    for k in candidates:
        score = _hrw_score(salt, key, node_ids[k])
        if score > best_score or (score == best_score and k < best):
            best, best_score = int(k), score
    if best < 0:
        raise PlacementError("rendezvous needs at least one candidate node")
    return best


def _group_key(group: int) -> str:
    return f"g{group}"


def _exact_key(obj: ObjectId) -> str:
    return f"x{_text(obj)}"


class PGMap:
    """A placement-group map: ``K`` group entries plus exact entries.

    Attributes:
        num_groups: Placement-group count ``K``.
        salt: Hash salt shared by grouping and rendezvous draws.
        node_ids: Node identifiers, in index order.  Indices are stable
            for the lifetime of the map: removed nodes are *retired*
            (kept in the tuple, barred from hosting) so existing
            entries never need renumbering.
        group_nodes: ``(K,)`` int array; ``group_nodes[g]`` is the node
            index hosting group ``g``.
        exact_nodes: Important objects mapped to node indices directly,
            bypassing grouping.
        retired: Node indices that no longer host anything.
    """

    def __init__(
        self,
        num_groups: int,
        salt: str,
        node_ids,
        group_nodes: np.ndarray,
        exact_nodes: dict,
        retired: frozenset = frozenset(),
    ):
        self.num_groups = int(num_groups)
        self.salt = salt
        self.node_ids: tuple[NodeId, ...] = tuple(node_ids)
        self.group_nodes = np.asarray(group_nodes, dtype=np.int64)
        self.exact_nodes: dict[ObjectId, int] = dict(exact_nodes)
        self.retired = frozenset(int(k) for k in retired)
        if self.num_groups < 1:
            raise PlacementError("a PG map needs at least one group")
        if self.group_nodes.shape != (self.num_groups,):
            raise PlacementError(
                f"group_nodes has shape {self.group_nodes.shape}, "
                f"expected ({self.num_groups},)"
            )
        n = len(self.node_ids)
        live = set(range(n)) - self.retired
        if not live:
            raise PlacementError("a PG map needs at least one live node")
        hosts = set(int(k) for k in self.group_nodes)
        hosts.update(int(k) for k in self.exact_nodes.values())
        if not hosts <= live:
            raise PlacementError(
                "PG map hosts objects on retired or out-of-range nodes"
            )
        self._node_index = {node: k for k, node in enumerate(self.node_ids)}

    # ------------------------------------------------------------------
    # PlacementMap protocol
    # ------------------------------------------------------------------
    def group_of(self, obj: ObjectId) -> int | None:
        """The group of ``obj``, or ``None`` for exact objects."""
        if obj in self.exact_nodes:
            return None
        return pg_group(obj, self.num_groups, self.salt)

    def assign(self, obj: ObjectId) -> int:
        """The node index hosting ``obj``."""
        node = self.exact_nodes.get(obj)
        if node is not None:
            return int(node)
        return int(self.group_nodes[pg_group(obj, self.num_groups, self.salt)])

    def locate(self, obj: ObjectId) -> NodeId:
        """The node id hosting ``obj``."""
        return self.node_ids[self.assign(obj)]

    def to_dict(self) -> dict:
        """JSON-ready form (ids become strings, keys sorted by JSON)."""
        from repro.core.serialization import PG_MAP_SCHEMA

        return {
            "schema": PG_MAP_SCHEMA,
            "num_groups": self.num_groups,
            "salt": self.salt,
            "nodes": [str(node) for node in self.node_ids],
            "retired": sorted(self.retired),
            "group_nodes": [int(k) for k in self.group_nodes],
            "exact": {
                str(obj): int(k) for obj, k in self.exact_nodes.items()
            },
        }

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def live_nodes(self) -> tuple[int, ...]:
        """Node indices currently eligible to host groups."""
        return tuple(
            k for k in range(len(self.node_ids)) if k not in self.retired
        )

    def node_index(self, node: NodeId) -> int:
        """The index of ``node``, raising on unknown ids."""
        try:
            return self._node_index[node]
        except KeyError:
            raise PlacementError(f"unknown node {node!r}") from None

    def expand(self, problem: PlacementProblem, grouping=None):
        """The map as an exact :class:`~repro.core.placement.Placement`.

        Args:
            problem: The object universe to expand over; its node ids
                must match the map's.
            grouping: Optional
                :class:`~repro.pg.aggregate.Grouping` for the
                vectorized fast path (must describe this map's
                grouping parameters).
        """
        from repro.core.placement import Placement

        if tuple(problem.node_ids) != self.node_ids:
            raise PlacementError(
                "problem and PG map disagree on the node universe"
            )
        if grouping is not None:
            from repro.pg.aggregate import expand_assignment

            return Placement(problem, expand_assignment(grouping, self))
        assignment = np.fromiter(
            (self.assign(obj) for obj in problem.object_ids),
            dtype=np.int64,
            count=problem.num_objects,
        )
        return Placement(problem, assignment)

    # ------------------------------------------------------------------
    # Membership changes (minimal remap)
    # ------------------------------------------------------------------
    def remove_node(self, node: NodeId) -> "PGMap":
        """A new map with ``node`` retired.

        Exactly the groups and exact objects hosted on ``node`` are
        re-homed (by rendezvous hashing over the survivors); every
        other entry is untouched.
        """
        failed = self.node_index(node)
        if failed in self.retired:
            raise PlacementError(f"node {node!r} is already retired")
        survivors = [k for k in self.live_nodes if k != failed]
        if not survivors:
            raise PlacementError("cannot retire the last live node")
        group_nodes = self.group_nodes.copy()
        for g in np.flatnonzero(group_nodes == failed):
            group_nodes[g] = rendezvous_node(
                _group_key(int(g)), survivors, self.node_ids, self.salt
            )
        exact_nodes = dict(self.exact_nodes)
        for obj, k in self.exact_nodes.items():
            if int(k) == failed:
                exact_nodes[obj] = rendezvous_node(
                    _exact_key(obj), survivors, self.node_ids, self.salt
                )
        return PGMap(
            num_groups=self.num_groups,
            salt=self.salt,
            node_ids=self.node_ids,
            group_nodes=group_nodes,
            exact_nodes=exact_nodes,
            retired=self.retired | {failed},
        )

    def add_node(self, node: NodeId) -> "PGMap":
        """A new map with ``node`` added (or un-retired).

        Exactly the groups whose rendezvous draw over the enlarged
        node set is won by the new node move onto it — expected
        ``K / n_live`` of them; exact objects and every other group
        keep their node.
        """
        if node in self._node_index:
            added = self._node_index[node]
            if added not in self.retired:
                raise PlacementError(f"node {node!r} is already live")
            node_ids = self.node_ids
            retired = self.retired - {added}
        else:
            added = len(self.node_ids)
            node_ids = self.node_ids + (node,)
            retired = self.retired
        candidates = [
            k for k in range(len(node_ids)) if k not in retired
        ]
        group_nodes = self.group_nodes.copy()
        for g in range(self.num_groups):
            winner = rendezvous_node(
                _group_key(g), candidates, node_ids, self.salt
            )
            if winner == added:
                group_nodes[g] = added
        return PGMap(
            num_groups=self.num_groups,
            salt=self.salt,
            node_ids=node_ids,
            group_nodes=group_nodes,
            exact_nodes=self.exact_nodes,
            retired=retired,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PGMap):
            return NotImplemented
        return (
            self.num_groups == other.num_groups
            and self.salt == other.salt
            and self.node_ids == other.node_ids
            and np.array_equal(self.group_nodes, other.group_nodes)
            and self.exact_nodes == other.exact_nodes
            and self.retired == other.retired
        )

    def __repr__(self) -> str:
        return (
            f"PGMap(groups={self.num_groups}, exact={len(self.exact_nodes)}, "
            f"nodes={len(self.node_ids)}, retired={len(self.retired)})"
        )
