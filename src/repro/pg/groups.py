"""Placement groups: a small, stable object→node map.

A million-object placement serialized per object is megabytes of state
that every replan rewrites.  The PG layer (Ceph/CRUSH-style) instead
hashes the long tail of objects into ``K`` placement groups with the
same MD5 idiom as :mod:`repro.core.hashing`, keeps the top-M
important objects exact, and stores only ``K`` group→node entries plus
the exact entries — a map whose size is independent of the object
count.  Groups no object hashes into still get a node, by
highest-random-weight (rendezvous) hashing over the node ids.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.problem import NodeId, ObjectId
from repro.exceptions import PlacementError


def _text(value) -> str:
    """The hashing text of an id (string ids hash as themselves)."""
    return value if isinstance(value, str) else repr(value)


def pg_group(obj: ObjectId, num_groups: int) -> int:
    """The placement group of ``obj`` under MD5-mod-K hashing.

    Same idiom as :func:`repro.core.hashing.hash_node` with a ``pg``
    namespace prefix, so group membership is a pure function of
    ``(obj, num_groups)`` — stable across processes and runs.
    """
    if num_groups < 1:
        raise ValueError("num_groups must be at least 1")
    digest = hashlib.md5(f"|pg|{_text(obj)}".encode("utf-8")).digest()
    return int.from_bytes(digest, "big") % num_groups


def _hrw_score(key: str, node: NodeId) -> int:
    digest = hashlib.md5(f"|pg-hrw|{key}|{_text(node)}".encode("utf-8")).digest()
    return int.from_bytes(digest, "big")


def rendezvous_node(key: str, candidates, node_ids) -> int:
    """Highest-random-weight winner among candidate node indices.

    Scores are keyed on node *ids* (not indices), so a node's score
    does not depend on which other nodes are candidates.

    Args:
        key: Hash key of the thing being placed (group or object).
        candidates: Iterable of eligible node indices.
        node_ids: The map's node-id tuple the indices point into.

    Returns:
        The winning node index.
    """
    best = -1
    best_score = -1
    for k in candidates:
        score = _hrw_score(key, node_ids[k])
        if score > best_score or (score == best_score and k < best):
            best, best_score = int(k), score
    if best < 0:
        raise PlacementError("rendezvous needs at least one candidate node")
    return best


def _group_key(group: int) -> str:
    return f"g{group}"


PG_MAP_SCHEMA = "repro/pg-map/v3"


class PGMap:
    """A placement-group map: ``K`` group entries plus exact entries.

    Attributes:
        num_groups: Placement-group count ``K``.
        node_ids: Node identifiers, in index order.
        group_nodes: ``(K,)`` int array; ``group_nodes[g]`` is the node
            index hosting group ``g``.
        exact_nodes: Important objects mapped to node indices directly,
            bypassing grouping.
    """

    def __init__(
        self,
        num_groups: int,
        node_ids,
        group_nodes: np.ndarray,
        exact_nodes: dict,
    ):
        self.num_groups = int(num_groups)
        self.node_ids: tuple[NodeId, ...] = tuple(node_ids)
        self.group_nodes = np.asarray(group_nodes, dtype=np.int64)
        self.exact_nodes: dict[ObjectId, int] = dict(exact_nodes)
        if self.num_groups < 1:
            raise PlacementError("a PG map needs at least one group")
        if self.group_nodes.shape != (self.num_groups,):
            raise PlacementError(
                f"group_nodes has shape {self.group_nodes.shape}, "
                f"expected ({self.num_groups},)"
            )
        if not self.node_ids:
            raise PlacementError("a PG map needs at least one node")
        hosts = set(int(k) for k in self.group_nodes)
        hosts.update(int(k) for k in self.exact_nodes.values())
        if not hosts <= set(range(len(self.node_ids))):
            raise PlacementError("PG map hosts objects on out-of-range nodes")

    def to_dict(self) -> dict:
        """JSON-ready form (ids become strings, keys sorted by JSON)."""
        return {
            "schema": PG_MAP_SCHEMA,
            "num_groups": self.num_groups,
            "nodes": [str(node) for node in self.node_ids],
            "group_nodes": [int(k) for k in self.group_nodes],
            "exact": {
                str(obj): int(k) for obj, k in self.exact_nodes.items()
            },
        }

    def __repr__(self) -> str:
        return (
            f"PGMap(groups={self.num_groups}, exact={len(self.exact_nodes)}, "
            f"nodes={len(self.node_ids)})"
        )
