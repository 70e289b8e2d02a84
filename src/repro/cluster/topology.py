"""Hierarchical failure domains: node → rack → zone.

The paper's cluster model is flat — any node can fail independently —
but production failures are *correlated*: a rack loses power, a zone
drops off the network, and every node inside goes with it.  This module
gives the existing node indices a place in a three-level tree
(``zone → rack → node``) so replication can spread copies across
domains and chaos schedules can crash whole domains at once.

* :class:`Topology` — the flat-array form the planners consume: for
  every node index, the rack and zone it sits in.  Immutable, JSON
  round-trippable, and cheap to query.
* :class:`FailureDomain` — the same information as an explicit tree,
  for callers that want to walk the hierarchy.
* :func:`synthetic_topology` — deterministic synthetic topologies
  (contiguous balanced assignment; a pure function of its arguments).
* :func:`parse_topology_spec` — the CLI's ``zones:Z,racks:K`` parser.

Domain *labels* are strings like ``"zone:0"`` / ``"rack:3"`` /
``"node:7"`` and are the vocabulary shared with
:mod:`repro.resilience.faults` (``crash_domain`` events) and the
degraded report's per-domain impact table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DOMAIN_KINDS = ("zone", "rack", "node")


@dataclass(frozen=True)
class FailureDomain:
    """One node of the failure-domain tree.

    Attributes:
        kind: ``"root"``, ``"zone"``, ``"rack"``, or ``"node"``.
        index: The domain's index within its kind (``-1`` for the root).
        nodes: All node indices under this domain, sorted.
        children: Child domains, ordered by index.
    """

    kind: str
    index: int
    nodes: tuple[int, ...]
    children: tuple["FailureDomain", ...] = ()

    def walk(self):
        """Yield this domain and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class Topology:
    """Per-node failure-domain membership over the existing indices.

    Attributes:
        racks: ``racks[k]`` is the rack index of node ``k``.
        zones: ``zones[k]`` is the zone index of node ``k``.  Every
            rack must sit entirely inside one zone (the tree property).
    """

    racks: tuple[int, ...]
    zones: tuple[int, ...]

    def __post_init__(self) -> None:
        racks = tuple(int(r) for r in self.racks)
        zones = tuple(int(z) for z in self.zones)
        object.__setattr__(self, "racks", racks)
        object.__setattr__(self, "zones", zones)
        if len(racks) != len(zones):
            raise ValueError("racks and zones must have one entry per node")
        if not racks:
            raise ValueError("topology needs at least one node")
        if min(racks) < 0 or min(zones) < 0:
            raise ValueError("domain indices must be nonnegative")
        rack_zone: dict[int, int] = {}
        for rack, zone in zip(racks, zones):
            if rack_zone.setdefault(rack, zone) != zone:
                raise ValueError(
                    f"rack {rack} spans zones {rack_zone[rack]} and {zone}; "
                    "each rack must sit inside exactly one zone"
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def flat(cls, num_nodes: int) -> "Topology":
        """Every node its own rack and zone — the pre-topology model.

        Spreading replicas across domains then degenerates to "distinct
        nodes", which is exactly the pre-1.7 replication constraint.
        """
        if num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        indices = tuple(range(num_nodes))
        return cls(racks=indices, zones=indices)

    @property
    def num_nodes(self) -> int:
        """Total node count."""
        return len(self.racks)

    @property
    def num_racks(self) -> int:
        """Number of distinct racks."""
        return len(set(self.racks))

    @property
    def num_zones(self) -> int:
        """Number of distinct zones."""
        return len(set(self.zones))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def domain_of(self, node: int, kind: str) -> int:
        """The ``kind`` domain index node ``node`` belongs to."""
        if kind == "node":
            return int(node)
        if kind == "rack":
            return self.racks[node]
        if kind == "zone":
            return self.zones[node]
        raise ValueError(f"unknown domain kind {kind!r}")

    def domain_ids(self, kind: str) -> np.ndarray:
        """Per-node domain index array for ``kind`` (vectorized form)."""
        if kind == "node":
            return np.arange(self.num_nodes, dtype=np.int64)
        if kind == "rack":
            return np.asarray(self.racks, dtype=np.int64)
        if kind == "zone":
            return np.asarray(self.zones, dtype=np.int64)
        raise ValueError(f"unknown domain kind {kind!r}")

    def label_of(self, node: int, kind: str) -> str:
        """The string label of node ``node``'s ``kind`` domain."""
        return f"{kind}:{self.domain_of(node, kind)}"

    def nodes_of_domain(self, label: str) -> tuple[int, ...]:
        """Node indices under a domain label like ``"rack:1"``.

        Raises:
            ValueError: For malformed labels or unknown kinds/indices.
        """
        kind, _, raw = label.partition(":")
        if kind not in DOMAIN_KINDS or not raw:
            raise ValueError(f"malformed domain label {label!r}")
        index = int(raw)
        ids = self.domain_ids(kind)
        nodes = tuple(int(k) for k in np.flatnonzero(ids == index))
        if not nodes:
            raise ValueError(f"domain {label!r} has no nodes")
        return nodes

    def rack_nodes(self, rack: int) -> tuple[int, ...]:
        """Node indices in rack ``rack``."""
        return self.nodes_of_domain(f"rack:{rack}")

    def zone_nodes(self, zone: int) -> tuple[int, ...]:
        """Node indices in zone ``zone``."""
        return self.nodes_of_domain(f"zone:{zone}")

    def domain_labels(self, kind: str) -> tuple[str, ...]:
        """All labels of one kind, sorted by index."""
        ids = sorted(set(self.domain_ids(kind).tolist()))
        return tuple(f"{kind}:{i}" for i in ids)

    def spread_level(self, replicas: int) -> str:
        """The widest domain kind that can hold ``replicas`` spread copies.

        ``"zone"`` when there are at least ``replicas`` zones, else
        ``"rack"``, else ``"node"`` (plain distinct-node replication).
        """
        if replicas <= 1:
            return "node"
        if self.num_zones >= replicas:
            return "zone"
        if self.num_racks >= replicas:
            return "rack"
        return "node"

    def tree(self) -> FailureDomain:
        """The explicit ``root → zone → rack → node`` tree."""
        zone_children: list[FailureDomain] = []
        for zone in sorted(set(self.zones)):
            rack_children: list[FailureDomain] = []
            zone_nodes: list[int] = []
            racks_in_zone = sorted(
                {r for r, z in zip(self.racks, self.zones) if z == zone}
            )
            for rack in racks_in_zone:
                members = self.rack_nodes(rack)
                zone_nodes.extend(members)
                rack_children.append(
                    FailureDomain(
                        kind="rack",
                        index=rack,
                        nodes=members,
                        children=tuple(
                            FailureDomain(kind="node", index=k, nodes=(k,))
                            for k in members
                        ),
                    )
                )
            zone_children.append(
                FailureDomain(
                    kind="zone",
                    index=zone,
                    nodes=tuple(sorted(zone_nodes)),
                    children=tuple(rack_children),
                )
            )
        return FailureDomain(
            kind="root",
            index=-1,
            nodes=tuple(range(self.num_nodes)),
            children=tuple(zone_children),
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "num_nodes": self.num_nodes,
            "racks": list(self.racks),
            "zones": list(self.zones),
        }


def synthetic_topology(
    num_nodes: int, zones: int = 1, racks_per_zone: int = 1
) -> Topology:
    """A deterministic balanced topology over ``num_nodes`` nodes.

    Racks are numbered ``zone * racks_per_zone + rack_in_zone`` and
    nodes are assigned to racks contiguously and as evenly as possible
    (the first ``num_nodes mod racks`` racks get one extra node).  A
    pure function of its arguments — no randomness — so every artifact
    derived from it is byte-reproducible.

    Args:
        num_nodes: Cluster size (must cover every rack: ``num_nodes >=
            zones * racks_per_zone``).
        zones: Zone count.
        racks_per_zone: Racks inside each zone.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be positive")
    if zones < 1 or racks_per_zone < 1:
        raise ValueError("zones and racks_per_zone must be positive")
    total_racks = zones * racks_per_zone
    if num_nodes < total_racks:
        raise ValueError(
            f"{num_nodes} nodes cannot populate {total_racks} racks"
        )
    base, extra = divmod(num_nodes, total_racks)
    racks: list[int] = []
    zones_per_node: list[int] = []
    for rack in range(total_racks):
        members = base + (1 if rack < extra else 0)
        racks.extend([rack] * members)
        zones_per_node.extend([rack // racks_per_zone] * members)
    return Topology(racks=tuple(racks), zones=tuple(zones_per_node))


def parse_topology_spec(spec: str, num_nodes: int) -> Topology:
    """Parse the CLI form ``zones:Z,racks:K`` (K racks *per zone*).

    Examples:
        ``"zones:2,racks:2"`` over 8 nodes → 2 zones × 2 racks × 2
        nodes.  Either key may be omitted (defaults to 1).
    """
    zones = 1
    racks_per_zone = 1
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, raw = part.partition(":")
        if not raw:
            raise ValueError(
                f"malformed topology spec {spec!r}; expected zones:Z,racks:K"
            )
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"malformed topology spec {spec!r}; {raw!r} is not an integer"
            ) from None
        if key == "zones":
            zones = value
        elif key == "racks":
            racks_per_zone = value
        else:
            raise ValueError(
                f"unknown topology key {key!r}; expected zones or racks"
            )
    return synthetic_topology(num_nodes, zones=zones, racks_per_zone=racks_per_zone)
