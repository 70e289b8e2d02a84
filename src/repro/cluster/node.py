"""Storage nodes."""

from __future__ import annotations

from typing import Hashable

from repro.exceptions import PlacementError

ObjectId = Hashable


class StorageNode:
    """One node: bounded space holding named objects.

    A store past the capacity is recorded, not refused (the paper
    tolerates slight overruns under conservative capacities); see
    :attr:`is_overloaded`.

    Args:
        node_id: Identifier within the cluster.
        capacity: Space capacity (same unit as object sizes).
    """

    def __init__(self, node_id: Hashable, capacity: float = float("inf")):
        if capacity < 0:
            raise ValueError("capacity must be nonnegative")
        self.node_id = node_id
        self.capacity = capacity
        self._objects: dict[ObjectId, float] = {}

    @property
    def used(self) -> float:
        """Total size of stored objects."""
        return sum(self._objects.values())

    @property
    def free(self) -> float:
        """Remaining capacity (may be negative if overflowed)."""
        return self.capacity - self.used

    @property
    def is_overloaded(self) -> bool:
        """Whether the node exceeds its capacity."""
        return self.used > self.capacity + 1e-9

    def store(self, obj: ObjectId, size: float) -> None:
        """Store an object of the given size.

        Raises:
            PlacementError: On duplicate store.
        """
        if obj in self._objects:
            raise PlacementError(f"object {obj!r} already on node {self.node_id!r}")
        self._objects[obj] = float(size)

    def evict(self, obj: ObjectId) -> float:
        """Remove an object; returns its size.

        Raises:
            PlacementError: If the object is not stored here.
        """
        try:
            return self._objects.pop(obj)
        except KeyError:
            raise PlacementError(
                f"object {obj!r} not on node {self.node_id!r}"
            ) from None

    def holds(self, obj: ObjectId) -> bool:
        """Whether this node stores ``obj``."""
        return obj in self._objects

    def objects(self) -> list[ObjectId]:
        """Stored object ids, in insertion order."""
        return list(self._objects)

    def size_of(self, obj: ObjectId) -> float:
        """Size of a stored object."""
        try:
            return self._objects[obj]
        except KeyError:
            raise PlacementError(
                f"object {obj!r} not on node {self.node_id!r}"
            ) from None

    def __repr__(self) -> str:
        return (
            f"StorageNode({self.node_id!r}, used={self.used:.6g}, "
            f"capacity={self.capacity:.6g})"
        )
