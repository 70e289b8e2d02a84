"""Immutable placement snapshots behind an atomically swappable handle.

The router must keep answering queries while a replan publishes new
placements.  The classic lock-free recipe: a *snapshot*
is a fully immutable view of one placement (frozen assignment arrays
plus the routing engine built over them), and a *handle* is a single
mutable cell holding the current snapshot.  Swapping the handle is one
attribute assignment — atomic under the GIL and trivially atomic on an
asyncio loop — so a batch captures exactly one snapshot at dispatch and
routes every query in it against that version, no matter how many swaps
land while it is in flight.  There is no torn read to have: nothing a
snapshot references can change after :meth:`PlanSnapshot.build`.
"""

from __future__ import annotations

from typing import Hashable, Mapping

import numpy as np

from repro.core.problem import PlacementProblem
from repro.core.replication import ReplicatedPlacement
from repro.search.index import InvertedIndex
from repro.search.replicated_engine import ReplicatedSearchEngine

__all__ = ["PlanSnapshot", "PlanHandle"]

ObjectId = Hashable


class PlanSnapshot:
    """One immutable, versioned placement plus its routing engine.

    Build via :meth:`build` (from a replicated placement) or
    :meth:`from_mapping` (from a planner's object→node dict).  The
    assignment array is frozen (``writeable=False``); the engine is
    private to the snapshot and must not have its failure view mutated
    — degraded-mode markings belong on a *new* snapshot.
    """

    __slots__ = ("version", "engine", "planner", "_assignment")

    def __init__(
        self,
        version: int,
        engine: ReplicatedSearchEngine,
        planner: str = "",
    ) -> None:
        self.version = version
        self.engine = engine
        self.planner = planner
        assignment = engine.placement.assignment
        assignment.setflags(write=False)
        self._assignment = assignment

    @classmethod
    def build(
        cls,
        index: InvertedIndex,
        placement: ReplicatedPlacement,
        version: int,
        planner: str = "",
        down_nodes: tuple[int, ...] = (),
    ) -> "PlanSnapshot":
        """Snapshot a replicated placement for serving."""
        engine = ReplicatedSearchEngine(index, placement, down_nodes=down_nodes)
        return cls(version, engine, planner=planner)

    @classmethod
    def from_mapping(
        cls,
        index: InvertedIndex,
        problem: PlacementProblem,
        mapping: Mapping[ObjectId, int],
        version: int,
        planner: str = "",
    ) -> "PlanSnapshot":
        """Snapshot an unreplicated object→node mapping (R = 1).

        This is the adapter between a single-copy plan's object→node
        indices (what each loadgen hot swap publishes) and the
        replicated routing engine: each object gets a single-copy
        column.
        """
        column = np.array(
            [int(mapping[obj]) for obj in problem.object_ids], dtype=np.int64
        )
        placement = ReplicatedPlacement(problem, column[:, None])
        return cls.build(index, placement, version, planner=planner)

    @property
    def assignment(self) -> np.ndarray:
        """The frozen ``(t, R)`` assignment array."""
        return self._assignment

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanSnapshot(version={self.version}, planner={self.planner!r})"


class PlanHandle:
    """The single mutable cell: which snapshot is current.

    Also keeps per-version in-flight reference counts so tests (and the
    loadgen report) can prove no query was dropped or torn by a swap:
    a batch acquires the current snapshot once at dispatch and releases
    it at completion; retiring versions with live references is visible
    in :meth:`active_versions`.
    """

    def __init__(self, snapshot: PlanSnapshot) -> None:
        self._current = snapshot
        self._active: dict[int, int] = {}
        self.swaps = 0

    @property
    def current(self) -> PlanSnapshot:
        """The snapshot new work should capture."""
        return self._current

    def swap(self, snapshot: PlanSnapshot) -> PlanSnapshot:
        """Atomically install ``snapshot``; returns the one replaced.

        In-flight work keeps routing against whatever it captured; only
        *new* acquisitions see the new version.
        """
        if snapshot.version <= self._current.version:
            raise ValueError(
                f"snapshot version {snapshot.version} must exceed current "
                f"{self._current.version}"
            )
        previous, self._current = self._current, snapshot
        self.swaps += 1
        return previous

    def acquire(self) -> PlanSnapshot:
        """Capture the current snapshot and pin it as in-flight."""
        snapshot = self._current
        self._active[snapshot.version] = self._active.get(snapshot.version, 0) + 1
        return snapshot

    def release(self, snapshot: PlanSnapshot) -> None:
        """Drop one in-flight reference on ``snapshot``."""
        count = self._active.get(snapshot.version, 0) - 1
        if count < 0:
            raise ValueError(
                f"release without acquire for version {snapshot.version}"
            )
        if count:
            self._active[snapshot.version] = count
        else:
            self._active.pop(snapshot.version, None)

    def active_versions(self) -> dict[int, int]:
        """Versions with in-flight references → reference counts."""
        return dict(self._active)
