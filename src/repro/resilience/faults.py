"""Deterministic fault injection: schedules, state, and epochs.

The unit of chaos is a :class:`FaultEvent` — a crash, recovery,
slowdown, or network partition pinned to a *virtual* time, measured in
trace-operation indices rather than wall-clock seconds so that a run
is reproducible bit-for-bit from its seed.  A :class:`FaultSchedule`
is an ordered list of events; :meth:`FaultSchedule.random` draws one
deterministically from a seed, and :meth:`FaultSchedule.epochs` slices
a trace horizon into the maximal intervals over which cluster health
is constant.

:class:`FaultState` folds events into the current health picture and
:class:`ClusterView` is its immutable snapshot — the object the
degraded-serving analytics and the repair planner consume.  Every
injected event is counted (``faults.injected``, ``faults.<kind>``) and
recorded as a span attribute when tracing is on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro import obs

CRASH = "crash"
RECOVER = "recover"
SLOW = "slow"
FAST = "fast"
PARTITION = "partition"
HEAL = "heal"
CRASH_DOMAIN = "crash_domain"
HEAL_DOMAIN = "heal_domain"

FAULT_KINDS = (
    CRASH,
    RECOVER,
    SLOW,
    FAST,
    PARTITION,
    HEAL,
    CRASH_DOMAIN,
    HEAL_DOMAIN,
)


@dataclass(frozen=True)
class FaultEvent:
    """One health transition at a virtual time.

    Attributes:
        time: Trace-operation index at which the event fires (events at
            time ``t`` apply before operation ``t`` executes).
        kind: One of :data:`FAULT_KINDS` — ``crash`` / ``recover`` take
            nodes down / bring them back, ``slow`` / ``fast`` mark and
            unmark stragglers, ``partition`` isolates ``nodes`` from
            the rest of the cluster, ``heal`` removes the partition.
            ``crash_domain`` / ``heal_domain`` are the correlated
            variants: every node of one failure domain (a rack losing
            power, a zone dropping out) goes down or comes back
            together.
        nodes: Node *indices* the event applies to (empty for
            ``heal``).
        domain: Failure-domain label (``"rack:1"``, ``"zone:0"``) for
            domain-correlated events; empty for plain node events.  A
            ``partition`` may also carry a domain label when one side
            of the split is a whole zone.
    """

    time: int
    kind: str
    nodes: tuple[int, ...] = ()
    domain: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.time < 0:
            raise ValueError("event time must be nonnegative")
        object.__setattr__(
            self, "nodes", tuple(int(k) for k in self.nodes)
        )
        if self.kind in (CRASH_DOMAIN, HEAL_DOMAIN):
            if not self.domain:
                raise ValueError(f"{self.kind} events need a domain label")
            if not self.nodes:
                raise ValueError(f"{self.kind} events need the domain's nodes")

    def to_dict(self) -> dict:
        """JSON-ready form (``domain`` key only for domain events)."""
        doc = {"time": self.time, "kind": self.kind, "nodes": list(self.nodes)}
        if self.domain:
            doc["domain"] = self.domain
        return doc


@dataclass(frozen=True)
class ClusterView:
    """Immutable snapshot of cluster health.

    Every ``down``, ``slow`` and ``isolated`` index must lie in
    ``[0, num_nodes)``; construction raises ``ValueError`` otherwise.

    Attributes:
        num_nodes: Total node count.
        down: Indices of crashed nodes.
        slow: Indices of degraded-but-alive nodes.
        isolated: One side of an active network partition (empty when
            the network is whole).  Isolated nodes are alive unless
            also ``down``; they just cannot talk to the other side.
        down_domains: Labels of failure domains currently crashed as a
            unit (``crash_domain`` without a matching ``heal_domain``);
            their nodes are included in ``down``.
    """

    num_nodes: int
    down: frozenset[int] = frozenset()
    slow: frozenset[int] = frozenset()
    isolated: frozenset[int] = frozenset()
    down_domains: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for name in ("down", "slow", "isolated"):
            for k in getattr(self, name):
                if not 0 <= k < self.num_nodes:
                    raise ValueError(
                        f"{name} references unknown node index {k} "
                        f"(num_nodes={self.num_nodes})"
                    )

    @property
    def healthy(self) -> bool:
        """Whether nothing at all is wrong."""
        return not (self.down or self.slow or self.isolated)

    @property
    def up(self) -> frozenset[int]:
        """Indices of non-crashed nodes."""
        return frozenset(range(self.num_nodes)) - self.down

    def groups(self) -> tuple[frozenset[int], ...]:
        """Mutually reachable sets of *live* nodes.

        With no partition this is one group (all live nodes); with a
        partition, the live part of each side.  Empty sides are
        dropped.
        """
        alive = self.up
        if not self.isolated:
            return (alive,) if alive else ()
        inside = frozenset(self.isolated) & alive
        outside = alive - self.isolated
        return tuple(g for g in (outside, inside) if g)


class FaultState:
    """Mutable health tracker: folds events, snapshots views."""

    def __init__(self, num_nodes: int):
        if num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self._down: set[int] = set()
        self._slow: set[int] = set()
        self._isolated: set[int] = set()
        self._down_domains: set[str] = set()

    def apply(self, event: FaultEvent) -> None:
        """Fold one event into the state (and count it)."""
        for k in event.nodes:
            if not 0 <= k < self.num_nodes:
                raise ValueError(f"event references unknown node index {k}")
        if event.kind == CRASH:
            self._down.update(event.nodes)
        elif event.kind == RECOVER:
            self._down.difference_update(event.nodes)
        elif event.kind == SLOW:
            self._slow.update(event.nodes)
        elif event.kind == FAST:
            self._slow.difference_update(event.nodes)
        elif event.kind == PARTITION:
            self._isolated = set(event.nodes)
        elif event.kind == HEAL:
            self._isolated.clear()
        elif event.kind == CRASH_DOMAIN:
            self._down.update(event.nodes)
            self._down_domains.add(event.domain)
        elif event.kind == HEAL_DOMAIN:
            self._down.difference_update(event.nodes)
            self._down_domains.discard(event.domain)
        obs.counter("faults.injected").inc()
        obs.counter(f"faults.{event.kind}").inc()

    def view(self) -> ClusterView:
        """The current health snapshot."""
        return ClusterView(
            num_nodes=self.num_nodes,
            down=frozenset(self._down),
            slow=frozenset(self._slow),
            isolated=frozenset(self._isolated),
            down_domains=frozenset(self._down_domains),
        )


@dataclass(frozen=True)
class Epoch:
    """A maximal interval of constant cluster health.

    Attributes:
        index: Position in the epoch sequence.
        start: First operation index covered (inclusive).
        end: One past the last operation index covered.
        events: Events that fired at ``start`` (empty for the first
            epoch of an initially healthy run).
        view: Cluster health throughout the interval.
    """

    index: int
    start: int
    end: int
    events: tuple[FaultEvent, ...]
    view: ClusterView


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, validated list of fault events.

    Attributes:
        num_nodes: Node count the events are indexed against.
        events: Events in nondecreasing time order.
    """

    num_nodes: int
    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        times = [e.time for e in self.events]
        if times != sorted(times):
            raise ValueError("events must be sorted by time")
        for event in self.events:
            for k in event.nodes:
                if not 0 <= k < self.num_nodes:
                    raise ValueError(
                        f"event at t={event.time} references unknown node {k}"
                    )

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def random(
        cls,
        num_nodes: int,
        horizon: int,
        *,
        seed: int = 0,
        events: int = 6,
        max_down_fraction: float = 0.5,
    ) -> "FaultSchedule":
        """Draw a schedule deterministically from a seed.

        Event kinds are weighted toward crashes (the interesting case),
        recoveries follow crashes, and a partition appears only while
        none is active.  At most ``max_down_fraction`` of the nodes are
        ever down at once, so the cluster always retains surviving
        capacity to repair onto.

        Args:
            num_nodes: Cluster size.
            horizon: Trace length in operations; events land strictly
                inside ``(0, horizon)``.
            seed: Root seed; same seed, same schedule, always.
            events: Number of events to draw.
            max_down_fraction: Ceiling on simultaneously crashed nodes.
        """
        if horizon < 2:
            raise ValueError("horizon must be at least 2 operations")
        if events < 0:
            raise ValueError("events must be nonnegative")
        rng = np.random.default_rng(seed)
        max_down = max(1, int(max_down_fraction * num_nodes))
        count = min(events, horizon - 1)
        times = sorted(
            int(t) for t in rng.choice(np.arange(1, horizon), size=count, replace=False)
        )

        down: set[int] = set()
        slow: set[int] = set()
        partitioned = False
        drawn: list[FaultEvent] = []
        for t in times:
            up = sorted(set(range(num_nodes)) - down)
            choices: list[str] = []
            weights: list[float] = []
            if len(down) < max_down and len(up) > 1:
                choices.append(CRASH)
                weights.append(0.45)
            if down:
                choices.append(RECOVER)
                weights.append(0.25)
            if up:
                choices.append(SLOW if not slow else FAST)
                weights.append(0.15)
            if not partitioned and num_nodes >= 3:
                choices.append(PARTITION)
                weights.append(0.10)
            if partitioned:
                choices.append(HEAL)
                weights.append(0.05)
            if not choices:
                continue
            probs = np.asarray(weights) / sum(weights)
            kind = str(rng.choice(choices, p=probs))
            if kind == CRASH:
                node = int(rng.choice(up))
                down.add(node)
                drawn.append(FaultEvent(t, CRASH, (node,)))
            elif kind == RECOVER:
                node = int(rng.choice(sorted(down)))
                down.discard(node)
                drawn.append(FaultEvent(t, RECOVER, (node,)))
            elif kind == SLOW:
                node = int(rng.choice(up))
                slow.add(node)
                drawn.append(FaultEvent(t, SLOW, (node,)))
            elif kind == FAST:
                node = int(rng.choice(sorted(slow)))
                slow.discard(node)
                drawn.append(FaultEvent(t, FAST, (node,)))
            elif kind == PARTITION:
                side = max(1, num_nodes // 3)
                nodes = tuple(
                    int(k)
                    for k in sorted(
                        rng.choice(num_nodes, size=side, replace=False)
                    )
                )
                partitioned = True
                drawn.append(FaultEvent(t, PARTITION, nodes))
            else:  # HEAL
                partitioned = False
                drawn.append(FaultEvent(t, HEAL))
        return cls(num_nodes=num_nodes, events=tuple(drawn))

    @classmethod
    def random_domains(
        cls,
        topology,
        horizon: int,
        *,
        seed: int = 0,
        events: int = 6,
        max_down_fraction: float = 0.5,
    ) -> "FaultSchedule":
        """Draw a *domain-correlated* schedule deterministically.

        The failure unit is a whole rack or zone: ``crash_domain``
        events take every node of one domain down together (rack power
        loss, zone outage), ``heal_domain`` brings a crashed domain
        back, and an occasional ``partition`` isolates one zone from
        the rest of the network.  As with :meth:`random`, at most
        ``max_down_fraction`` of the nodes are ever down at once, so
        surviving capacity always exists to repair onto.

        Args:
            topology: :class:`~repro.cluster.topology.Topology` giving
                rack/zone membership of the node indices.
            horizon: Trace length in operations; events land strictly
                inside ``(0, horizon)``.
            seed: Root seed; same seed, same schedule, always.
            events: Number of events to draw.
            max_down_fraction: Ceiling on simultaneously crashed nodes.
        """
        if horizon < 2:
            raise ValueError("horizon must be at least 2 operations")
        if events < 0:
            raise ValueError("events must be nonnegative")
        num_nodes = topology.num_nodes
        rng = np.random.default_rng(seed)
        max_down = max(1, int(max_down_fraction * num_nodes))
        count = min(events, horizon - 1)
        times = sorted(
            int(t) for t in rng.choice(np.arange(1, horizon), size=count, replace=False)
        )

        down_domains: dict[str, tuple[int, ...]] = {}
        down: set[int] = set()
        partitioned = False
        drawn: list[FaultEvent] = []
        for t in times:
            crashable = [
                label
                for kind in ("rack", "zone")
                for label in topology.domain_labels(kind)
                if label not in down_domains
                and not (set(topology.nodes_of_domain(label)) & down)
                and len(down | set(topology.nodes_of_domain(label))) <= max_down
            ]
            choices: list[str] = []
            weights: list[float] = []
            if crashable:
                choices.append(CRASH_DOMAIN)
                weights.append(0.50)
            if down_domains:
                choices.append(HEAL_DOMAIN)
                weights.append(0.30)
            if not partitioned and topology.num_zones >= 2:
                choices.append(PARTITION)
                weights.append(0.15)
            if partitioned:
                choices.append(HEAL)
                weights.append(0.05)
            if not choices:
                continue
            probs = np.asarray(weights) / sum(weights)
            kind = str(rng.choice(choices, p=probs))
            if kind == CRASH_DOMAIN:
                label = str(rng.choice(crashable))
                nodes = topology.nodes_of_domain(label)
                down_domains[label] = nodes
                down.update(nodes)
                drawn.append(FaultEvent(t, CRASH_DOMAIN, nodes, domain=label))
            elif kind == HEAL_DOMAIN:
                label = str(rng.choice(sorted(down_domains)))
                nodes = down_domains.pop(label)
                down.difference_update(nodes)
                drawn.append(FaultEvent(t, HEAL_DOMAIN, nodes, domain=label))
            elif kind == PARTITION:
                zone = str(rng.choice(topology.domain_labels("zone")))
                nodes = topology.nodes_of_domain(zone)
                partitioned = True
                drawn.append(FaultEvent(t, PARTITION, nodes, domain=zone))
            else:  # HEAL
                partitioned = False
                drawn.append(FaultEvent(t, HEAL))
        return cls(num_nodes=num_nodes, events=tuple(drawn))

    def epochs(self, horizon: int) -> Iterator[Epoch]:
        """Slice ``[0, horizon)`` into constant-health intervals.

        Events beyond the horizon are ignored; events sharing a time
        apply together at the start of the epoch they open.  Empty
        intervals (two event times with no operations between them)
        are skipped, their events folding into the next epoch.
        """
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        state = FaultState(self.num_nodes)
        relevant = [e for e in self.events if e.time < horizon]
        boundaries = sorted({0, horizon, *(e.time for e in relevant)})
        index = 0
        for start, end in zip(boundaries, boundaries[1:]):
            fired = tuple(e for e in relevant if e.time == start)
            for event in fired:
                state.apply(event)
            yield Epoch(
                index=index,
                start=start,
                end=end,
                events=fired,
                view=state.view(),
            )
            index += 1

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "num_nodes": self.num_nodes,
            "events": [e.to_dict() for e in self.events],
        }
