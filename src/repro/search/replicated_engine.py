"""Query execution over replicated keyword indices.

With a :class:`~repro.core.replication.ReplicatedPlacement`, every
keyword index exists on several nodes, and the engine can *route*: for
each query it picks one copy per keyword so the pipelined intersection
stays on as few nodes as possible.  Routing is the read-side payoff of
replication — the placement decides what is possible, routing decides
what each query actually pays.

Routing policy (greedy, per query): start at the node that holds a
copy of the smallest keyword and is shared by the most other queried
keywords; at each pipeline step, stay local when the next keyword has
a copy on the current node, otherwise jump to the copy node shared by
the most remaining keywords.

Degraded mode: the engine is also the failover layer of the resilience
subsystem.  Nodes can be marked down (:meth:`mark_down`) or slow
(:meth:`mark_slow`); routing then re-picks *surviving* copies per
query, prefers fast copies over slow ones at equal coverage, and a
query whose keyword has copies but none alive comes back with
``served=False`` instead of an exception — degraded service, not an
outage.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

from repro import obs
from repro.core.replication import ReplicatedPlacement
from repro.search.engine import EngineStats, QueryExecution
from repro.search.index import ITEM_BYTES, InvertedIndex
from repro.search.query import Query, QueryLog, as_query

NodeId = Hashable


class ReplicatedSearchEngine:
    """Distributed engine with replica-aware, failure-aware routing.

    Args:
        index: The global inverted index.
        placement: Replicated keyword placement; keywords absent from
            the placement's problem are treated as unindexed.
        down_nodes: Node indices considered failed from the start
            (equivalent to calling :meth:`mark_down` immediately).
    """

    def __init__(
        self,
        index: InvertedIndex,
        placement: ReplicatedPlacement,
        down_nodes: Iterable[int] = (),
    ):
        self.index = index
        self.placement = placement
        problem = placement.problem
        self._copies: dict[str, frozenset[int]] = {
            obj: frozenset(int(k) for k in placement.assignment[i])
            for i, obj in enumerate(problem.object_ids)
        }
        self._node_ids = problem.node_ids
        self._down: set[int] = {int(k) for k in down_nodes}
        self._slow: set[int] = set()

    def copies_of(self, keyword: str) -> frozenset[int]:
        """Node indices holding copies of ``keyword`` (empty if none)."""
        return self._copies.get(keyword, frozenset())

    # ------------------------------------------------------------------
    # Degraded-mode controls
    # ------------------------------------------------------------------
    @property
    def down_nodes(self) -> frozenset[int]:
        """Node indices currently marked failed."""
        return frozenset(self._down)

    @property
    def slow_nodes(self) -> frozenset[int]:
        """Node indices currently marked slow (routed around)."""
        return frozenset(self._slow)

    def mark_down(self, *nodes: int) -> None:
        """Mark nodes failed; their copies stop being routing targets."""
        for k in nodes:
            self._down.add(int(k))
        obs.counter("engine.nodes_marked_down").inc(len(nodes))

    def mark_up(self, *nodes: int) -> None:
        """Bring nodes back; their copies become routable again."""
        for k in nodes:
            self._down.discard(int(k))

    def mark_slow(self, *nodes: int) -> None:
        """Mark nodes slow; routing prefers other copies when coverage ties."""
        for k in nodes:
            self._slow.add(int(k))

    def clear_slow(self) -> None:
        """Forget all slow-node markings."""
        self._slow.clear()

    def apply_view(self, view) -> None:
        """Adopt a :class:`~repro.resilience.faults.ClusterView` wholesale.

        Replaces the engine's down/slow sets with the view's, so a
        chaos epoch can hand the engine its exact cluster health
        instead of issuing incremental ``mark_*`` calls.  Isolated
        nodes are treated as down for routing purposes — the engine
        pipelines across nodes, which a partition forbids.
        """
        self._down = {int(k) for k in view.down} | {
            int(k) for k in view.isolated
        }
        self._slow = {int(k) for k in view.slow}

    def alive_copies_of(self, keyword: str) -> frozenset[int]:
        """Surviving (non-failed) copy holders of ``keyword``."""
        return self._copies.get(keyword, frozenset()) - self._down

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query: Query | Iterable[str]) -> QueryExecution:
        """Run one query with greedy replica routing over live copies."""
        query = as_query(query)
        alive: dict[str, frozenset[int]] = {}
        for w in dict.fromkeys(query.keywords):
            if w not in self.index:
                continue
            copies = self._copies.get(w)
            if not copies:
                continue  # unindexed keyword: skipped, as always
            survivors = copies - self._down
            if not survivors:
                # Placed but every copy is on a failed node: the query
                # is unservable right now — failover has nowhere to go.
                obs.counter("engine.unserved_queries").inc()
                return QueryExecution(query, 0, 0, 0, 0, served=False)
            alive[w] = survivors
        words = list(alive)
        if not words:
            return QueryExecution(query, 0, 0, 0, 0)
        words.sort(key=lambda w: (self.index.document_frequency(w), w))

        def shared_count(node: int, remaining: list[str]) -> int:
            return sum(1 for w in remaining if node in alive[w])

        def route_key(node: int, remaining: list[str]) -> tuple:
            # Coverage first, then avoid slow nodes, then lowest index
            # (negated because this keys a max()).
            return (shared_count(node, remaining), node not in self._slow, -node)

        # Start node: a live copy holder of the smallest keyword
        # covering the most of the rest of the query.
        first_copies = sorted(alive[words[0]])
        current = max(first_copies, key=lambda k: route_key(k, words[1:]))
        result = self.index.postings(words[0])
        transferred = 0
        hops = 0
        visited = {current}

        for position, word in enumerate(words[1:], start=1):
            copies = alive[word]
            if current not in copies:
                remaining = words[position + 1 :]
                target = max(
                    sorted(copies), key=lambda k: route_key(k, remaining)
                )
                shipped = ITEM_BYTES * int(result.size)
                transferred += shipped
                hops += 1
                current = target
            visited.add(current)
            result = np.intersect1d(
                result, self.index.postings(word), assume_unique=True
            )

        return QueryExecution(
            query=query,
            result_count=int(result.size),
            bytes_transferred=transferred,
            nodes_contacted=len(visited),
            hops=hops,
        )

    def execute_log(self, log: QueryLog | Iterable[Query]) -> EngineStats:
        """Run every query of a log and aggregate statistics."""
        stats = EngineStats()
        for query in log:
            execution = self.execute(query)
            stats.record(execution, [])
        return stats
