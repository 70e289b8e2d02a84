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
        self._copies: dict[str, frozenset[int]] = dict(
            zip(problem.object_ids, map(frozenset, placement.assignment.tolist()))
        )
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
        """Run one query with greedy replica routing over live copies.

        Every hop ships the running intersection, whose size the
        index's bitsets count (:meth:`InvertedIndex.prefix_counts`), so
        no postings are intersected here.
        """
        query = as_query(query)
        index = self.index
        down = self._down
        alive: dict[str, frozenset[int]] = {}
        for w in dict.fromkeys(query.keywords):
            if w not in index:
                continue
            copies = self._copies.get(w)
            if not copies:
                continue  # unindexed keyword: skipped, as always
            survivors = copies - down if down else copies
            if not survivors:
                # Placed but every copy is on a failed node: the query
                # is unservable right now — failover has nowhere to go.
                obs.counter("engine.unserved_queries").inc()
                return QueryExecution(query, 0, 0, 0, 0, served=False)
            alive[w] = survivors
        if not alive:
            return QueryExecution(query, 0, 0, 0, 0)
        # Every live word is indexed, so its rank is its (df, word) order.
        words = sorted(alive, key=index.keyword_order().rank.__getitem__)
        sizes = index.prefix_counts(words)

        def route(copies: frozenset[int], remaining: list[str]) -> int:
            # The copy covering most of the remaining keywords, then a
            # fast one, then the lowest index (negated: this keys a max).
            if len(copies) == 1:
                return next(iter(copies))
            return max(
                copies,
                key=lambda k: (
                    sum(1 for w in remaining if k in alive[w]),
                    k not in self._slow,
                    -k,
                ),
            )

        # Start at a live copy of the smallest keyword; stay local when
        # the next keyword has a copy here, otherwise ship the running
        # result, |w₀∩…∩w_{p−1}| postings, to the best copy of w_p.
        current = route(alive[words[0]], words[1:])
        transferred = 0
        hops = 0
        visited = {current}
        for position in range(1, len(words)):
            copies = alive[words[position]]
            if current not in copies:
                current = route(copies, words[position + 1 :])
                transferred += ITEM_BYTES * sizes[position - 1]
                hops += 1
                visited.add(current)

        return QueryExecution(
            query=query,
            result_count=sizes[-1],
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
