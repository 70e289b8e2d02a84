"""Document-partitioned search — the other architecture of footnote 1.

The paper studies keyword-based partitioning ("each node hosts the
inverted indices of some keywords"); the main alternative in practice
is document-based partitioning, where every node hosts a full small
index over its own subset of pages.  Queries broadcast to all nodes,
each intersects locally, and the per-node result fragments ship to a
coordinator for merging.

This module implements that architecture with the same byte accounting
as :class:`~repro.search.engine.DistributedSearchEngine`, so the two
designs — and the effect of correlation-aware placement, which only
exists in the keyword-partitioned world — can be compared head to head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

import numpy as np

from repro.core.hashing import hash_node
from repro.search.documents import Corpus
from repro.search.engine import EngineStats, QueryExecution
from repro.search.index import ITEM_BYTES, InvertedIndex, page_id
from repro.search.query import Query, QueryLog, as_query

NodeId = Hashable


@dataclass(frozen=True)
class DocPartitionStats:
    """Aggregate statistics for a document-partitioned replay.

    Mirrors :class:`~repro.search.engine.EngineStats` for the fields
    both architectures share.
    """

    queries: int
    total_bytes: int
    local_queries: int

    @property
    def local_fraction(self) -> float:
        """Fraction of queries answered without communication."""
        return self.local_queries / self.queries if self.queries else 0.0

    @property
    def mean_bytes_per_query(self) -> float:
        """Average communication per query."""
        return self.total_bytes / self.queries if self.queries else 0.0


class DocumentPartitionedEngine:
    """Per-node full indices over disjoint document subsets.

    Args:
        corpus: The document collection.
        nodes: Number of nodes (documents are hash-partitioned), or an
            explicit document-id -> node mapping.
    """

    def __init__(self, corpus: Corpus, nodes: int | Mapping[str, NodeId]):
        if isinstance(nodes, int):
            if nodes < 1:
                raise ValueError("need at least one node")
            doc_to_node: dict[str, NodeId] = {
                doc.doc_id: hash_node(doc.doc_id, nodes) for doc in corpus
            }
            node_ids: list[NodeId] = list(range(nodes))
        else:
            doc_to_node = dict(nodes)
            node_ids = sorted(set(doc_to_node.values()), key=repr)
        self.node_ids = node_ids
        self._indices: dict[NodeId, InvertedIndex] = {}
        buckets: dict[NodeId, Corpus] = {k: Corpus() for k in node_ids}
        for doc in corpus:
            try:
                buckets[doc_to_node[doc.doc_id]].add(doc)
            except KeyError:
                raise ValueError(
                    f"document {doc.doc_id!r} has no node assignment"
                ) from None
        for node, bucket in buckets.items():
            self._indices[node] = InvertedIndex.from_corpus(bucket)

    @property
    def num_nodes(self) -> int:
        """Number of partitions."""
        return len(self.node_ids)

    def index_on(self, node: NodeId) -> InvertedIndex:
        """The local index of one node."""
        return self._indices[node]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query: Query | Iterable[str]) -> QueryExecution:
        """Run one query: local intersections, fragments to coordinator.

        The coordinator is the node with the largest local fragment
        (it receives everyone else's fragments, so the biggest stays
        put); broadcastn of the query itself is considered free, as in
        the paper's accounting of small control messages.
        """
        query = as_query(query)
        words = [w for w in dict.fromkeys(query.keywords)]
        fragments: dict[NodeId, np.ndarray] = {}
        for node, local_index in self._indices.items():
            known = [w for w in words if w in local_index]
            if len(known) != len(words):
                continue  # some keyword absent here -> empty fragment
            local = local_index.intersect(words)
            if local.size:
                fragments[node] = local

        if not fragments:
            return QueryExecution(query, 0, 0, 0, 0)
        coordinator = max(fragments, key=lambda k: (fragments[k].size, repr(k)))
        transferred = sum(
            ITEM_BYTES * int(frag.size)
            for node, frag in fragments.items()
            if node != coordinator
        )
        result_count = int(sum(frag.size for frag in fragments.values()))
        return QueryExecution(
            query=query,
            result_count=result_count,
            bytes_transferred=int(transferred),
            nodes_contacted=len(fragments),
            hops=max(len(fragments) - 1, 0),
        )

    def execute_log(self, log: QueryLog | Iterable[Query]) -> DocPartitionStats:
        """Run a whole log and aggregate."""
        queries = 0
        total_bytes = 0
        local = 0
        for query in log:
            execution = self.execute(query)
            queries += 1
            total_bytes += execution.bytes_transferred
            if execution.bytes_transferred == 0:
                local += 1
        return DocPartitionStats(queries, total_bytes, local)

    def total_result_check(self, global_index: InvertedIndex, query) -> bool:
        """Verify fragment union equals the global intersection."""
        execution = self.execute(query)
        reference = global_index.intersect(
            query.keywords if isinstance(query, Query) else query
        )
        return execution.result_count == int(reference.size)

    def __repr__(self) -> str:
        return f"DocumentPartitionedEngine(nodes={self.num_nodes})"
