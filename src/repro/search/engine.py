"""The distributed search-engine prototype with communication accounting.

This is the measurement harness of the paper's evaluation: "Driven by
the query log, the prototype locates the nodes that contain the
inverted indices of the queried keywords, performs intersection
operations to generate search results, and logs the communication
overhead incurred during this process."

Execution model (smallest-first pipelined intersection): the running
result set starts at the node hosting the smallest queried index and
is shipped to each subsequent index's node in ascending size order;
every ship of ``k`` postings costs ``8k`` bytes.  The cost of returning
the final ranked results to the user is excluded, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.core.correlation import (
    cooccurrence_correlations,
    two_smallest_correlations,
    union_largest_correlations,
)
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.search.index import ITEM_BYTES, InvertedIndex
from repro.search.query import Query, QueryLog, as_query

NodeId = Hashable


@dataclass(frozen=True)
class QueryExecution:
    """Trace of one executed query.

    Attributes:
        query: The executed query.
        result_count: Number of pages in the final intersection.
        bytes_transferred: Inter-node communication, in bytes.
        nodes_contacted: Distinct nodes holding the queried indices.
        hops: Number of inter-node result shipments.
        served: False when the engine could not answer — every copy of
            a queried index was on failed nodes (degraded mode).
    """

    query: Query
    result_count: int
    bytes_transferred: int
    nodes_contacted: int
    hops: int
    served: bool = True

    @property
    def is_local(self) -> bool:
        """Whether the query completed without communication."""
        return self.bytes_transferred == 0


@dataclass
class EngineStats:
    """Aggregate statistics over a stream of executed queries."""

    queries: int = 0
    total_bytes: int = 0
    local_queries: int = 0
    total_hops: int = 0
    unserved_queries: int = 0
    rejected_queries: int = 0
    per_node_bytes_sent: dict[NodeId, int] = field(default_factory=dict)

    def record(self, execution: QueryExecution, sender_bytes: list[tuple[NodeId, int]]) -> None:
        """Fold one execution into the totals."""
        self.queries += 1
        self.total_bytes += execution.bytes_transferred
        self.total_hops += execution.hops
        if not execution.served:
            self.unserved_queries += 1
        elif execution.is_local:
            self.local_queries += 1
        for node, sent in sender_bytes:
            total = self.per_node_bytes_sent.get(node, 0)
            self.per_node_bytes_sent[node] = total + sent

    def record_rejected(self, count: int = 1) -> None:
        """Account queries shed *before* reaching the engine.

        Admission-control rejections (and queries retried around a plan
        swap) never execute, so they must not inflate ``queries`` or
        ``unserved_queries`` — counting them there would double-penalize
        :attr:`availability`, which measures whether the *placement*
        could serve what it was actually asked.  They are tracked
        separately and surface in :attr:`service_level` instead.
        """
        self.rejected_queries += count

    @property
    def local_fraction(self) -> float:
        """Fraction of queries answered without communication."""
        return self.local_queries / self.queries if self.queries else 0.0

    @property
    def availability(self) -> float:
        """Fraction of *executed* queries that were servable at all.

        Rejected queries are excluded from both numerator and
        denominator: shedding load is an admission decision, not a
        placement failure.
        """
        if self.queries == 0:
            return 1.0
        return (self.queries - self.unserved_queries) / self.queries

    @property
    def service_level(self) -> float:
        """Fraction of *submitted* queries that were fully served.

        Unlike :attr:`availability` this charges admission-control
        rejections against the system, so it is the end-to-end number a
        serving layer reports.
        """
        submitted = self.queries + self.rejected_queries
        if submitted == 0:
            return 1.0
        return (self.queries - self.unserved_queries) / submitted

    @property
    def mean_bytes_per_query(self) -> float:
        """Average communication per query."""
        return self.total_bytes / self.queries if self.queries else 0.0


@dataclass(frozen=True)
class EvaluationSummary:
    """Headline numbers of one trace replay, in report-ready form.

    This is the stable surface the CLI prints and that the
    ``--metrics-out`` JSON report mirrors (``engine.queries`` /
    ``engine.bytes`` counters, ``engine.query.bytes`` histogram).
    """

    queries: int
    total_bytes: int
    total_hops: int
    local_fraction: float
    mean_bytes_per_query: float

    @classmethod
    def from_stats(cls, stats: EngineStats) -> "EvaluationSummary":
        """Freeze an :class:`EngineStats` accumulator into a summary."""
        return cls(
            queries=stats.queries,
            total_bytes=stats.total_bytes,
            total_hops=stats.total_hops,
            local_fraction=stats.local_fraction,
            mean_bytes_per_query=stats.mean_bytes_per_query,
        )

    def render(self) -> str:
        """One-line human summary (the ``repro evaluate`` output)."""
        return (
            f"replayed {self.queries} queries: {self.total_bytes} bytes moved, "
            f"{self.local_fraction:.1%} local, "
            f"{self.mean_bytes_per_query:.1f} bytes/query"
        )

    def to_dict(self) -> dict:
        """JSON-ready form (see :mod:`repro.core.serialization`)."""
        from repro.core.serialization import evaluation_summary_to_dict

        return evaluation_summary_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EvaluationSummary":
        """Rebuild from :meth:`to_dict` output."""
        from repro.core.serialization import evaluation_summary_from_dict

        return evaluation_summary_from_dict(data)


class QueryProfile:
    """A query log compiled once against an index, replayable anywhere.

    A replay's only placement-dependent step is the keyword -> node
    lookup, so everything else is computed here once and
    :meth:`DistributedSearchEngine.replay` evaluates a placement by a
    gather and a few per-query sums.  Distinct query ``q`` executes
    positions ``offsets[q]:offsets[q + 1]``; position ``p`` is a hop
    from position ``src[p]`` to ``dst[p]`` shipping ``shipped[p]``
    bytes, taken when their nodes differ.

    Args:
        index: The inverted index the log runs against.
        log: A :class:`QueryLog`, an iterable of :class:`Query` or
            keyword sequences, or a ``TraceColumns`` (read by rows).  A
            bare ``str`` query raises ``TypeError`` rather than split
            into one-character keywords.
        mode: ``"intersection"`` pipelines ``p - 1 -> p``; ``"union"``
            moves every index to its query's last, largest one.

    Attributes:
        queries, counts: Distinct queries in first-occurrence order and
            their multiplicities; ``inverse`` maps log positions to them.
        words, codes: The indexed keywords the log queries, and each
            position's word code, ``(df, word)``-ordered per query.
        owner: Distinct-query id of each position.
        shipped: Bytes the hop into each position ships.  In
            intersection mode a query's first position ships 0 and
            position ``p ≥ 1`` ``8·|w₀∩…∩w_{p−1}|``, counted on the
            index's document bitsets.  In union mode it is ``scanned``,
            ``8·df``.
    """

    def __init__(
        self,
        index: InvertedIndex,
        log: QueryLog | Iterable[Query | Sequence[str]],
        mode: str = "intersection",
    ):
        if mode not in ("intersection", "union"):
            raise ValueError(f"unknown query mode {mode!r}")
        self.index = index
        self.mode = mode
        with obs.span("replay.compile", mode=mode) as compile_span:
            ids: dict[tuple[str, ...], int] = {}
            queries, inverse = [], []
            for query in log:
                if not isinstance(query, Query):  # skips a call per logged Query
                    query = as_query(query)
                qid = ids.setdefault(query.keywords, len(ids))
                inverse.append(qid)
                if qid == len(queries):
                    queries.append(query)
            self.queries = tuple(queries)
            self.inverse = np.asarray(inverse, dtype=np.int64)
            self.counts = np.bincount(self.inverse, minlength=len(queries))

            # Intern every keyword of every distinct query, and rank the
            # indexed ones by (df, word); unindexed ones share the last rank.
            interned: dict[str, int] = {}
            flat = [
                interned.setdefault(w, len(interned)) for q in queries for w in q.keywords
            ]
            names = list(interned)
            indexed = [w in index for w in names]
            df = [index.document_frequency(w) for w in names]
            by_df = sorted(
                (k for k, known in enumerate(indexed) if known),
                key=lambda k: (df[k], names[k]),
            )
            rank = np.full(len(names), len(by_df), dtype=np.int64)
            rank[by_df] = np.arange(len(by_df))
            df, indexed = np.array(df, dtype=np.int64), np.array(indexed, dtype=bool)

            # Each query's positions in execution order: sort by (query,
            # rank), then drop repeated and unindexed words.
            flat = np.array(flat, dtype=np.int64)
            lengths = np.array([len(q.keywords) for q in queries], dtype=np.int64)
            owner = np.repeat(np.arange(len(queries)), lengths)
            order = np.lexsort((rank[flat], owner))
            owner, word = owner[order], flat[order]
            keep = indexed[word]
            keep[1:] &= (owner[1:] != owner[:-1]) | (word[1:] != word[:-1])
            self.owner, word = owner[keep], word[keep]
            kept = np.bincount(self.owner, minlength=len(queries))
            self.offsets = np.zeros(len(queries) + 1, dtype=np.int64)
            kept.cumsum(out=self.offsets[1:])

            # Word codes number the kept words by first appearance.
            seen, first = np.unique(word, return_index=True)
            seen = seen[first.argsort()]
            code_of = np.empty(len(names), dtype=np.int64)
            code_of[seen] = np.arange(len(seen))
            self.words = tuple(names[k] for k in seen.tolist())
            self.codes = code_of[word]
            self.scanned = (ITEM_BYTES * df[seen])[self.codes]

            positions = np.arange(len(word))
            if mode == "intersection":
                heads = self.offsets[:-1][self.owner]
                self.src, self.dst = positions - (positions > heads), positions
                self.shipped = self._intersection_bytes(kept)
            else:
                self.src, self.dst = positions, (self.offsets[1:] - 1)[self.owner]
                self.shipped = self.scanned
            compile_span.set(queries=len(inverse), unique_queries=len(queries))

    def _intersection_bytes(self, lengths: np.ndarray) -> np.ndarray:
        """``8·|w₀∩…∩w_{p−1}|`` per position, given each query's word count.

        Position 0 ships nothing; the rest of a query's positions ship
        its prefix counts (:meth:`InvertedIndex.prefix_counts`), one
        bitset chain per distinct query of two or more words.
        """
        counts = [0] * len(self.codes)
        words = [self.words[c] for c in self.codes.tolist()]
        chained = lengths >= 2
        for start, end in zip(
            self.offsets[:-1][chained].tolist(), self.offsets[1:][chained].tolist()
        ):
            counts[start + 1 : end] = self.index.prefix_counts(words[start : end - 1])
        return ITEM_BYTES * np.array(counts, dtype=np.int64)


class DistributedSearchEngine:
    """Keyword indices spread over nodes, with a lookup table.

    Args:
        index: The (logically global) inverted index.
        placement: Where each keyword's index lives — either a
            :class:`~repro.core.placement.Placement` over keyword
            objects or a plain keyword -> node mapping.  Unindexed
            keywords are skipped; an indexed one without a node raises
            ``ValueError`` when a query touches it.
    """

    def __init__(
        self,
        index: InvertedIndex,
        placement: Placement | Mapping[str, NodeId],
    ):
        self.index = index
        if isinstance(placement, Placement):
            self.lookup: dict[str, NodeId] = placement.to_mapping()
        else:
            self.lookup = dict(placement)

    def node_of(self, keyword: str) -> NodeId | None:
        """The node hosting ``keyword``'s index, or None if unplaced."""
        return self.lookup.get(keyword)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query: Query | Iterable[str]) -> QueryExecution:
        """Run one multi-keyword query and account its communication."""
        return self._execute_one(query, "intersection")

    def execute_union(self, query: Query | Iterable[str]) -> QueryExecution:
        """Run one OR-semantics query (Section 3.2's union model).

        Every queried index ships to the node of the largest one, which
        merges locally; each mover costs its full index size.
        """
        return self._execute_one(query, "union")

    def execute_log(
        self,
        log: QueryLog | Iterable[Query | Sequence[str]],
        mode: str = "intersection",
    ) -> EngineStats:
        """Compile ``log`` (see :class:`QueryProfile`) and :meth:`replay` it.

        To replay one log against many placements, compile it once.
        """
        return self.replay(QueryProfile(self.index, log, mode))

    def replay(self, profile: QueryProfile) -> EngineStats:
        """Statistics of executing a compiled log's queries in order.

        ``per_node_bytes_sent`` fills in first-hop order; a union-mode
        mover charges its own node.  Raises ``ValueError`` if
        ``profile`` was compiled against another index, or one of its
        keywords has no node.
        """
        if profile.index is not self.index:
            raise ValueError("the profile was compiled against a different index")
        names = ("bytes", "hops", "nodes_contacted")
        histograms = [obs.histogram(f"engine.query.{name}") for name in names]
        with obs.span("replay", mode=profile.mode) as replay_span:
            obs.counter("engine.unique_queries").inc(len(profile.queries))
            stats, per_query = self._evaluate(profile)
            if obs.is_enabled():
                counts = profile.counts.tolist()
                for histogram, values in zip(histograms, per_query):
                    for value, count in zip(values.tolist(), counts):
                        histogram.observe_many(value, count)
            replay_span.set(
                queries=stats.queries,
                total_bytes=stats.total_bytes,
                local_fraction=stats.local_fraction,
            )
        obs.counter("engine.queries").inc(stats.queries)
        obs.counter("engine.local_queries").inc(stats.local_queries)
        obs.counter("engine.bytes").inc(stats.total_bytes)
        obs.counter("engine.hops").inc(stats.total_hops)
        return stats

    def _execute_one(self, query: Query | Iterable[str], mode: str) -> QueryExecution:
        profile = QueryProfile(self.index, [query], mode)
        transferred, hops, contacted = (int(v[0]) for v in self._evaluate(profile)[1])
        if mode == "union":
            count = self.index.union_count(profile.words)
        else:
            count = self.index.prefix_counts(profile.words)[-1] if profile.words else 0
        return QueryExecution(profile.queries[0], count, transferred, contacted, hops)

    def _gather(self, profile: QueryProfile) -> tuple[np.ndarray, list[NodeId]]:
        """Each position's dense node code, and the node id of each code."""
        codes: dict[NodeId, int] = {}
        word_nodes = np.empty(len(profile.words), dtype=np.int64)
        for k, word in enumerate(profile.words):
            node = self.lookup.get(word)
            if node is None:
                raise ValueError(f"indexed keyword {word!r} has no node")
            word_nodes[k] = codes.setdefault(node, len(codes))
        return word_nodes[profile.codes], list(codes)

    def _evaluate(self, profile: QueryProfile) -> tuple[EngineStats, tuple]:
        """Totals, and bytes, hops and nodes contacted per distinct query."""
        nodes, node_ids = self._gather(profile)
        owner, counts = profile.owner, profile.counts
        num_queries = len(profile.queries)
        senders = nodes[profile.src]
        hop = senders != nodes[profile.dst]
        shipped = np.where(hop, profile.shipped, 0)
        transferred = np.bincount(owner, weights=shipped, minlength=num_queries)
        transferred = transferred.astype(np.int64)
        hops = np.bincount(owner[hop], minlength=num_queries)
        width = max(len(node_ids), 1)
        pairs = np.sort(owner * width + nodes)  # one key per (query, node) visit
        fresh = np.ones(len(pairs), dtype=bool)
        fresh[1:] = pairs[1:] != pairs[:-1]
        contacted = np.bincount(pairs[fresh] // width, minlength=num_queries)
        paid = shipped > 0
        payers = senders[paid]
        sent = np.zeros(len(node_ids), dtype=np.int64)
        np.add.at(sent, payers, shipped[paid] * counts[owner[paid]])
        stats = EngineStats(
            queries=int(counts.sum()),
            total_bytes=int(transferred @ counts),
            local_queries=int(counts[transferred == 0].sum()),
            total_hops=int(hops @ counts),
            per_node_bytes_sent={
                node_ids[k]: int(sent[k]) for k in dict.fromkeys(payers.tolist())
            },
        )
        return stats, (transferred, hops, contacted)


def build_placement_problem(
    index: InvertedIndex,
    log: QueryLog,
    nodes: Mapping[NodeId, float] | int,
    correlation_mode: str = "two_smallest",
    min_support: int = 1,
) -> PlacementProblem:
    """Bridge the search substrate into a CCA instance.

    Object sizes are keyword index sizes in bytes; correlations follow
    the chosen Section 3.2 estimator over the query log; pair cost is
    the default smaller-index size, matching what the engine actually
    ships.

    Args:
        index: The inverted index providing keyword sizes.
        log: The query trace providing correlations.
        nodes: Node -> capacity mapping, or an int for uncapacitated
            nodes.
        correlation_mode: ``"two_smallest"`` (paper's choice for
            intersection queries), ``"cooccurrence"``, or
            ``"union_largest"``.
        min_support: Minimum pair observations to keep a correlation.
    """
    sizes = {w: float(b) for w, b in index.sizes_bytes().items()}
    trace = list(log.operations())
    if correlation_mode == "two_smallest":
        correlations = two_smallest_correlations(trace, sizes, min_support)
    elif correlation_mode == "cooccurrence":
        correlations = cooccurrence_correlations(trace, min_support)
    elif correlation_mode == "union_largest":
        correlations = union_largest_correlations(trace, sizes, min_support)
    else:
        raise ValueError(f"unknown correlation mode {correlation_mode!r}")
    return PlacementProblem.build(sizes, nodes, correlations)
