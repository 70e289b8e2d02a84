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
from itertools import chain, compress, repeat
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.core.correlation import PairProbabilities, _probabilities, _reduce_pairs
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


class QueryProfile:
    """A query log compiled once against an index, replayable anywhere.

    A replay's only placement-dependent step is the keyword -> node
    lookup, so everything else is computed here once and
    :meth:`DistributedSearchEngine.replay` evaluates a placement by a
    gather and a few per-query sums.  Distinct query ``q`` executes
    positions ``offsets[q]:offsets[q + 1]``; position ``p`` is a hop
    from position ``src[p]`` to ``dst[p]`` shipping ``shipped[p]``
    bytes, taken when their nodes differ.  The same positions are what
    :meth:`correlations` mines, so one compile feeds mining and replay.

    Args:
        index: The inverted index the log runs against.
        log: A :class:`QueryLog`, or an iterable of :class:`Query` or
            keyword sequences.  A bare ``str`` query raises
            ``TypeError`` rather than split into one-character
            keywords.
        mode: ``"intersection"`` pipelines ``p - 1 -> p``; ``"union"``
            moves every index to its query's last, largest one.

    Attributes:
        queries, counts: Distinct queries in first-occurrence order and
            their multiplicities; ``inverse`` maps log positions to them.
        words, codes: The indexed keywords the log queries, and each
            position's word code, ordered per query as the index's
            :meth:`~repro.search.index.InvertedIndex.keyword_order`
            ranks them, by ``(df, word)``.
        ranks: Each word code's rank in that order.
        owner: Distinct-query id of each position.
        scanned: ``8·df`` of each position's keyword.
        shipped: Bytes the hop into each position ships, computed on
            first use.  In intersection mode a query's first position
            ships 0, its second ``scanned`` of the first, and position
            ``p ≥ 2`` ``8·|w₀∩…∩w_{p−1}|``, counted on the index's
            document bitsets.  In union mode it is ``scanned``.
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

            # Rank every keyword of every distinct query in the index's
            # (df, word) order; an unindexed one ranks past the last.
            order = index.keyword_order()
            unindexed = len(order.words)
            lengths = np.fromiter(map(len, ids), dtype=np.int64, count=len(ids))
            flat = np.fromiter(
                map(order.rank.get, chain.from_iterable(ids), repeat(unindexed)),
                dtype=np.int64,
                count=int(lengths.sum()),
            )

            # One key per (query, rank) sorts each query's positions into
            # execution order; then drop repeated and unindexed words.
            width = unindexed + 1
            keys = np.repeat(np.arange(len(queries), dtype=np.int64) * width, lengths)
            keys += flat
            keys.sort()
            owner, rank = np.divmod(keys, width)
            keep = rank < unindexed
            keep[1:] &= keys[1:] != keys[:-1]
            self.owner, rank = owner[keep], rank[keep]
            self.offsets = np.zeros(len(queries) + 1, dtype=np.int64)
            np.bincount(self.owner, minlength=len(queries)).cumsum(out=self.offsets[1:])

            # Word codes number the kept words by first appearance.
            seen, first = np.unique(rank, return_index=True)
            self.ranks = seen[first.argsort()]
            code_of = np.empty(unindexed, dtype=np.int64)
            code_of[self.ranks] = np.arange(len(self.ranks))
            self.words = tuple(map(order.words.__getitem__, self.ranks.tolist()))
            self.codes = code_of[rank]
            self.scanned = ITEM_BYTES * order.df[rank]

            positions = np.arange(len(rank))
            if mode == "intersection":
                heads = self.offsets[:-1][self.owner]
                self.src, self.dst = positions - (positions > heads), positions
                self._shipped = None
            else:
                self.src, self.dst = positions, (self.offsets[1:] - 1)[self.owner]
                self._shipped = self.scanned
            compile_span.set(queries=len(inverse), unique_queries=len(queries))

    @property
    def shipped(self) -> np.ndarray:
        """Bytes the hop into each position ships (see the class doc)."""
        if self._shipped is None:
            self._shipped = self._intersection_bytes()
        return self._shipped

    def _intersection_bytes(self) -> np.ndarray:
        """``8·|w₀∩…∩w_{p−1}|`` per position ``p ≥ 1`` of each query.

        Position 1 ships its query's first index, a gather from
        ``scanned``.  Queries of three or more words run one ``&`` chain
        over the index's bitsets, all of them one depth at a time.
        """
        shipped = np.zeros(len(self.codes), dtype=np.int64)
        lengths = np.diff(self.offsets)
        heads = self.offsets[:-1][lengths >= 2]
        shipped[heads + 1] = self.scanned[heads]
        chained = lengths >= 3
        heads, lengths = self.offsets[:-1][chained], lengths[chained]
        if not len(heads):
            return shipped
        bits = self.index.bitsets(self.words)
        running = [bits[c] for c in self.codes[heads].tolist()]
        for depth in range(1, int(lengths.max()) - 1):
            live = lengths >= depth + 2
            if not live.all():
                heads, lengths = heads[live], lengths[live]
                running = list(compress(running, live.tolist()))
            running = [
                r & bits[c] for r, c in zip(running, self.codes[heads + depth].tolist())
            ]
            counts = np.fromiter(map(int.bit_count, running), np.int64, len(running))
            shipped[heads + depth + 1] = ITEM_BYTES * counts
        return shipped

    def correlations(
        self, mode: str = "two_smallest", min_support: int = 1
    ) -> PairProbabilities:
        """The log's Section 3.2 pair probabilities, read off the profile.

        Each distinct query's positions, ranked by the index's
        :meth:`~repro.search.index.InvertedIndex.keyword_order`, go
        through the miner's one reduction, and its pairs weigh its
        count, so the log is not read again.  The result equals the
        :mod:`repro.core.correlation` miner of the same mode over the
        log's indexed keywords, with index sizes: the same pairs,
        probabilities and dict order.

        * ``"two_smallest"``: a query's two smallest keywords, with df
          ties broken by ``repr`` as the miner breaks them.
        * ``"union_largest"``: its largest keyword paired with each
          other one, in ``repr`` order.
        * ``"cooccurrence"``: every pair of its keywords, in ``repr``
          order.  Unindexed keywords are dropped, as replay drops them.

        Args:
            mode: One of the three modes above.
            min_support: Drop pairs observed fewer than this many times.

        Raises:
            ValueError: For an unknown mode.
        """
        if mode not in ("two_smallest", "union_largest", "cooccurrence"):
            raise ValueError(f"unknown correlation mode {mode!r}")
        order = self.index.keyword_order()
        lo, hi, owner = _reduce_pairs(
            mode,
            self.offsets,
            self.owner,
            self.ranks[self.codes],
            order.by_value,
            order.by_repr,
            order.by_size,
        )
        weights = self.counts[owner]
        return _probabilities(order.words, lo, hi, weights, len(self.inverse), min_support)


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
                for histogram, values in zip(histograms, per_query):
                    histogram.observe_counts(values, profile.counts)
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
    log: QueryLog | QueryProfile,
    nodes: Mapping[NodeId, float] | int,
    correlation_mode: str = "two_smallest",
    min_support: int = 1,
) -> PlacementProblem:
    """Bridge the search substrate into a CCA instance.

    Object sizes are keyword index sizes in bytes; correlations follow
    the chosen Section 3.2 estimator over the query log, mined from its
    compiled :class:`QueryProfile` (:meth:`QueryProfile.correlations`);
    pair cost is the default smaller-index size, matching what the
    engine actually ships.

    Args:
        index: The inverted index providing keyword sizes.
        log: The query trace providing correlations, or its profile
            already compiled against ``index``, which replay can reuse.
        nodes: Node -> capacity mapping, or an int for uncapacitated
            nodes.
        correlation_mode: ``"two_smallest"`` (paper's choice for
            intersection queries), ``"cooccurrence"``, or
            ``"union_largest"``.
        min_support: Minimum pair observations to keep a correlation.

    Raises:
        ValueError: For an unknown mode, or a profile compiled against
            another index.
    """
    profile = log if isinstance(log, QueryProfile) else QueryProfile(index, log)
    if profile.index is not index:
        raise ValueError("the profile was compiled against a different index")
    sizes = {w: float(b) for w, b in index.sizes_bytes().items()}
    correlations = profile.correlations(correlation_mode, min_support)
    return PlacementProblem.build(sizes, nodes, correlations)
