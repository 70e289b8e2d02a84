"""Tests for document-partitioned search (repro.search.docpartition)."""

import pytest

from repro.search.docpartition import DocumentPartitionedEngine
from repro.search.documents import Corpus, Document
from repro.search.index import ITEM_BYTES, InvertedIndex
from repro.search.query import Query, QueryLog


@pytest.fixture
def corpus():
    docs = []
    for i in range(6):
        words = {"common"}
        if i % 2 == 0:
            words.add("even")
        if i < 2:
            words.add("rare")
        docs.append(Document(f"d{i}", frozenset(words)))
    return Corpus(docs)


@pytest.fixture
def engine(corpus):
    # Explicit partition: d0,d1 -> A; d2,d3 -> B; d4,d5 -> C.
    mapping = {f"d{i}": "ABC"[i // 2] for i in range(6)}
    return DocumentPartitionedEngine(corpus, mapping)


class TestConstruction:
    def test_hash_partitioning(self, corpus):
        engine = DocumentPartitionedEngine(corpus, 3)
        assert engine.num_nodes == 3
        total_docs = sum(
            engine.index_on(k).document_frequency("common") for k in engine.node_ids
        )
        assert total_docs == 6

    def test_explicit_partitioning(self, engine):
        assert engine.num_nodes == 3
        assert engine.index_on("A").document_frequency("rare") == 2

    def test_missing_assignment_rejected(self, corpus):
        with pytest.raises(ValueError, match="no node assignment"):
            DocumentPartitionedEngine(corpus, {"d0": "A"})

    def test_zero_nodes_rejected(self, corpus):
        with pytest.raises(ValueError):
            DocumentPartitionedEngine(corpus, 0)


class TestExecution:
    def test_result_matches_global_intersection(self, engine, corpus):
        global_index = InvertedIndex.from_corpus(corpus)
        for query in (("common",), ("common", "even"), ("rare", "even")):
            assert engine.total_result_check(global_index, Query(query))

    def test_bare_string_query_rejected(self, engine):
        with pytest.raises(TypeError, match="not keywords"):
            engine.execute("rare")
        assert engine.execute(["rare"]).result_count == 2

    def test_single_partition_result_is_local(self, engine):
        # "rare" lives only in d0, d1 -> only node A has fragments.
        execution = engine.execute(["rare"])
        assert execution.bytes_transferred == 0
        assert execution.nodes_contacted == 1

    def test_fragments_ship_to_largest(self, engine):
        # "common" matches everywhere: 2 docs per node; two fragments
        # travel to the coordinator.
        execution = engine.execute(["common"])
        assert execution.nodes_contacted == 3
        assert execution.hops == 2
        assert execution.bytes_transferred == 2 * 2 * ITEM_BYTES

    def test_unknown_keyword_empty(self, engine):
        execution = engine.execute(["zzz"])
        assert execution.result_count == 0
        assert execution.bytes_transferred == 0

    def test_keyword_missing_on_node_gives_empty_fragment(self, engine):
        # "rare even": only d0 matches (node A); other nodes lack "rare".
        execution = engine.execute(["rare", "even"])
        assert execution.result_count == 1
        assert execution.bytes_transferred == 0

    def test_log_aggregation(self, engine):
        log = QueryLog([("rare",), ("common",)])
        stats = engine.execute_log(log)
        assert stats.queries == 2
        assert stats.local_queries == 1
        assert stats.local_fraction == pytest.approx(0.5)
        assert stats.mean_bytes_per_query == pytest.approx(
            stats.total_bytes / 2
        )

    def test_empty_log(self, engine):
        stats = engine.execute_log(QueryLog())
        assert stats.queries == 0
        assert stats.local_fraction == 0.0


class TestArchitectureComparison:
    def test_doc_partitioning_pays_on_every_broad_query(self):
        """The structural trade-off: document partitioning ships result
        fragments for every multi-node query regardless of correlation,
        while a keyword-partitioned engine with perfect co-location
        answers correlated queries locally."""
        docs = [
            Document(f"d{i}", frozenset({"car", "dealer"})) for i in range(12)
        ]
        corpus = Corpus(docs)
        doc_engine = DocumentPartitionedEngine(corpus, 4)
        doc_stats = doc_engine.execute_log(QueryLog([("car", "dealer")] * 10))

        from repro.search.engine import DistributedSearchEngine

        index = InvertedIndex.from_corpus(corpus)
        keyword_engine = DistributedSearchEngine(
            index, {"car": 0, "dealer": 0}
        )
        kw_stats = keyword_engine.execute_log(QueryLog([("car", "dealer")] * 10))
        assert kw_stats.total_bytes == 0
        assert doc_stats.total_bytes > 0
