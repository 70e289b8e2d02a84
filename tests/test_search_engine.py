"""Tests for the distributed search engine (repro.search.engine)."""

import pytest

from repro import obs
from repro.core.placement import Placement
from repro.search.documents import Corpus, Document
from repro.search.engine import (
    DistributedSearchEngine,
    QueryProfile,
    build_placement_problem,
)
from repro.search.index import ITEM_BYTES, InvertedIndex
from repro.search.query import Query, QueryLog


@pytest.fixture
def corpus():
    docs = []
    # "common" in 5 docs, "rare" in 1, "mid" in 3, "other" in 2.
    for i in range(5):
        words = {"common"}
        if i == 0:
            words |= {"rare"}
        if i < 3:
            words |= {"mid"}
        if i >= 3:
            words |= {"other"}
        docs.append(Document(f"d{i}", frozenset(words)))
    return Corpus(docs)


@pytest.fixture
def index(corpus):
    return InvertedIndex.from_corpus(corpus)


class TestQueryExecution:
    def test_colocated_query_is_local(self, index):
        engine = DistributedSearchEngine(index, {w: 0 for w in index.vocabulary})
        execution = engine.execute(["rare", "common"])
        assert execution.is_local
        assert execution.bytes_transferred == 0
        assert execution.result_count == 1  # d0 only

    def test_split_pair_ships_smaller_index(self, index):
        engine = DistributedSearchEngine(index, {"rare": 0, "common": 1, "mid": 0, "other": 0})
        execution = engine.execute(["rare", "common"])
        # rare (df=1) is smallest; its postings ship to common's node.
        assert execution.bytes_transferred == 1 * ITEM_BYTES
        assert execution.hops == 1

    def test_pipelined_three_words(self, index):
        # rare@0, mid@1, common@2: ship rare result (1) to 1, then
        # intersection (d0 only: rare&mid -> d0) ships 1 posting to 2.
        engine = DistributedSearchEngine(
            index, {"rare": 0, "mid": 1, "common": 2, "other": 0}
        )
        execution = engine.execute(["common", "mid", "rare"])
        assert execution.hops == 2
        assert execution.bytes_transferred == 2 * ITEM_BYTES
        assert execution.result_count == 1

    def test_empty_intermediate_results_cost_nothing_later(self, index):
        # rare & other are disjoint -> after 2 words the result is empty.
        engine = DistributedSearchEngine(
            index, {"rare": 0, "other": 1, "common": 2, "mid": 0}
        )
        execution = engine.execute(["rare", "other", "common"])
        # rare (1 posting) ships to other's node; empty result ships free.
        assert execution.bytes_transferred == 1 * ITEM_BYTES
        assert execution.result_count == 0

    def test_single_keyword_query_local(self, index):
        engine = DistributedSearchEngine(index, {w: 3 for w in index.vocabulary})
        execution = engine.execute(["common"])
        assert execution.is_local
        assert execution.result_count == 5

    def test_unknown_keywords_ignored(self, index):
        engine = DistributedSearchEngine(index, {w: 0 for w in index.vocabulary})
        execution = engine.execute(["zzz"])
        assert execution.result_count == 0
        assert execution.nodes_contacted == 0

    def test_result_matches_plain_intersection(self, index):
        engine = DistributedSearchEngine(index, {w: hash(w) % 3 for w in index.vocabulary})
        execution = engine.execute(["common", "mid"])
        assert execution.result_count == index.intersect(["common", "mid"]).size

    def test_accepts_placement_object(self, index):
        problem_nodes = {0: float("inf"), 1: float("inf")}
        problem = build_placement_problem(
            index, QueryLog([("common", "rare")]), problem_nodes
        )
        placement = Placement.from_mapping(
            problem, {w: 0 for w in problem.object_ids}
        )
        engine = DistributedSearchEngine(index, placement)
        assert engine.execute(["common", "rare"]).is_local


class TestEngineStats:
    def test_log_aggregation(self, index):
        engine = DistributedSearchEngine(
            index, {"rare": 0, "common": 1, "mid": 1, "other": 1}
        )
        log = QueryLog([("rare", "common"), ("common", "mid"), ("zzz",)])
        stats = engine.execute_log(log)
        assert stats.queries == 3
        assert stats.local_queries == 2  # common&mid co-located; zzz trivial
        assert stats.total_bytes == 1 * ITEM_BYTES
        assert stats.local_fraction == pytest.approx(2 / 3)
        assert stats.mean_bytes_per_query == pytest.approx(ITEM_BYTES / 3)

    def test_per_node_bytes_sent(self, index):
        engine = DistributedSearchEngine(
            index, {"rare": 0, "common": 1, "mid": 1, "other": 1}
        )
        stats = engine.execute_log(QueryLog([("rare", "common")]))
        assert stats.per_node_bytes_sent == {0: ITEM_BYTES}

    def test_empty_log(self, index):
        engine = DistributedSearchEngine(index, {})
        stats = engine.execute_log(QueryLog())
        assert stats.queries == 0
        assert stats.local_fraction == 0.0

    def test_uncovered_indexed_keyword_rejected(self, index):
        engine = DistributedSearchEngine(index, {"common": 1, "mid": 2})
        log = QueryLog([("rare", "common"), ("rare", "mid", "common")])
        with pytest.raises(ValueError, match="'rare' has no node"):
            engine.execute_log(log)
        with pytest.raises(ValueError, match="'rare' has no node"):
            engine.execute(["rare", "common"])

    def test_bare_string_query_rejected(self, index):
        engine = DistributedSearchEngine(index, {w: 0 for w in index.vocabulary})
        with pytest.raises(TypeError, match="not keywords"):
            engine.execute_log(["b a", "ab"])
        with pytest.raises(TypeError, match="not keywords"):
            engine.execute("rare common")


class TestQueryProfile:
    def test_compiled_once_replays_like_execute_log(self, index):
        log = QueryLog([("rare", "common"), ("common", "mid", "rare")] * 3)
        profile = QueryProfile(index, log)
        for lookup in ({"rare": 0, "common": 1, "mid": 1, "other": 1},
                       {"rare": 0, "common": 0, "mid": 2, "other": 1}):
            engine = DistributedSearchEngine(index, lookup)
            assert engine.replay(profile) == engine.execute_log(log)

    def test_distinct_queries_and_multiplicities(self, index):
        log = QueryLog([("mid", "rare"), ("zzz",), ("mid", "rare"), ("rare", "mid")])
        profile = QueryProfile(index, log)
        assert [q.keywords for q in profile.queries] == [
            ("mid", "rare"), ("zzz",), ("rare", "mid"),
        ]
        assert profile.counts.tolist() == [2, 1, 1]
        assert profile.inverse.tolist() == [0, 1, 0, 2]
        # Execution order is (df, word): rare (1) before mid (3).
        assert [profile.words[c] for c in profile.codes] == [
            "rare", "mid", "rare", "mid",
        ]

    def test_shipped_bytes_are_running_intersections(self, index):
        # rare & other are disjoint: the chain empties after two words.
        profile = QueryProfile(index, [("common", "other", "mid", "rare")])
        assert [profile.words[c] for c in profile.codes] == [
            "rare", "other", "mid", "common",
        ]
        assert profile.shipped.tolist() == [0, 8, 0, 0]
        assert profile.scanned.tolist() == [8, 16, 24, 40]
        union = QueryProfile(index, [("common", "other", "mid", "rare")], "union")
        assert union.shipped.tolist() == [8, 16, 24, 40]

    def test_shipped_is_computed_on_first_use(self, index):
        profile = QueryProfile(index, [("common", "mid", "rare")])
        build_placement_problem(index, profile, 2)
        assert index._bitsets is None  # mining needs no bitset work
        assert profile.shipped.tolist() == [0, 8, 8]
        assert index._bitsets is not None

    def test_keyword_order_is_built_once_per_index(self, index):
        order = index.keyword_order()
        assert order.words == ("rare", "other", "mid", "common")
        assert order.df.tolist() == [1, 2, 3, 5]
        QueryProfile(index, [("common", "rare")])
        assert index.keyword_order() is order

    def test_each_execute_log_compiles_again(self, index):
        engine = DistributedSearchEngine(index, {w: 0 for w in index.vocabulary})
        log = QueryLog([("rare", "common")])
        previous = obs.current()
        try:
            inst = obs.enable(obs.Instrumentation())
            engine.execute_log(log)
            engine.execute_log(log)
        finally:
            obs.disable()
            if previous is not None:
                obs.enable(previous)
        assert len(inst.tracer.find("replay.compile")) == 2
        assert len(inst.tracer.find("replay")) == 2

    def test_profile_of_another_index_rejected(self, index):
        other = InvertedIndex({"rare": [1]})
        engine = DistributedSearchEngine(index, {w: 0 for w in index.vocabulary})
        with pytest.raises(ValueError, match="different index"):
            engine.replay(QueryProfile(other, [("rare",)]))


class TestBuildPlacementProblem:
    def test_sizes_come_from_index(self, index):
        problem = build_placement_problem(index, QueryLog([("common", "rare")]), 2)
        assert problem.size_of("common") == 5 * ITEM_BYTES
        assert problem.size_of("rare") == 1 * ITEM_BYTES

    def test_two_smallest_mode_default(self, index):
        log = QueryLog([("common", "mid", "rare")])
        problem = build_placement_problem(index, log, 2)
        # two smallest of (rare=1, mid=3, common=5) -> (rare, mid).
        assert problem.num_pairs == 1
        pair = next(problem.pairs())
        ids = {problem.object_ids[pair.i], problem.object_ids[pair.j]}
        assert ids == {"rare", "mid"}

    def test_cooccurrence_mode(self, index):
        log = QueryLog([("common", "mid", "rare")])
        problem = build_placement_problem(index, log, 2, correlation_mode="cooccurrence")
        assert problem.num_pairs == 3

    def test_cooccurrence_drops_unindexed_words_as_replay_does(self, index):
        # No problem object is "zzz", so a pair with it could not be
        # built; the profile drops it before mining.
        log = QueryLog([("common", "zzz", "rare")])
        problem = build_placement_problem(index, log, 2, correlation_mode="cooccurrence")
        pair = next(problem.pairs())
        assert problem.num_pairs == 1
        assert {problem.object_ids[pair.i], problem.object_ids[pair.j]} == {"common", "rare"}

    def test_union_mode(self, index):
        log = QueryLog([("common", "mid", "rare")])
        problem = build_placement_problem(index, log, 2, correlation_mode="union_largest")
        assert problem.num_pairs == 2  # common paired with each other word

    def test_min_support(self, index):
        log = QueryLog([("common", "rare")] * 3 + [("mid", "other")])
        problem = build_placement_problem(index, log, 2, min_support=2)
        assert problem.num_pairs == 1

    def test_unknown_mode_rejected(self, index):
        with pytest.raises(ValueError, match="unknown correlation mode"):
            build_placement_problem(index, QueryLog(), 2, correlation_mode="bogus")
