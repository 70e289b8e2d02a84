"""Tests for replica-aware routing (repro.search.replicated_engine)
and the engine's union execution mode."""

import numpy as np
import pytest

from repro.core.problem import PlacementProblem
from repro.core.replication import ReplicatedPlacement
from repro.search.documents import Corpus, Document
from repro.search.engine import DistributedSearchEngine
from repro.search.index import ITEM_BYTES, InvertedIndex
from repro.search.query import QueryLog
from repro.search.replicated_engine import ReplicatedSearchEngine


@pytest.fixture
def index():
    docs = []
    for i in range(6):
        words = {"alpha"}
        if i < 2:
            words.add("rare")
        if i % 2 == 0:
            words.add("beta")
        docs.append(Document(f"d{i}", frozenset(words)))
    return InvertedIndex.from_corpus(Corpus(docs))


def replicated(index, rows, nodes=3):
    problem = PlacementProblem.build(
        {w: float(index.size_bytes(w)) for w in index.vocabulary}, nodes, {}
    )
    order = {w: i for i, w in enumerate(problem.object_ids)}
    assignment = np.zeros((problem.num_objects, len(next(iter(rows.values())))), dtype=np.int64)
    for word, copies in rows.items():
        assignment[order[word]] = copies
    return ReplicatedPlacement(problem, assignment)


class TestReplicatedRouting:
    def test_shared_copy_answers_locally(self, index):
        # rare: {0,1}, beta: {1,2} -> route through node 1, zero bytes.
        placement = replicated(
            index, {"rare": [0, 1], "beta": [1, 2], "alpha": [0, 2]}
        )
        engine = ReplicatedSearchEngine(index, placement)
        execution = engine.execute(["rare", "beta"])
        assert execution.bytes_transferred == 0
        assert execution.result_count == 1  # d0

    def test_disjoint_copies_pay_one_hop(self, index):
        placement = replicated(
            index, {"rare": [0, 1], "beta": [2, 0], "alpha": [1, 2]}
        )
        # rare {0,1} and beta {2,0} share node 0: still local.
        engine = ReplicatedSearchEngine(index, placement)
        assert engine.execute(["rare", "beta"]).bytes_transferred == 0

    def test_truly_disjoint_pays(self):
        docs = [Document(f"d{i}", frozenset({"x", "y"})) for i in range(4)]
        index = InvertedIndex.from_corpus(Corpus(docs))
        placement = replicated(index, {"x": [0, 1], "y": [2, 3]}, nodes=4)
        engine = ReplicatedSearchEngine(index, placement)
        execution = engine.execute(["x", "y"])
        assert execution.bytes_transferred == 4 * ITEM_BYTES
        assert execution.hops == 1

    def test_result_matches_global_intersection(self, index):
        placement = replicated(
            index, {"rare": [0, 1], "beta": [1, 2], "alpha": [0, 2]}
        )
        engine = ReplicatedSearchEngine(index, placement)
        for query in (["alpha"], ["alpha", "beta"], ["rare", "alpha", "beta"]):
            execution = engine.execute(query)
            assert execution.result_count == index.intersect(query).size

    def test_routing_beats_single_copy(self, index):
        """Replication gives the router options a single copy lacks."""
        single = DistributedSearchEngine(index, {"rare": 0, "beta": 1, "alpha": 2})
        placement = replicated(
            index, {"rare": [0, 1], "beta": [1, 2], "alpha": [2, 0]}
        )
        replicated_engine = ReplicatedSearchEngine(index, placement)
        log = QueryLog([("rare", "beta"), ("rare", "alpha"), ("beta", "alpha")])
        assert (
            replicated_engine.execute_log(log).total_bytes
            <= single.execute_log(log).total_bytes
        )

    def test_unknown_keywords_ignored(self, index):
        placement = replicated(
            index, {"rare": [0, 1], "beta": [1, 2], "alpha": [0, 2]}
        )
        engine = ReplicatedSearchEngine(index, placement)
        assert engine.execute(["zzz"]).result_count == 0

    def test_log_stats(self, index):
        placement = replicated(
            index, {"rare": [0, 1], "beta": [1, 2], "alpha": [0, 2]}
        )
        engine = ReplicatedSearchEngine(index, placement)
        stats = engine.execute_log(QueryLog([("rare", "beta"), ("alpha",)]))
        assert stats.queries == 2
        assert stats.local_fraction == 1.0

    def test_bare_string_query_rejected(self):
        # With "a", "b" and "ab" all indexed, splitting "ab" into
        # characters would silently answer the query ("a", "b").
        docs = [Document("d0", frozenset({"a", "b"})), Document("d1", frozenset({"ab"}))]
        index = InvertedIndex.from_corpus(Corpus(docs))
        placement = replicated(index, {"a": [0], "b": [1], "ab": [2]})
        engine = ReplicatedSearchEngine(index, placement)
        with pytest.raises(TypeError, match="not keywords"):
            engine.execute("ab")
        assert engine.execute(["ab"]).result_count == 1


class TestUnionExecution:
    def test_union_ships_to_largest(self, index):
        engine = DistributedSearchEngine(index, {"rare": 0, "alpha": 1, "beta": 2})
        execution = engine.execute_union(["rare", "alpha"])
        # rare (2 postings) ships to alpha's node (6 postings).
        assert execution.bytes_transferred == 2 * ITEM_BYTES
        assert execution.result_count == 6  # alpha covers all docs

    def test_union_local_when_colocated(self, index):
        engine = DistributedSearchEngine(index, {w: 0 for w in index.vocabulary})
        assert engine.execute_union(["rare", "beta"]).bytes_transferred == 0

    def test_union_result_correct(self, index):
        engine = DistributedSearchEngine(index, {"rare": 0, "alpha": 1, "beta": 2})
        execution = engine.execute_union(["rare", "beta"])
        assert execution.result_count == index.union(["rare", "beta"]).size

    def test_union_log_mode(self, index):
        engine = DistributedSearchEngine(index, {"rare": 0, "alpha": 1, "beta": 2})
        stats = engine.execute_log(QueryLog([("rare", "alpha")]), mode="union")
        assert stats.total_bytes == 2 * ITEM_BYTES
        assert stats.per_node_bytes_sent == {0: 2 * ITEM_BYTES}  # the mover's node

    def test_invalid_mode_rejected(self, index):
        engine = DistributedSearchEngine(index, {})
        with pytest.raises(ValueError, match="unknown query mode"):
            engine.execute_log(QueryLog(), mode="xor")

    def test_union_empty_query(self, index):
        engine = DistributedSearchEngine(index, {})
        assert engine.execute_union([]).result_count == 0

class TestApplyView:
    def test_view_replaces_down_and_slow_sets(self, index):
        from repro.resilience.faults import ClusterView

        placement = replicated(
            index, {"rare": [0, 1], "beta": [1, 2], "alpha": [0, 2]}
        )
        engine = ReplicatedSearchEngine(index, placement, down_nodes=[2])
        engine.mark_slow(0)
        view = ClusterView(num_nodes=3, down=frozenset({1}), slow=frozenset({2}))
        engine.apply_view(view)
        # Wholesale replacement: the old down/slow markings are gone.
        assert engine.down_nodes == frozenset({1})
        assert engine.slow_nodes == frozenset({2})

    def test_isolated_nodes_treated_as_down(self, index):
        from repro.resilience.faults import ClusterView

        placement = replicated(
            index, {"rare": [0, 1], "beta": [1, 2], "alpha": [0, 2]}
        )
        engine = ReplicatedSearchEngine(index, placement)
        view = ClusterView(num_nodes=3, isolated=frozenset({0, 1}))
        engine.apply_view(view)
        assert engine.down_nodes == frozenset({0, 1})
        # rare's only copies (0 and 1) are unreachable -> unserved.
        execution = engine.execute(["rare", "beta"])
        assert not execution.served

    def test_routing_follows_the_view(self, index):
        from repro.resilience.faults import ClusterView

        placement = replicated(
            index, {"rare": [0, 1], "beta": [1, 2], "alpha": [0, 2]}
        )
        engine = ReplicatedSearchEngine(index, placement)
        engine.apply_view(ClusterView(num_nodes=3, down=frozenset({1})))
        # Node 1 (the shared copy) is gone: rare only on 0, beta only
        # on 2, so the pipeline must ship rare's postings once.
        execution = engine.execute(["rare", "beta"])
        assert execution.served
        assert execution.bytes_transferred > 0
        engine.apply_view(ClusterView(num_nodes=3))
        assert engine.execute(["rare", "beta"]).bytes_transferred == 0
