"""Tests for the hash and greedy placement strategies and the registry."""

import numpy as np
import pytest

from repro.core.greedy import greedy_placement
from repro.core.hashing import hash_node, random_hash_placement
from repro.core.problem import PlacementProblem
from repro.core.strategies import available_planners, get_planner, plan


@pytest.fixture
def clustered_problem():
    """Two tight clusters that any correlation-aware strategy should co-locate."""
    return PlacementProblem.build(
        objects={"a": 2.0, "b": 2.0, "c": 2.0, "d": 2.0},
        nodes={0: 5.0, 1: 5.0},
        correlations={("a", "b"): 0.4, ("c", "d"): 0.4, ("a", "c"): 0.01},
    )


class TestHashPlacement:
    def test_deterministic(self):
        assert hash_node("keyword", 10) == hash_node("keyword", 10)

    def test_in_range(self):
        for obj in range(100):
            assert 0 <= hash_node(f"obj{obj}", 7) < 7

    def test_salt_changes_placement(self):
        nodes = [hash_node("obj", 100, salt=str(s)) for s in range(20)]
        assert len(set(nodes)) > 1

    def test_single_node(self):
        assert hash_node("x", 1) == 0

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            hash_node("x", 0)

    def test_non_string_ids_hashable(self):
        assert 0 <= hash_node(("tuple", 3), 5) < 5

    def test_placement_matches_hash_node(self, clustered_problem):
        placement = random_hash_placement(clustered_problem)
        for obj in clustered_problem.object_ids:
            expected = hash_node(obj, clustered_problem.num_nodes)
            assert placement.assignment[clustered_problem.object_index(obj)] == expected

    def test_roughly_uniform_distribution(self):
        objects = {f"w{i}": 1.0 for i in range(2000)}
        p = PlacementProblem.build(objects, 4, {})
        counts = random_hash_placement(p).node_object_counts()
        assert counts.min() > 350  # expected 500 each


class TestGreedyPlacement:
    def test_colocates_top_pairs(self, clustered_problem):
        placement = greedy_placement(clustered_problem)
        assert placement.node_of("a") == placement.node_of("b")
        assert placement.node_of("c") == placement.node_of("d")
        assert placement.communication_cost() == pytest.approx(0.01 * 2.0)

    def test_respects_capacity_for_pairs(self):
        # Nodes can hold only one big object each, so the pair can't co-locate.
        p = PlacementProblem.build(
            {"a": 3.0, "b": 3.0}, {0: 4.0, 1: 4.0}, {("a", "b"): 1.0}
        )
        placement = greedy_placement(p)
        assert placement.is_feasible()
        assert placement.node_of("a") != placement.node_of("b")

    def test_places_uncorrelated_objects(self):
        p = PlacementProblem.build(
            {"a": 1.0, "b": 1.0, "lonely": 3.0}, {0: 4.0, 1: 4.0}, {("a", "b"): 0.5}
        )
        placement = greedy_placement(p)
        assert placement.is_feasible()

    def test_anchored_extension(self):
        # Chain a-b-c: after placing (a,b), c should join their node.
        p = PlacementProblem.build(
            {"a": 1.0, "b": 1.0, "c": 1.0},
            {0: 5.0, 1: 5.0},
            {("a", "b"): 0.9, ("b", "c"): 0.5},
        )
        placement = greedy_placement(p)
        assert placement.communication_cost() == 0.0

    def test_soft_capacity_overflows_instead(self):
        p = PlacementProblem.build(
            {"a": 3.0, "b": 3.0, "c": 3.0}, {0: 3.0, 1: 3.0}, {("a", "b"): 1.0}
        )
        placement = greedy_placement(p)
        assert placement.assignment.shape == (3,)

    def test_deterministic(self, clustered_problem):
        a = greedy_placement(clustered_problem)
        b = greedy_placement(clustered_problem)
        assert np.array_equal(a.assignment, b.assignment)


class TestControls:
    def test_registry_contains_all(self):
        assert available_planners() == [
            "greedy",
            "hash",
            "lprr",
            "lprr:pg",
            "lprr:rep",
            "rep:greedy",
            "rep:hash",
            "resilient",
            "stream:greedy",
        ]

    def test_registry_lookup(self, clustered_problem):
        from repro.core.strategies import PlanConfig

        result = plan(clustered_problem, "greedy", PlanConfig(capacity_factor=None))
        assert result.placement.is_feasible()
        assert result.diagnostics["feasible"] is True

    def test_registry_unknown(self):
        with pytest.raises(KeyError, match="unknown planner"):
            get_planner("nope")
