"""Tests for generic partial optimization (repro.core.partial)."""

import numpy as np
import pytest

from repro.core.greedy import greedy_placement
from repro.core.hashing import hash_node
from repro.core.partial import scoped_placement
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem


@pytest.fixture
def problem():
    # Two heavy clusters plus light never-paired objects.
    objects = {f"h{i}": 2.0 for i in range(4)}
    objects.update({f"l{i}": 1.0 for i in range(6)})
    correlations = {
        ("h0", "h1"): 0.9,
        ("h2", "h3"): 0.8,
        ("l0", "l1"): 0.01,
    }
    return PlacementProblem.build(objects, 3, correlations)


class TestScopedPlacement:
    def test_full_scope_uses_inner_strategy_everywhere(self, problem):
        placement = scoped_placement(problem, None, greedy_placement)
        assert placement.node_of("h0") == placement.node_of("h1")
        assert placement.node_of("h2") == placement.node_of("h3")

    def test_out_of_scope_objects_hash_placed(self, problem):
        placement = scoped_placement(problem, 4, greedy_placement)
        # The light objects are out of scope -> hash positions.
        for obj in ("l2", "l3", "l4", "l5"):
            expected = hash_node(obj, problem.num_nodes)
            assert placement.assignment[problem.object_index(obj)] == expected

    def test_scope_zero_is_pure_hash(self, problem):
        placement = scoped_placement(problem, 0, greedy_placement)
        for i, obj in enumerate(problem.object_ids):
            assert placement.assignment[i] == hash_node(obj, problem.num_nodes)

    def test_scope_clipped_to_problem_size(self, problem):
        placement = scoped_placement(problem, 10_000, greedy_placement)
        assert placement.assignment.shape == (problem.num_objects,)

    def test_negative_scope_rejected(self, problem):
        with pytest.raises(ValueError):
            scoped_placement(problem, -1, greedy_placement)

    def test_inner_strategy_sees_conservative_capacities(self, problem):
        seen = {}

        def spy(subproblem):
            seen["capacities"] = subproblem.capacities.copy()
            seen["objects"] = subproblem.object_ids
            return Placement(
                subproblem, np.zeros(subproblem.num_objects, dtype=np.int64)
            )

        scoped_placement(problem, 4, spy, capacity_factor=2.0)
        scoped_size = 4 * 2.0  # four heavy objects
        expected = 2.0 * scoped_size / problem.num_nodes
        assert seen["capacities"][0] == pytest.approx(expected)
        assert len(seen["objects"]) == 4

    def test_capacity_factor_none_keeps_problem_capacities(self):
        p = PlacementProblem.build(
            {"a": 1.0, "b": 1.0}, {0: 7.0, 1: 9.0}, {("a", "b"): 0.5}
        )
        seen = {}

        def spy(subproblem):
            seen["capacities"] = subproblem.capacities.copy()
            return Placement(
                subproblem, np.zeros(subproblem.num_objects, dtype=np.int64)
            )

        scoped_placement(p, None, spy, capacity_factor=None)
        assert seen["capacities"].tolist() == [7.0, 9.0]

    def test_merged_assignment_covers_all_objects(self, problem):
        placement = scoped_placement(problem, 4, greedy_placement)
        assert np.all(placement.assignment >= 0)
        assert np.all(placement.assignment < problem.num_nodes)

    def test_matches_lprr_scoping_semantics(self, problem):
        """scoped_placement and LPRRPlanner hash the same out-of-scope
        objects to the same nodes (they share the ranking and hashing)."""
        from repro.core.lprr import LPRRPlanner

        lprr = LPRRPlanner(scope=4, seed=0).plan(problem)
        scoped = scoped_placement(problem, 4, greedy_placement)
        in_scope = set(lprr.scope_objects)
        for i, obj in enumerate(problem.object_ids):
            if obj not in in_scope:
                assert lprr.placement.assignment[i] == scoped.assignment[i]
