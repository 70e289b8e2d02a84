"""Tests for capacity repair (repro.core.repair)."""

import numpy as np
import pytest

from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.core.repair import repair_capacity
from repro.exceptions import InfeasibleProblemError


def uniform_problem(sizes, capacity, correlations=None, nodes=2):
    objects = {f"o{i}": s for i, s in enumerate(sizes)}
    return PlacementProblem.build(
        objects, {k: capacity for k in range(nodes)}, correlations or {}
    )


class TestRepairCapacity:
    def test_feasible_placement_returned_unchanged(self):
        p = uniform_problem([1.0, 1.0], capacity=2.0)
        placement = Placement(p, np.array([0, 1]))
        assert repair_capacity(placement) is placement

    def test_overload_resolved(self):
        p = uniform_problem([1.0, 1.0, 1.0], capacity=2.0)
        placement = Placement(p, np.array([0, 0, 0]))  # load 3 > 2
        repaired = repair_capacity(placement)
        assert repaired.is_feasible()

    def test_minimum_cost_object_moves(self):
        # o0-o1 strongly correlated, o2 loose: o2 should be the mover.
        p = uniform_problem(
            [1.0, 1.0, 1.0], capacity=2.0, correlations={("o0", "o1"): 0.9}
        )
        placement = Placement(p, np.array([0, 0, 0]))
        repaired = repair_capacity(placement)
        assert repaired.is_feasible()
        assert repaired.node_of("o0") == repaired.node_of("o1")
        assert repaired.node_of("o2") != repaired.node_of("o0")

    def test_colocation_pull_considered(self):
        # o2's neighbor o3 already lives on node 1: moving o2 there is
        # cheaper than moving anything else.
        p = PlacementProblem.build(
            {"o0": 1.0, "o1": 1.0, "o2": 1.0, "o3": 1.0},
            {0: 2.0, 1: 2.0},
            {("o0", "o1"): 0.5, ("o2", "o3"): 0.5},
        )
        placement = Placement.from_mapping(
            p, {"o0": 0, "o1": 0, "o2": 0, "o3": 1}
        )
        repaired = repair_capacity(placement)
        assert repaired.is_feasible()
        assert repaired.node_of("o2") == 1
        # Repair strictly reduced cost here (split pair got united).
        assert repaired.communication_cost() < placement.communication_cost()

    def test_tolerance_accepts_slight_overrun(self):
        p = uniform_problem([1.0, 1.05], capacity=2.0)
        placement = Placement(p, np.array([0, 0]))  # load 2.05
        repaired = repair_capacity(placement, tolerance=0.05)
        assert repaired is placement

    def test_impossible_total_size_raises(self):
        p = uniform_problem([2.0, 2.0], capacity=1.5)
        placement = Placement(p, np.array([0, 0]))
        with pytest.raises(InfeasibleProblemError):
            repair_capacity(placement)

    def test_multiple_overloaded_nodes(self):
        p = uniform_problem([1.0] * 6, capacity=2.0, nodes=3)
        placement = Placement(p, np.array([0, 0, 0, 1, 1, 1]))
        repaired = repair_capacity(placement)
        assert repaired.is_feasible()
        assert repaired.node_loads().tolist() == [2.0, 2.0, 2.0]

    def test_infinite_capacities_never_overloaded(self):
        p = PlacementProblem.build({"a": 100.0, "b": 100.0}, 2, {})
        placement = Placement(p, np.array([0, 0]))
        assert repair_capacity(placement) is placement

    def test_repair_preserves_object_count(self):
        rng = np.random.default_rng(0)
        sizes = rng.uniform(0.5, 2.0, 12).tolist()
        p = uniform_problem(sizes, capacity=sum(sizes) / 3 * 1.3, nodes=3)
        placement = Placement(p, np.zeros(12, dtype=np.int64))
        repaired = repair_capacity(placement)
        assert repaired.is_feasible()
        assert repaired.node_object_counts().sum() == 12

    def test_tie_moves_lower_object_to_lower_destination(self):
        # o0 and o1 both relieve node 1 at zero cost with equal size,
        # and nodes 0 and 2 both have room: o0 goes to node 0.
        p = uniform_problem([1.0, 1.0], capacity=1.0, nodes=3)
        placement = Placement(p, np.array([1, 1]))
        assert repair_capacity(placement).assignment.tolist() == [0, 1]


class TestRepairValidation:
    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_tolerance_rejected(self, tolerance):
        p = uniform_problem([1.0, 1.0, 1.0], capacity=2.0)
        placement = Placement(p, np.array([0, 0, 0]))
        with pytest.raises(ValueError, match="tolerance must be finite"):
            repair_capacity(placement, tolerance=tolerance)

