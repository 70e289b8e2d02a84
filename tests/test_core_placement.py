"""Tests for placements and cost evaluation (repro.core.placement)."""

import numpy as np
import pytest

from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.exceptions import PlacementError


@pytest.fixture
def problem():
    return PlacementProblem.build(
        objects={"a": 4.0, "b": 3.0, "c": 5.0, "d": 2.0},
        nodes={"n0": 8.0, "n1": 8.0},
        correlations={("a", "b"): 0.3, ("c", "d"): 0.25, ("a", "c"): 0.1},
    )


class TestConstruction:
    def test_from_mapping_round_trip(self, problem):
        mapping = {"a": "n0", "b": "n0", "c": "n1", "d": "n1"}
        placement = Placement.from_mapping(problem, mapping)
        assert placement.to_mapping() == mapping

    def test_incomplete_mapping_rejected(self, problem):
        with pytest.raises(PlacementError, match="covers 2 of 4"):
            Placement.from_mapping(problem, {"a": "n0", "b": "n0"})

    def test_wrong_shape_rejected(self, problem):
        with pytest.raises(PlacementError, match="shape"):
            Placement(problem, np.zeros(3, dtype=np.int64))

    def test_out_of_range_rejected(self, problem):
        with pytest.raises(PlacementError, match="out-of-range"):
            Placement(problem, np.array([0, 0, 0, 5]))


class TestCost:
    def test_all_colocated_costs_nothing(self, problem):
        big = problem.with_capacities(100.0)
        placement = Placement(big, np.zeros(4, dtype=np.int64))
        assert placement.communication_cost() == 0.0
        assert placement.colocated_weight() == pytest.approx(big.total_pair_weight)

    def test_pairwise_split_cost(self, problem):
        # a,b on n0; c,d on n1 -> only (a,c) split: 0.1 * min(4,5) = 0.4.
        placement = Placement.from_mapping(
            problem, {"a": "n0", "b": "n0", "c": "n1", "d": "n1"}
        )
        assert placement.communication_cost() == pytest.approx(0.4)

    def test_worst_case_cost(self, problem):
        # a alone vs everything else split by hand: split all three pairs.
        placement = Placement.from_mapping(
            problem, {"a": "n0", "b": "n1", "c": "n1", "d": "n0"}
        )
        assert placement.communication_cost() == pytest.approx(
            0.3 * 3 + 0.25 * 2 + 0.1 * 4
        )

    def test_no_pairs_means_zero_cost(self):
        p = PlacementProblem.build({"a": 1.0, "b": 1.0}, 2, {})
        placement = Placement(p, np.array([0, 1]))
        assert placement.communication_cost() == 0.0


class TestCapacity:
    def test_loads(self, problem):
        placement = Placement.from_mapping(
            problem, {"a": "n0", "b": "n0", "c": "n1", "d": "n1"}
        )
        assert placement.node_loads().tolist() == [7.0, 7.0]
        assert placement.node_object_counts().tolist() == [2, 2]

    def test_feasible_placement(self, problem):
        placement = Placement.from_mapping(
            problem, {"a": "n0", "b": "n0", "c": "n1", "d": "n1"}
        )
        assert placement.is_feasible()
        assert placement.capacity_violations() == {}

    def test_violation_reported_with_excess(self, problem):
        placement = Placement.from_mapping(
            problem, {"a": "n0", "b": "n0", "c": "n0", "d": "n1"}
        )  # n0 load 12 > 8
        violations = placement.capacity_violations()
        assert violations == {"n0": pytest.approx(4.0)}
        assert not placement.is_feasible()

    def test_tolerance_softens_violation(self, problem):
        placement = Placement.from_mapping(
            problem, {"a": "n0", "b": "n0", "c": "n0", "d": "n1"}
        )
        assert placement.is_feasible(tolerance=0.5)  # 8 * 1.5 = 12 >= 12

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_tolerance_rejected(self, problem, tolerance):
        # Loads compared against a NaN limit would pass every node.
        placement = Placement.from_mapping(
            problem, {"a": "n0", "b": "n0", "c": "n0", "d": "n1"}
        )
        with pytest.raises(ValueError, match="tolerance must be finite"):
            placement.capacity_violations(tolerance)
        with pytest.raises(ValueError, match="tolerance must be finite"):
            placement.is_feasible(tolerance)

    def test_load_imbalance(self, problem):
        placement = Placement.from_mapping(
            problem, {"a": "n0", "b": "n0", "c": "n0", "d": "n1"}
        )
        assert placement.load_imbalance() == pytest.approx(12.0 / 7.0)


class TestViews:
    def test_node_of_and_objects_on(self, problem):
        placement = Placement.from_mapping(
            problem, {"a": "n0", "b": "n0", "c": "n1", "d": "n1"}
        )
        assert placement.node_of("c") == "n1"
        assert sorted(placement.objects_on("n0")) == ["a", "b"]

    def test_equality(self, problem):
        p1 = Placement(problem, np.array([0, 0, 1, 1]))
        p2 = Placement(problem, np.array([0, 0, 1, 1]))
        p3 = Placement(problem, np.array([0, 1, 1, 1]))
        assert p1 == p2
        assert p1 != p3

    def test_repr_contains_cost(self, problem):
        placement = Placement(problem, np.array([0, 0, 1, 1]))
        assert "cost=" in repr(placement)
