"""Tests for the CCA problem model (repro.core.problem)."""

import numpy as np
import pytest

from repro.core.problem import (
    PlacementProblem,
    min_size_pair_cost,
    sum_size_pair_cost,
    unit_pair_cost,
)
from repro.exceptions import ProblemDefinitionError


@pytest.fixture
def small_problem():
    return PlacementProblem.build(
        objects={"a": 4.0, "b": 3.0, "c": 5.0, "d": 2.0},
        nodes={"n0": 8.0, "n1": 8.0},
        correlations={("a", "b"): 0.3, ("c", "d"): 0.25, ("a", "c"): 0.1},
    )


class TestConstruction:
    def test_counts(self, small_problem):
        assert small_problem.num_objects == 4
        assert small_problem.num_nodes == 2
        assert small_problem.num_pairs == 3

    def test_total_size_and_capacity(self, small_problem):
        assert small_problem.total_size == pytest.approx(14.0)
        assert small_problem.total_capacity == pytest.approx(16.0)

    def test_int_nodes_shorthand_is_uncapacitated(self):
        p = PlacementProblem.build({"a": 1.0}, 3, {})
        assert p.num_nodes == 3
        assert np.all(np.isinf(p.capacities))

    def test_default_pair_cost_is_min_size(self, small_problem):
        i = small_problem.object_index("a")
        j = small_problem.object_index("b")
        for pair in small_problem.pairs():
            if (pair.i, pair.j) == (min(i, j), max(i, j)):
                assert pair.cost == pytest.approx(3.0)  # min(4, 3)

    def test_callable_pair_cost(self):
        p = PlacementProblem.build(
            {"a": 2.0, "b": 6.0}, 2, {("a", "b"): 1.0}, pair_cost=sum_size_pair_cost
        )
        assert p.pair_costs[0] == pytest.approx(8.0)

    def test_custom_pair_cost_receives_python_floats(self):
        seen = []

        def product(size_i, size_j):
            seen.append((type(size_i), type(size_j)))
            return size_i * size_j

        p = PlacementProblem.build(
            {"a": 2.0, "b": 3.0, "c": 5.0},
            2,
            {("a", "b"): 1.0, ("c", "b"): 0.5},
            pair_cost=product,
        )
        assert seen == [(float, float)] * 2
        assert p.pair_costs.tolist() == [6.0, 15.0]

    def test_unit_pair_cost(self):
        p = PlacementProblem.build(
            {"a": 2.0, "b": 6.0}, 2, {("a", "b"): 0.5}, pair_cost=unit_pair_cost
        )
        assert p.pair_weights[0] == pytest.approx(0.5)

    def test_explicit_pair_cost_mapping(self):
        p = PlacementProblem.build(
            {"a": 1.0, "b": 1.0},
            2,
            {("a", "b"): 0.5},
            pair_cost={("b", "a"): 7.0},  # mirrored key is canonicalized
        )
        assert p.pair_costs[0] == pytest.approx(7.0)

    def test_mirrored_correlations_are_summed(self):
        p = PlacementProblem.build(
            {"a": 1.0, "b": 1.0}, 2, {("a", "b"): 0.2, ("b", "a"): 0.3}
        )
        assert p.num_pairs == 1
        assert p.correlations[0] == pytest.approx(0.5)

    def test_pair_weights(self, small_problem):
        assert small_problem.total_pair_weight == pytest.approx(
            0.3 * 3.0 + 0.25 * 2.0 + 0.1 * 4.0
        )


class TestValidation:
    def test_unknown_object_in_correlation(self):
        with pytest.raises(ProblemDefinitionError, match="unknown object"):
            PlacementProblem.build({"a": 1.0}, 2, {("a", "zzz"): 0.5})

    def test_self_correlation_rejected(self):
        with pytest.raises(ProblemDefinitionError, match="self-correlation"):
            PlacementProblem.build({"a": 1.0}, 2, {("a", "a"): 0.5})

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ProblemDefinitionError, match="positive"):
            PlacementProblem.build({"a": 0.0}, 2, {})

    def test_negative_capacity_rejected(self):
        with pytest.raises(ProblemDefinitionError, match="capacities"):
            PlacementProblem.build({"a": 1.0}, {"n": -1.0}, {})

    def test_nan_capacity_rejected(self):
        # NaN < 0 is False, and planners report plans on a NaN node as
        # feasible, so the check must name NaN itself.
        with pytest.raises(ProblemDefinitionError, match="not NaN"):
            PlacementProblem.build(
                {"a": 1.0, "b": 1.0}, {"n0": float("nan"), "n1": 5.0}, {("a", "b"): 0.5}
            )
        problem = PlacementProblem.build({"a": 1.0}, {"n": 1.0}, {})
        with pytest.raises(ProblemDefinitionError, match="not NaN"):
            problem.with_capacities(float("nan"))

    def test_infinite_capacity_accepted(self):
        # +inf is the uncapacitated node of the ``nodes=int`` form.
        problem = PlacementProblem.build({"a": 1.0}, {"n0": float("inf"), "n1": 2.0}, {})
        assert problem.capacities.tolist() == [float("inf"), 2.0]
        assert np.isinf(PlacementProblem.build({"a": 1.0}, 2, {}).capacities).all()

    def test_zero_nodes_rejected(self):
        with pytest.raises(ProblemDefinitionError, match="at least one node"):
            PlacementProblem.build({"a": 1.0}, {}, {})

    def test_negative_correlation_rejected(self):
        with pytest.raises(ProblemDefinitionError, match="nonnegative"):
            PlacementProblem.build({"a": 1.0, "b": 1.0}, 2, {("a", "b"): -0.1})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_correlation_rejected(self, value):
        with pytest.raises(ProblemDefinitionError, match="finite"):
            PlacementProblem.build({"a": 1.0, "b": 1.0}, 2, {("a", "b"): value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_pair_cost_rejected(self, value):
        with pytest.raises(ProblemDefinitionError, match="finite"):
            PlacementProblem.build(
                {"a": 1.0, "b": 1.0}, 2, {("a", "b"): 0.5}, pair_cost={("a", "b"): value}
            )

    def test_missing_explicit_pair_cost(self):
        with pytest.raises(ProblemDefinitionError, match="missing explicit pair cost"):
            PlacementProblem.build(
                {"a": 1.0, "b": 1.0}, 2, {("a", "b"): 0.5}, pair_cost={}
            )

    def test_trivially_infeasible_detection(self):
        p = PlacementProblem.build({"a": 5.0, "b": 5.0}, {"n": 6.0}, {})
        assert p.is_trivially_infeasible()

    def test_lookup_errors(self, small_problem):
        with pytest.raises(ProblemDefinitionError, match="unknown object"):
            small_problem.object_index("zzz")
        with pytest.raises(ProblemDefinitionError, match="unknown node"):
            small_problem.node_index("zzz")


class TestSubproblem:
    def test_subproblem_keeps_internal_pairs(self, small_problem):
        sub = small_problem.subproblem(["a", "b"])
        assert sub.num_objects == 2
        assert sub.num_pairs == 1
        assert sub.correlations[0] == pytest.approx(0.3)

    def test_subproblem_drops_cross_pairs(self, small_problem):
        sub = small_problem.subproblem(["a", "d"])
        assert sub.num_pairs == 0  # (a,b), (c,d), (a,c) all cross the cut

    def test_subproblem_recanonicalizes_order(self, small_problem):
        # Reversed subset order flips indices; pairs must stay i < j.
        sub = small_problem.subproblem(["b", "a"])
        assert sub.num_pairs == 1
        i, j = sub.pair_index[0]
        assert i < j

    def test_subproblem_capacity_override(self, small_problem):
        sub = small_problem.subproblem(["a"], capacities=np.array([1.0, 2.0]))
        assert sub.capacities.tolist() == [1.0, 2.0]

    def test_subproblem_duplicate_rejected(self, small_problem):
        with pytest.raises(ProblemDefinitionError, match="duplicates"):
            small_problem.subproblem(["a", "a"])

    def test_with_capacities_scalar(self, small_problem):
        p = small_problem.with_capacities(100.0)
        assert p.capacities.tolist() == [100.0, 100.0]

    def test_subproblem_preserves_sizes(self, small_problem):
        sub = small_problem.subproblem(["c", "d"])
        assert sub.size_of("c") == pytest.approx(5.0)
        assert sub.size_of("d") == pytest.approx(2.0)
