"""Tests for Section 3.3 extra resource constraints (repro.core.resources)."""

import numpy as np
import pytest

from repro.core.exact import solve_exact
from repro.core.greedy import greedy_placement
from repro.core.lp import build_placement_lp, solve_placement_lp
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.core.repair import repair_capacity
from repro.core.resources import ResourceSpec
from repro.core.strategies import PlanConfig, plan
from repro.exceptions import InfeasibleProblemError, ProblemDefinitionError


def make_problem(bandwidth_budget=10.0):
    """Two correlated pairs; the 'hot' pair saturates bandwidth together."""
    return PlacementProblem.build(
        objects={"hot1": 1.0, "hot2": 1.0, "cold1": 1.0, "cold2": 1.0},
        nodes={0: 4.0, 1: 4.0},
        correlations={("hot1", "hot2"): 0.9, ("cold1", "cold2"): 0.5},
        resources={
            "bandwidth": (
                {"hot1": 8.0, "hot2": 8.0, "cold1": 1.0, "cold2": 1.0},
                bandwidth_budget,
            )
        },
    )


class TestResourceSpec:
    def test_from_mappings_scalar_budget(self):
        spec = ResourceSpec.from_mappings(
            "cpu", {"a": 2.0}, 5.0, ["a", "b"], [0, 1, 2]
        )
        assert spec.loads.tolist() == [2.0, 0.0]
        assert spec.budgets.tolist() == [5.0, 5.0, 5.0]

    def test_from_mappings_per_node_budget(self):
        spec = ResourceSpec.from_mappings(
            "cpu", {}, {0: 1.0, 1: 2.0}, ["a"], [0, 1]
        )
        assert spec.budgets.tolist() == [1.0, 2.0]

    def test_missing_node_budget_rejected(self):
        with pytest.raises(ProblemDefinitionError, match="missing budget"):
            ResourceSpec.from_mappings("cpu", {}, {0: 1.0}, ["a"], [0, 1])

    def test_negative_load_rejected(self):
        with pytest.raises(ProblemDefinitionError, match="nonnegative"):
            ResourceSpec("cpu", np.array([-1.0]), np.array([1.0]))

    def test_nan_budget_rejected(self):
        with pytest.raises(ProblemDefinitionError, match="not NaN"):
            ResourceSpec("cpu", np.array([1.0]), np.array([1.0, float("nan")]))
        with pytest.raises(ProblemDefinitionError, match="not NaN"):
            ResourceSpec.from_mappings("cpu", {"a": 1.0}, float("nan"), ["a"], [0, 1])

    def test_infinite_budget_accepted(self):
        spec = ResourceSpec("cpu", np.array([1.0]), np.array([np.inf, 2.0]))
        assert spec.budgets.tolist() == [float("inf"), 2.0]
        assert not spec.is_trivially_infeasible()

    def test_empty_name_rejected(self):
        with pytest.raises(ProblemDefinitionError, match="non-empty"):
            ResourceSpec("", np.array([1.0]), np.array([1.0]))

    def test_trivially_infeasible(self):
        spec = ResourceSpec("cpu", np.array([5.0, 5.0]), np.array([4.0, 4.0]))
        assert spec.is_trivially_infeasible()

    def test_subset(self):
        spec = ResourceSpec("cpu", np.array([1.0, 2.0, 3.0]), np.array([9.0]))
        sub = spec.subset(np.array([2, 0]))
        assert sub.loads.tolist() == [3.0, 1.0]
        assert sub.budgets.tolist() == [9.0]


class TestProblemIntegration:
    def test_build_with_resources(self):
        p = make_problem()
        assert len(p.resources) == 1
        assert p.resource("bandwidth").total_load == pytest.approx(18.0)

    def test_unknown_resource_lookup(self):
        with pytest.raises(ProblemDefinitionError, match="unknown resource"):
            make_problem().resource("gpu")

    def test_unknown_object_in_resource(self):
        with pytest.raises(ProblemDefinitionError, match="unknown object"):
            PlacementProblem.build(
                {"a": 1.0}, 2, {}, resources={"cpu": ({"zzz": 1.0}, 5.0)}
            )

    def test_duplicate_resource_rejected(self):
        spec = ResourceSpec("cpu", np.array([1.0]), np.array([5.0, 5.0]))
        with pytest.raises(ProblemDefinitionError, match="duplicate resource"):
            PlacementProblem(
                ["a"],
                np.array([1.0]),
                [0, 1],
                np.array([5.0, 5.0]),
                np.empty((0, 2)),
                np.empty(0),
                np.empty(0),
                resources=[spec, spec],
            )

    def test_trivially_infeasible_via_resource(self):
        p = PlacementProblem.build(
            {"a": 1.0}, {0: 10.0}, {}, resources={"cpu": ({"a": 5.0}, 4.0)}
        )
        assert p.is_trivially_infeasible()

    def test_subproblem_carries_resources(self):
        p = make_problem()
        sub = p.subproblem(["hot1", "cold1"])
        assert sub.resource("bandwidth").loads.tolist() == [8.0, 1.0]

    def test_with_capacities_carries_resources(self):
        p = make_problem().with_capacities(100.0)
        assert len(p.resources) == 1


class TestPlacementEvaluation:
    def test_resource_loads(self):
        p = make_problem()
        placement = Placement.from_mapping(
            p, {"hot1": 0, "hot2": 0, "cold1": 1, "cold2": 1}
        )
        assert placement.resource_loads("bandwidth").tolist() == [16.0, 2.0]

    def test_resource_violation_detected(self):
        p = make_problem(bandwidth_budget=10.0)
        together = Placement.from_mapping(
            p, {"hot1": 0, "hot2": 0, "cold1": 1, "cold2": 1}
        )
        violations = together.resource_violations()
        assert violations["bandwidth"][0] == pytest.approx(6.0)
        assert not together.is_feasible()
        assert together.is_feasible(include_resources=False)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, tolerance):
        p = make_problem(bandwidth_budget=10.0)
        together = Placement.from_mapping(
            p, {"hot1": 0, "hot2": 0, "cold1": 1, "cold2": 1}
        )
        with pytest.raises(ValueError, match="tolerance must be finite"):
            together.resource_violations(tolerance)

    def test_feasible_when_hot_pair_split(self):
        p = make_problem()
        split = Placement.from_mapping(
            p, {"hot1": 0, "hot2": 1, "cold1": 1, "cold2": 0}
        )
        assert split.is_feasible()


class TestSolversHonorResources:
    def test_lp_adds_resource_rows(self):
        p = make_problem()
        base = build_placement_lp(
            PlacementProblem.build(
                {o: 1.0 for o in p.object_ids},
                {0: 4.0, 1: 4.0},
                {("hot1", "hot2"): 0.9, ("cold1", "cold2"): 0.5},
            )
        )
        with_res = build_placement_lp(p)
        assert with_res.num_constraints == base.num_constraints + 2

    def test_lp_optimum_pays_for_bandwidth_split(self):
        # Without the bandwidth budget the optimum is 0 (co-locate both
        # pairs); with it, the hot pair must split fractionally or fully.
        p = make_problem(bandwidth_budget=10.0)
        frac = solve_placement_lp(p)
        loads = frac.fractions.T @ p.resource("bandwidth").loads
        assert np.all(loads <= 10.0 + 1e-6)

    def test_exact_respects_resource_budget(self):
        p = make_problem(bandwidth_budget=10.0)
        solution = solve_exact(p)
        assert solution.placement.is_feasible()
        # Splitting the hot pair costs 0.9 * min(1,1); cold pair co-locates.
        assert solution.cost == pytest.approx(0.9)

    def test_exact_without_budget_colocates(self):
        p = make_problem(bandwidth_budget=100.0)
        assert solve_exact(p).cost == pytest.approx(0.0)

    def test_greedy_respects_resource_budget(self):
        p = make_problem(bandwidth_budget=10.0)
        placement = greedy_placement(p)
        assert placement.resource_violations() == {}

    def test_repair_avoids_resource_violating_destinations(self):
        p = PlacementProblem.build(
            {"a": 3.0, "b": 3.0, "c": 1.0},
            {0: 4.0, 1: 4.0, 2: 4.0},
            {},
            resources={"cpu": ({"a": 5.0, "b": 1.0, "c": 5.0}, 6.0)},
        )
        # Node 0 overloaded by size; moving 'a' to node 2 would break
        # cpu (5+5 > 6), so 'a' must go to node 1.
        placement = Placement.from_mapping(p, {"a": 0, "b": 0, "c": 2})
        repaired = repair_capacity(placement)
        assert repaired.is_feasible()
        assert repaired.node_of("a") == 1

    def test_repair_relieves_budget_overrun_when_bytes_fit(self):
        # Bytes fit everywhere, but node 0 serves cpu 3 against a
        # budget of 2.  Moving c next to its partner d relieves it at
        # no cost; moving a or b would split their pair.
        p = PlacementProblem.build(
            {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0},
            {0: 10.0, 1: 10.0},
            {("a", "b"): 0.5, ("c", "d"): 0.5},
            resources={"cpu": (dict.fromkeys("abcd", 1.0), 2.0)},
        )
        placement = Placement(p, np.array([0, 0, 0, 1]))
        assert placement.resource_loads("cpu").tolist() == [3.0, 1.0]
        repaired = repair_capacity(placement)
        assert repaired.resource_loads("cpu").tolist() == [2.0, 2.0]
        assert repaired.is_feasible()
        assert repaired.node_of("c") == 1
        assert repaired.communication_cost() == 0.0

    def test_repair_raises_when_no_member_can_leave_an_overrun_budget(self):
        p = PlacementProblem.build(
            {"a": 1.0, "b": 1.0},
            {0: 10.0, 1: 10.0},
            {},
            resources={"cpu": ({"a": 2.0, "b": 2.0}, {0: 3.0, 1: 1.0})},
        )
        with pytest.raises(InfeasibleProblemError, match="'cpu' budget"):
            repair_capacity(Placement(p, np.array([0, 0])))

    def test_lprr_takes_greedy_where_repair_cannot_swap(self):
        # Each node holds two objects.  Repair of the rounded draw leaves
        # x and y together (cpu 4 over 3.15) and cannot part them: any
        # single move overflows the other node.  Greedy pairs x with z
        # and y with w, which meets every budget.
        cpu = {"x": 2.0, "y": 2.0, "z": 1.0, "w": 1.0}
        pairs = {("x", "y"): 1.0, ("x", "z"): 0.4, ("y", "w"): 0.4, ("z", "w"): 0.3}
        p = PlacementProblem.build(
            dict.fromkeys(cpu, 1.0), {0: 2.0, 1: 2.0}, pairs, resources={"cpu": (cpu, 3.0)}
        )
        with pytest.raises(InfeasibleProblemError, match="'cpu' budget"):
            repair_capacity(Placement(p, np.array([0, 0, 1, 1])), tolerance=0.05)
        result = plan(p, "lprr", PlanConfig(capacity_factor=None))
        assert result.diagnostics["repaired"]
        assert result.placement.is_feasible()
        assert result.placement.resource_loads("cpu").tolist() == [3.0, 3.0]
        # Without the cross pairs greedy also puts x with y, and the
        # repair error stands.
        unbridged = PlacementProblem.build(
            dict.fromkeys(cpu, 1.0),
            {0: 2.0, 1: 2.0},
            {("x", "y"): 1.0, ("z", "w"): 0.3},
            resources={"cpu": (cpu, 3.0)},
        )
        with pytest.raises(InfeasibleProblemError, match="'cpu' budget"):
            plan(unbridged, "lprr", PlanConfig(capacity_factor=None))

    def test_infeasible_resource_budget_raises_in_lp(self):
        p = PlacementProblem.build(
            {"a": 1.0}, {0: 10.0}, {}, resources={"cpu": ({"a": 9.0}, 4.0)}
        )
        with pytest.raises(InfeasibleProblemError):
            solve_placement_lp(p)
