"""Tests for the LP relaxation (repro.core.lp)."""

import numpy as np
import pytest

from repro.core.lp import build_placement_lp, solve_placement_lp
from repro.core.problem import PlacementProblem
from repro.exceptions import InfeasibleProblemError


@pytest.fixture
def two_cluster_problem():
    return PlacementProblem.build(
        objects={"a": 2.0, "b": 2.0, "c": 2.0, "d": 2.0},
        nodes={0: 4.0, 1: 4.0},
        correlations={("a", "b"): 0.5, ("c", "d"): 0.5},
    )


class TestProgramShape:
    def test_variable_count(self, two_cluster_problem):
        # x: 4*2 = 8; y: 2 pairs * 2 nodes = 4.
        lp = build_placement_lp(two_cluster_problem)
        assert lp.num_variables == 12

    def test_constraint_count(self, two_cluster_problem):
        # assign: 4; y-definitions: 2 pairs * 2 nodes = 4; capacity: 2.
        lp = build_placement_lp(two_cluster_problem)
        assert lp.num_constraints == 10

    def test_infinite_capacity_skips_rows(self):
        p = PlacementProblem.build({"a": 1.0, "b": 1.0}, 2, {("a", "b"): 0.5})
        lp = build_placement_lp(p)
        # assign: 2; y-defs: 1 pair * 2 nodes = 2; no capacity rows.
        assert lp.num_constraints == 4

    def test_zero_weight_pairs_excluded(self):
        p = PlacementProblem.build(
            {"a": 1.0, "b": 1.0}, 2, {("a", "b"): 0.0}
        )
        lp = build_placement_lp(p)
        assert lp.num_variables == 4  # x only, no y for weightless pair

    def test_size_growth_matches_section_3_1(self):
        """Variables and constraints grow as O(|T| * |N|) for sparse E."""
        def build(t, n):
            objects = {f"o{i}": 1.0 for i in range(t)}
            corr = {(f"o{i}", f"o{i+1}"): 0.1 for i in range(t - 1)}
            return build_placement_lp(PlacementProblem.build(objects, n, corr))

        small, big = build(10, 4), build(20, 4)
        assert big.num_variables < 2.5 * small.num_variables
        assert big.num_constraints < 2.5 * small.num_constraints


class TestRelaxationSolutions:
    def test_separable_clusters_get_integral_optimum(self, two_cluster_problem):
        frac = solve_placement_lp(two_cluster_problem)
        assert frac.lower_bound == pytest.approx(0.0, abs=1e-8)
        assert frac.is_integral(tolerance=1e-4)

    def test_rows_sum_to_one(self, two_cluster_problem):
        frac = solve_placement_lp(two_cluster_problem)
        assert np.allclose(frac.fractions.sum(axis=1), 1.0)

    def test_lower_bound_below_any_integral_cost(self):
        """The LP optimum lower-bounds every feasible integral placement."""
        rng = np.random.default_rng(3)
        objects = {f"o{i}": float(rng.uniform(1, 3)) for i in range(6)}
        corr = {
            (f"o{i}", f"o{j}"): float(rng.uniform(0, 1))
            for i in range(6)
            for j in range(i + 1, 6)
            if rng.random() < 0.6
        }
        p = PlacementProblem.build(objects, {0: 8.0, 1: 8.0, 2: 8.0}, corr)
        frac = solve_placement_lp(p)

        from repro.core.exact import solve_exact

        exact = solve_exact(p)
        assert frac.lower_bound <= exact.cost + 1e-8

    def test_relaxation_is_weak_under_tight_capacity(self):
        """A pair of size-3 objects with capacity-4 nodes must split
        integrally (cost 3), but the relaxation puts both at (1/2, 1/2)
        — zero cost and expected load 3 <= 4.  This is the weakness
        Theorem 3 (expected-capacity only) leaves open and why the
        paper recommends conservative capacities."""
        p = PlacementProblem.build(
            {"a": 3.0, "b": 3.0}, {0: 4.0, 1: 4.0}, {("a", "b"): 1.0}
        )
        frac = solve_placement_lp(p)
        assert frac.lower_bound == pytest.approx(0.0, abs=1e-8)
        assert np.all(frac.expected_node_loads() <= p.capacities + 1e-6)

        from repro.core.exact import solve_exact

        assert solve_exact(p).cost == pytest.approx(3.0)

    def test_expected_node_loads_respect_capacity(self, two_cluster_problem):
        frac = solve_placement_lp(two_cluster_problem)
        loads = frac.expected_node_loads()
        assert np.all(loads <= two_cluster_problem.capacities + 1e-6)

    def test_infeasible_capacity_raises(self):
        p = PlacementProblem.build(
            {"a": 3.0, "b": 3.0}, {0: 2.0, 1: 2.0}, {("a", "b"): 1.0}
        )
        with pytest.raises(InfeasibleProblemError):
            solve_placement_lp(p)

    def test_trivially_infeasible_raises_before_solving(self):
        p = PlacementProblem.build({"a": 10.0}, {0: 1.0}, {})
        with pytest.raises(InfeasibleProblemError, match="total object size"):
            solve_placement_lp(p)

    def test_stats_populated(self, two_cluster_problem):
        frac = solve_placement_lp(two_cluster_problem)
        assert frac.stats.num_variables == 12
        assert frac.stats.num_constraints == 10
        assert frac.stats.solve_seconds >= 0
        assert "vars" in str(frac.stats)

    def test_fractional_symmetric_instance(self):
        """A symmetric triangle on 2 nodes has a fractional-friendly LP;
        the LP bound can be strictly below the best integral cost."""
        p = PlacementProblem.build(
            {"a": 2.0, "b": 2.0, "c": 2.0},
            {0: 4.0, 1: 4.0},
            {("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 1.0},
        )
        frac = solve_placement_lp(p)
        from repro.core.exact import solve_exact

        exact = solve_exact(p)
        # Any integral placement splits at least two pairs (cost 4);
        # the LP may do better fractionally but never worse.
        assert exact.cost == pytest.approx(4.0)
        assert frac.lower_bound <= 4.0 + 1e-9
