"""Tests for the exact MILP solver (repro.core.exact)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.exact import solve_exact
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.exceptions import InfeasibleProblemError


def brute_force_optimum(problem):
    """Reference: enumerate every assignment (tiny instances only)."""
    best = np.inf
    t, n = problem.num_objects, problem.num_nodes
    for assignment in itertools.product(range(n), repeat=t):
        placement = Placement(problem, np.asarray(assignment))
        if placement.is_feasible():
            best = min(best, placement.communication_cost())
    return best


class TestExactSolver:
    def test_trivial_single_node(self):
        p = PlacementProblem.build({"a": 1.0, "b": 1.0}, 1, {("a", "b"): 1.0})
        solution = solve_exact(p)
        assert solution.cost == 0.0

    def test_forced_split(self):
        p = PlacementProblem.build(
            {"a": 3.0, "b": 3.0}, {0: 4.0, 1: 4.0}, {("a", "b"): 1.0}
        )
        assert solve_exact(p).cost == pytest.approx(3.0)

    def test_clusters_colocate(self):
        p = PlacementProblem.build(
            {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0},
            {0: 2.0, 1: 2.0},
            {("a", "b"): 0.9, ("c", "d"): 0.8, ("a", "c"): 0.1},
        )
        solution = solve_exact(p)
        assert solution.cost == pytest.approx(0.1 * 1.0)
        assert solution.placement.is_feasible()

    def test_infeasible_raises(self):
        p = PlacementProblem.build(
            {"a": 3.0, "b": 3.0, "c": 3.0}, {0: 3.0, 1: 3.0}, {}
        )
        with pytest.raises(InfeasibleProblemError):
            solve_exact(p)

    def test_size_guard(self):
        p = PlacementProblem.build({f"o{i}": 1.0 for i in range(65)}, 2, {})
        with pytest.raises(ValueError, match="limited to 64"):
            solve_exact(p)
        # But an explicit override is honoured.
        solution = solve_exact(p, max_objects=65)
        assert solution.cost == 0.0

    def test_matches_brute_force_on_fixed_instance(self):
        p = PlacementProblem.build(
            {"a": 2.0, "b": 1.0, "c": 2.0, "d": 1.0, "e": 1.0},
            {0: 4.0, 1: 4.0},
            {
                ("a", "b"): 0.7,
                ("b", "c"): 0.6,
                ("c", "d"): 0.5,
                ("d", "e"): 0.4,
                ("a", "e"): 0.3,
            },
        )
        assert solve_exact(p).cost == pytest.approx(brute_force_optimum(p))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_property_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(2, 6))
        n = int(rng.integers(2, 4))
        objects = {f"o{i}": float(rng.uniform(1, 3)) for i in range(t)}
        capacity = max(objects.values()) * t / n + 1.0
        corr = {}
        for i in range(t):
            for j in range(i + 1, t):
                if rng.random() < 0.7:
                    corr[(f"o{i}", f"o{j}")] = float(rng.uniform(0, 1))
        p = PlacementProblem.build(objects, {k: capacity for k in range(n)}, corr)
        reference = brute_force_optimum(p)
        if reference == np.inf:
            with pytest.raises(InfeasibleProblemError):
                solve_exact(p)
        else:
            assert solve_exact(p).cost == pytest.approx(reference, abs=1e-9)

    def test_heterogeneous_capacities(self):
        # Big node can hold the heavy pair; small node takes the crumb.
        p = PlacementProblem.build(
            {"x": 4.0, "y": 4.0, "z": 1.0},
            {0: 8.0, 1: 1.0},
            {("x", "y"): 1.0},
        )
        solution = solve_exact(p)
        assert solution.cost == 0.0
        assert solution.placement.node_of("x") == solution.placement.node_of("y") == 0

    def test_capacity_overrun_within_solver_tolerance_is_split(self):
        # 1 + (1 + 5e-8) overruns a capacity of 2 by less than HiGHS's
        # feasibility tolerance but more than is_feasible() allows.
        p = PlacementProblem.build(
            {"a": 1.0, "b": 1.0 + 5e-8}, {0: 2.0, 1: 2.0}, {("a", "b"): 1.0}
        )
        solution = solve_exact(p)
        assert solution.cost == 1.0
        assert solution.placement.is_feasible()

    def test_solve_span_counts_cover_cut_rounds(self):
        fits = PlacementProblem.build(
            {"a": 1.0, "b": 1.0}, {0: 2.0, 1: 2.0}, {("a", "b"): 1.0}
        )
        overruns = PlacementProblem.build(
            {"a": 1.0, "b": 1.0 + 5e-8}, {0: 2.0, 1: 2.0}, {("a", "b"): 1.0}
        )
        inst = obs.enable(obs.Instrumentation())
        try:
            solve_exact(fits)
            solve_exact(overruns)
        finally:
            obs.disable()
        fits_span, overruns_span = inst.tracer.find("exact.solve")
        assert fits_span.attributes == {"objects": 2, "nodes": 2, "solves": 1}
        # Each overrunning answer costs a cover-cut round and a solve.
        assert overruns_span.attributes["solves"] > 1

    def test_budget_overrun_within_solver_tolerance_is_split(self):
        p = PlacementProblem.build(
            {"a": 1.0, "b": 1.0},
            {0: 4.0, 1: 4.0},
            {("a", "b"): 1.0},
            resources={"bandwidth": ({"a": 1.0, "b": 1.0 + 5e-8}, 2.0)},
        )
        solution = solve_exact(p)
        assert solution.cost == 1.0
        assert solution.placement.is_feasible()
