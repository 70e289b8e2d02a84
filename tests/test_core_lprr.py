"""Tests for the end-to-end LPRR planner (repro.core.lprr)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.hashing import hash_node, random_hash_placement
from repro.core.lprr import LPRRPlanner
from repro.core.problem import PlacementProblem


def clustered_problem(num_clusters=4, cluster_size=3, seed=0):
    """Clusters of strongly correlated equal-size objects plus noise pairs."""
    rng = np.random.default_rng(seed)
    objects, correlations = {}, {}
    for c in range(num_clusters):
        members = [f"c{c}_{i}" for i in range(cluster_size)]
        for m in members:
            objects[m] = 1.0
        for i in range(cluster_size):
            for j in range(i + 1, cluster_size):
                correlations[(members[i], members[j])] = 0.5 + 0.1 * rng.random()
    # Weak cross-cluster noise.
    names = list(objects)
    for _ in range(num_clusters):
        a, b = rng.choice(names, 2, replace=False)
        if a != b and (a, b) not in correlations and (b, a) not in correlations:
            correlations[(a, b)] = 0.01
    return PlacementProblem.build(objects, num_clusters, correlations)


class TestFullScope:
    def test_beats_hash_on_clustered_data(self):
        problem = clustered_problem()
        result = LPRRPlanner(seed=0).plan(problem)
        hash_cost = random_hash_placement(problem).communication_cost()
        assert result.cost < hash_cost

    def test_cost_property_matches_placement(self):
        problem = clustered_problem()
        result = LPRRPlanner(seed=0).plan(problem)
        assert result.cost == pytest.approx(result.placement.communication_cost())

    def test_scope_none_covers_all_objects(self):
        problem = clustered_problem()
        result = LPRRPlanner(seed=0).plan(problem)
        assert len(result.scope_objects) == problem.num_objects

    def test_capacity_factor_bounds_load(self):
        problem = clustered_problem(num_clusters=3, cluster_size=4)
        result = LPRRPlanner(seed=1, capacity_factor=2.0, rounding_trials=20).plan(
            problem
        )
        loads = result.placement.node_loads()
        average = problem.total_size / problem.num_nodes
        # Best-of-k with feasibility filtering keeps loads near 2x average.
        assert loads.max() <= 2.0 * average * 1.1

    def test_deterministic_given_seed(self):
        problem = clustered_problem()
        a = LPRRPlanner(seed=3).plan(problem)
        b = LPRRPlanner(seed=3).plan(problem)
        assert np.array_equal(a.placement.assignment, b.placement.assignment)

    def test_lp_bound_below_cost_over_scoped_pairs(self):
        problem = clustered_problem()
        result = LPRRPlanner(seed=0).plan(problem)
        # Full scope: the LP bound is a lower bound for the final cost.
        assert result.lp_lower_bound <= result.cost + 1e-6


class TestPartialScope:
    def test_out_of_scope_objects_are_hash_placed(self):
        problem = clustered_problem(num_clusters=3, cluster_size=3)
        planner = LPRRPlanner(scope=4, seed=0, hash_salt="salted")
        result = planner.plan(problem)
        scoped = set(result.scope_objects)
        for obj in problem.object_ids:
            if obj not in scoped:
                expected = hash_node(obj, problem.num_nodes, "salted")
                assert result.placement.assignment[problem.object_index(obj)] == expected

    def test_scope_limits_lp_size(self):
        problem = clustered_problem(num_clusters=4, cluster_size=4)
        full = LPRRPlanner(seed=0).plan(problem)
        partial = LPRRPlanner(scope=6, seed=0).plan(problem)
        assert partial.lp_stats.num_variables < full.lp_stats.num_variables

    def test_wider_scope_does_not_hurt_much(self):
        """More optimized objects should give (weakly) better cost on
        clustered instances, modulo rounding noise."""
        problem = clustered_problem(num_clusters=4, cluster_size=4, seed=2)
        small = LPRRPlanner(scope=4, seed=0, rounding_trials=20).plan(problem)
        large = LPRRPlanner(scope=16, seed=0, rounding_trials=20).plan(problem)
        assert large.cost <= small.cost + 1e-9

    def test_scope_larger_than_problem_is_clipped(self):
        problem = clustered_problem(num_clusters=2, cluster_size=2)
        result = LPRRPlanner(scope=10_000, seed=0).plan(problem)
        assert len(result.scope_objects) == problem.num_objects

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LPRRPlanner(scope=0)
        with pytest.raises(ValueError):
            LPRRPlanner(capacity_factor=0.0)


class TestCapacityModes:
    def test_explicit_capacities_used_when_factor_none(self):
        problem = PlacementProblem.build(
            {"a": 2.0, "b": 2.0, "c": 2.0, "d": 2.0},
            {0: 4.0, 1: 4.0},
            {("a", "b"): 0.5, ("c", "d"): 0.5},
        )
        result = LPRRPlanner(capacity_factor=None, seed=0).plan(problem)
        assert result.effective_capacities.tolist() == [4.0, 4.0]
        assert result.cost == pytest.approx(0.0)

    def test_factor_capacities_scale_with_scoped_load(self):
        problem = clustered_problem(num_clusters=2, cluster_size=3)
        result = LPRRPlanner(capacity_factor=2.0, seed=0).plan(problem)
        expected = 2.0 * problem.total_size / problem.num_nodes
        assert result.effective_capacities[0] == pytest.approx(expected)

    def test_factor_capacity_at_least_largest_object(self):
        problem = PlacementProblem.build(
            {"huge": 100.0, "tiny": 1.0}, 4, {("huge", "tiny"): 0.5}
        )
        result = LPRRPlanner(capacity_factor=2.0, seed=0).plan(problem)
        assert result.effective_capacities[0] >= 100.0


class TestImportFootprint:
    def test_planning_never_loads_the_lp_solver(self):
        # The closed form replaced the LP solve, so neither the HiGHS
        # modelling layer nor scipy.optimize may load on the planning
        # path.  A fresh interpreter: this suite imports both itself.
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys\n"
            "import repro\n"
            "problem = repro.PlacementProblem.build(\n"
            "    {'a': 1.0, 'b': 1.0, 'c': 2.0}, 2, {('a', 'b'): 0.5}\n"
            ")\n"
            "repro.plan(problem, 'lprr')\n"
            "print([m for m in ('scipy.optimize', 'repro.lpsolve') if m in sys.modules])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert out.stdout.strip() == "[]"
