"""Tests for placement-group indirection (repro.pg).

Covers same-seed determinism (byte-identical maps), the map document
that ``repro pg`` writes, aggregation/expansion feasibility
preservation and the planner's registry integration.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.core.strategies import (
    PlanConfig,
    PlanScope,
    available_planners,
    plan,
)
from repro.exceptions import PlacementError
from repro.pg import (
    aggregate_problem,
    build_grouping,
    expand_assignment,
    map_from_coarse,
    pg_group,
    plan_with_groups,
    rendezvous_node,
)
from repro.resilience import plan_with_fallbacks, synthetic_scenario


@pytest.fixture(scope="module")
def scenario():
    return synthetic_scenario(
        num_objects=80, num_nodes=5, num_operations=40, seed=7
    )


@pytest.fixture(scope="module")
def problem(scenario):
    return scenario[0]


PG_CONFIG = PlanConfig(scope=PlanScope.pg(groups=16, important=8), seed=3)


# ----------------------------------------------------------------------
# Hashing primitives
# ----------------------------------------------------------------------
class TestHashing:
    def test_pg_group_stable_and_in_range(self):
        for obj in ("a", "obj042", ("pg", 3), 17):
            g = pg_group(obj, 16)
            assert 0 <= g < 16
            assert pg_group(obj, 16) == g

    def test_pg_group_salt_changes_grouping(self):
        # Groups hash "|pg|" + id, a namespace apart from the bare-id
        # digest that hash_node takes.
        def digest(text):
            return int.from_bytes(hashlib.md5(text.encode()).digest(), "big") % 16

        groups = [pg_group(f"o{i}", 16) for i in range(200)]
        assert groups == [digest(f"|pg|o{i}") for i in range(200)]
        assert groups != [digest(f"o{i}") for i in range(200)]

    def test_pg_group_rejects_empty_universe(self):
        with pytest.raises(ValueError):
            pg_group("a", 0)

    def test_rendezvous_scores_keyed_on_ids_not_indices(self):
        nodes = ("n0", "n1", "n2", "n3")
        full = rendezvous_node("g0", range(4), nodes)
        # Dropping a *losing* candidate never changes the winner.
        reduced = [k for k in range(4) if k != (full + 1) % 4]
        assert rendezvous_node("g0", reduced, nodes) == full

    def test_rendezvous_requires_candidates(self):
        with pytest.raises(PlacementError):
            rendezvous_node("g0", [], ("n0",))


# ----------------------------------------------------------------------
# The map document ``repro pg`` writes
# ----------------------------------------------------------------------
class TestPGMapDocument:
    def test_pg_map_round_trip(self, problem):
        result = plan(problem, "lprr:pg", PG_CONFIG)
        pg_map = result.details
        doc = json.loads(json.dumps(pg_map.to_dict()))
        assert doc["schema"] == "repro/pg-map/v3"
        assert "retired" not in doc and "salt" not in doc
        assert doc["num_groups"] == pg_map.num_groups
        assert doc["nodes"] == [str(node) for node in pg_map.node_ids]
        # The document alone answers every lookup as the expanded plan
        # does: the synthetic scenario's ids are strings already.
        for obj in problem.object_ids:
            group = pg_group(obj, doc["num_groups"])
            node = doc["exact"].get(str(obj), doc["group_nodes"][group])
            assert node == result.placement.assignment[problem.object_index(obj)]


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_seed_byte_identical_maps(self, problem):
        a = plan(problem, "lprr:pg", PG_CONFIG).details
        b = plan(problem, "lprr:pg", PG_CONFIG).details
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_different_seed_may_differ_but_stays_valid(self, problem):
        other = plan(
            problem,
            "lprr:pg",
            PlanConfig(scope=PlanScope.pg(groups=16, important=8), seed=11),
        )
        assert other.placement.assignment.shape == (problem.num_objects,)

    def test_grouping_is_pure_function_of_inputs(self, problem):
        a = build_grouping(problem, 16, important=8)
        b = build_grouping(problem, 16, important=8)
        assert np.array_equal(a.object_groups, b.object_groups)
        assert a.exact_ids == b.exact_ids
        assert a.coarse_ids == b.coarse_ids


# ----------------------------------------------------------------------
# Aggregation / expansion
# ----------------------------------------------------------------------
class TestAggregation:
    def test_expand_preserves_node_loads(self, problem):
        """Coarse feasibility is object-level feasibility.

        Aggregation sums tail sizes into their group, so a coarse
        assignment and its expansion put byte-identical loads on every
        node — the invariant that lets the LP reason about K + M
        objects on behalf of all of them.
        """
        grouping = build_grouping(problem, 16, important=8)
        coarse = aggregate_problem(problem, grouping)
        inner = plan(coarse, "lprr", PlanConfig(seed=3))
        pg_map = map_from_coarse(
            problem, grouping, inner.placement.assignment
        )
        expanded = Placement(problem, expand_assignment(grouping, pg_map))
        assert np.allclose(
            expanded.node_loads(), inner.placement.node_loads()
        )
        assert inner.placement.is_feasible(tolerance=0.05) == (
            expanded.is_feasible(tolerance=0.05)
        )

    def test_aggregate_drops_intra_group_pairs_only(self, problem):
        grouping = build_grouping(problem, 16, important=8)
        coarse = aggregate_problem(problem, grouping)
        kept = coarse.correlations.sum()
        mapped = grouping.coarse_of_object[problem.pair_index]
        inter = mapped[:, 0] != mapped[:, 1]
        expected = float(
            (problem.correlations * problem.pair_costs)[inter].sum()
        )
        assert kept == pytest.approx(expected)

    def test_coarse_problem_is_small(self, problem):
        grouping = build_grouping(problem, 16, important=8)
        coarse = aggregate_problem(problem, grouping)
        assert coarse.num_objects <= 16 + 8
        assert coarse.num_objects == grouping.num_coarse

    def test_expand_matches_per_object_assign(self, problem):
        result = plan(problem, "lprr:pg", PG_CONFIG)
        pg_map = result.details
        grouping = build_grouping(problem, 16, important=8)
        fast = expand_assignment(grouping, pg_map)
        slow = np.array(
            [
                pg_map.exact_nodes[obj]
                if obj in pg_map.exact_nodes
                else pg_map.group_nodes[pg_group(obj, pg_map.num_groups)]
                for obj in problem.object_ids
            ]
        )
        assert np.array_equal(fast, slow)
        assert np.array_equal(result.placement.assignment, fast)


# ----------------------------------------------------------------------
# Planner integration
# ----------------------------------------------------------------------
class TestPlannerIntegration:
    def test_registered(self):
        assert "lprr:pg" in available_planners()

    def test_lprr_delegates_on_pg_scope(self, problem):
        direct = plan(problem, "lprr:pg", PG_CONFIG)
        via_lprr = plan(problem, "lprr", PG_CONFIG)
        assert via_lprr.planner == "lprr:pg"
        assert np.array_equal(
            direct.placement.assignment, via_lprr.placement.assignment
        )

    def test_diagnostics_shape(self, problem):
        result = plan_with_groups(problem, config=PG_CONFIG)
        diag = result.diagnostics
        assert diag["groups"] == 16
        assert 0 < diag["nonempty_groups"] <= 16
        assert diag["important"] == 8
        assert diag["coarse_objects"] == diag["nonempty_groups"] + 8
        assert "cache" not in diag

    def test_resilient_chain_on_pg_scope(self, problem):
        result = plan_with_fallbacks(problem, config=PG_CONFIG)
        assert result.planner == "resilient"
        assert result.diagnostics["delegate"] == "lprr:pg"
        assert result.diagnostics["degraded"] is False
        first = result.diagnostics["fallback_chain"][0]
        assert first["step"].startswith("lprr:pg")

    def test_plan_scope_validation(self):
        with pytest.raises(ValueError):
            PlanScope(kind="bogus")
        with pytest.raises(ValueError):
            PlanScope.pg(groups=0)
        with pytest.raises(ValueError):
            PlanScope(kind="exact", groups=4)
        with pytest.raises(ValueError):
            PlanScope.exact(top=-1)

    def test_int_scope_normalizes_to_exact(self):
        assert PlanConfig(scope=5).scope_spec == PlanScope.exact(5)
        assert PlanConfig().scope_spec == PlanScope.exact()
        assert PlanConfig(scope=5).scope_limit() == 5
        assert PlanConfig().scope_limit() is None


# ----------------------------------------------------------------------
# Raw-constructor scale path (small-scale stand-in for a million objects)
# ----------------------------------------------------------------------
class TestScalePath:
    def test_pg_plan_over_raw_constructor_problem(self):
        rng = np.random.default_rng(0)
        t, n = 5_000, 6
        sizes = rng.integers(1, 20, size=t).astype(float)
        raw = rng.integers(0, t, size=(4_000, 2))
        raw = raw[raw[:, 0] != raw[:, 1]]
        lo = np.minimum(raw[:, 0], raw[:, 1])
        hi = np.maximum(raw[:, 0], raw[:, 1])
        _, keep = np.unique(lo * t + hi, return_index=True)
        pairs = np.stack([lo[keep], hi[keep]], axis=1)
        problem = PlacementProblem(
            [f"o{i:05d}" for i in range(t)],
            sizes,
            list(range(n)),
            np.full(n, 2.5 * sizes.sum() / n),
            pairs,
            rng.uniform(0.01, 1.0, size=pairs.shape[0]),
            np.minimum(sizes[pairs[:, 0]], sizes[pairs[:, 1]]),
        )
        result = plan(
            problem,
            "lprr:pg",
            PlanConfig(scope=PlanScope.pg(groups=64, important=32), seed=0),
        )
        assert result.placement.assignment.shape == (t,)
        assert result.diagnostics["coarse_objects"] <= 64 + 32
        assert result.placement.is_feasible(tolerance=0.05)
