"""Tests for placement-group indirection (repro.pg).

Covers the ISSUE-7 acceptance properties: same-seed determinism
(byte-identical maps), minimal remap on node membership changes,
aggregation/expansion feasibility preservation, the ``PlacementMap``
protocol, and the PG-granular migration/repair composition.
"""

import json

import numpy as np
import pytest

from repro.core.placement import Placement, PlacementMap
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
    repair_lost_groups,
    select_group_migrations,
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
        groups_a = [pg_group(f"o{i}", 16) for i in range(200)]
        groups_b = [pg_group(f"o{i}", 16, salt="s1") for i in range(200)]
        assert groups_a != groups_b

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
# PlacementMap protocol
# ----------------------------------------------------------------------
class TestPlacementMapProtocol:
    def test_placement_and_pg_map_satisfy_protocol(self, problem):
        result = plan(problem, "lprr:pg", PG_CONFIG)
        assert isinstance(result.placement, PlacementMap)
        assert isinstance(result.details, PlacementMap)

    def test_pg_map_round_trip(self, problem):
        pg_map = plan(problem, "lprr:pg", PG_CONFIG).details
        doc = json.loads(json.dumps(pg_map.to_dict()))
        assert doc["schema"] == "repro/pg-map/v1"
        assert doc["num_groups"] == pg_map.num_groups
        assert doc["nodes"] == [str(node) for node in pg_map.node_ids]
        # The document alone answers every lookup as the map does: the
        # synthetic scenario's ids are strings already.
        for obj in problem.object_ids:
            group = pg_group(obj, doc["num_groups"], doc["salt"])
            node = doc["exact"].get(str(obj), doc["group_nodes"][group])
            assert node == pg_map.assign(obj)

    def test_placement_round_trip(self, problem):
        placement = plan(problem, "greedy").placement
        restored = Placement.from_dict(placement.to_dict(), problem)
        assert np.array_equal(restored.assignment, placement.assignment)
        for obj in problem.object_ids[:5]:
            assert placement.locate(obj) == placement.node_of(obj)
            assert placement.assign(obj) == int(
                placement.assignment[problem.object_index(obj)]
            )


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
# Minimal remap on membership changes
# ----------------------------------------------------------------------
class TestMembershipChanges:
    def test_remove_node_remaps_only_its_entries(self, problem):
        pg_map = plan(problem, "lprr:pg", PG_CONFIG).details
        victim_index = int(pg_map.group_nodes[0])
        victim = pg_map.node_ids[victim_index]
        after = pg_map.remove_node(victim)
        for g in range(pg_map.num_groups):
            if int(pg_map.group_nodes[g]) == victim_index:
                assert int(after.group_nodes[g]) != victim_index
            else:
                assert int(after.group_nodes[g]) == int(pg_map.group_nodes[g])
        for obj, k in pg_map.exact_nodes.items():
            if int(k) == victim_index:
                assert after.exact_nodes[obj] != victim_index
            else:
                assert after.exact_nodes[obj] == k
        assert victim_index in after.retired

    def test_add_node_moves_only_groups_it_wins(self, problem):
        pg_map = plan(problem, "lprr:pg", PG_CONFIG).details
        after = pg_map.add_node("nodeX")
        added = after.node_index("nodeX")
        moved = [
            g
            for g in range(pg_map.num_groups)
            if int(after.group_nodes[g]) != int(pg_map.group_nodes[g])
        ]
        # Every moved group moved *onto* the new node, and exactly the
        # groups whose rendezvous draw the new node wins moved.
        for g in moved:
            assert int(after.group_nodes[g]) == added
        for g in range(pg_map.num_groups):
            winner = rendezvous_node(
                f"g{g}", after.live_nodes, after.node_ids, after.salt
            )
            assert (winner == added) == (int(after.group_nodes[g]) == added)
        # Exact objects never move on an add.
        assert after.exact_nodes == pg_map.exact_nodes

    def test_remove_then_add_back_is_stable(self, problem):
        pg_map = plan(problem, "lprr:pg", PG_CONFIG).details
        victim = pg_map.node_ids[int(pg_map.group_nodes[0])]
        back = pg_map.remove_node(victim).add_node(victim)
        assert back.retired == pg_map.retired
        assert back.node_ids == pg_map.node_ids
        # The round trip touches only groups the victim hosted or wins
        # by rendezvous; every other group keeps its planned node.
        victim_index = pg_map.node_index(victim)
        for g in range(pg_map.num_groups):
            winner = rendezvous_node(
                f"g{g}", back.live_nodes, back.node_ids, back.salt
            )
            if (
                int(pg_map.group_nodes[g]) != victim_index
                and winner != victim_index
            ):
                assert int(back.group_nodes[g]) == int(pg_map.group_nodes[g])
        assert back.exact_nodes.keys() == pg_map.exact_nodes.keys()

    def test_remove_errors(self, problem):
        pg_map = plan(problem, "lprr:pg", PG_CONFIG).details
        with pytest.raises(PlacementError):
            pg_map.remove_node("no-such-node")
        victim = pg_map.node_ids[0]
        with pytest.raises(PlacementError):
            pg_map.remove_node(victim).remove_node(victim)


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
        slow = np.array([pg_map.assign(obj) for obj in problem.object_ids])
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

    def test_int_scope_normalizes_to_exact(self, problem):
        assert PlanConfig(scope=5).scope_spec == PlanScope.exact(5)
        assert PlanConfig().scope_spec == PlanScope.exact()
        assert PlanConfig(scope=5).scope_limit(problem) == 5
        assert PlanConfig().scope_limit(problem) is None


# ----------------------------------------------------------------------
# PG-granular migration and repair
# ----------------------------------------------------------------------
class TestMigrationAndRepair:
    def test_zero_budget_moves_nothing(self, problem):
        grouping = build_grouping(problem, 16, important=8)
        current = plan(problem, "lprr:pg", PG_CONFIG).details
        target = plan(
            problem,
            "lprr:pg",
            PlanConfig(scope=PlanScope.pg(groups=16, important=8), seed=9),
        ).details
        new_map, migration = select_group_migrations(
            problem, grouping, current, target, budget_bytes=0.0
        )
        assert migration.num_moves == 0
        for obj in problem.object_ids:
            assert new_map.assign(obj) == current.assign(obj)

    def test_unbounded_budget_moves_toward_target(self, problem):
        grouping = build_grouping(problem, 16, important=8)
        current = plan(problem, "lprr:pg", PG_CONFIG).details
        target = plan(
            problem,
            "lprr:pg",
            PlanConfig(scope=PlanScope.pg(groups=16, important=8), seed=9),
        ).details
        new_map, migration = select_group_migrations(
            problem, grouping, current, target
        )
        # Selection is greedy by nonnegative marginal gain: every
        # object ends at its current or its target node, never a third
        # place, and whole groups move together (PG granularity).
        for obj in problem.object_ids:
            assert new_map.assign(obj) in (
                current.assign(obj),
                target.assign(obj),
            )
        if migration.num_moves:
            assert migration.bytes_moved > 0

    def test_incompatible_maps_rejected(self, problem):
        grouping = build_grouping(problem, 16, important=8)
        current = plan(problem, "lprr:pg", PG_CONFIG).details
        other = plan(
            problem,
            "lprr:pg",
            PlanConfig(scope=PlanScope.pg(groups=8, important=8), seed=3),
        ).details
        with pytest.raises(ValueError):
            select_group_migrations(problem, grouping, current, other)

    def test_repair_moves_only_the_failed_nodes_objects(
        self, problem, scenario
    ):
        _, operations = scenario
        pg_map = plan(problem, "lprr:pg", PG_CONFIG).details
        before = pg_map.expand(problem)
        failed = pg_map.node_ids[int(pg_map.group_nodes[0])]
        outcome = repair_lost_groups(
            problem, pg_map, {failed}, operations=operations
        )
        lost = set(outcome.lost_objects)
        assert lost == {
            obj for obj in problem.object_ids if before.node_of(obj) == failed
        }
        for obj in problem.object_ids:
            if obj in lost:
                assert outcome.placement.node_of(obj) != failed
            else:
                assert outcome.placement.node_of(obj) == before.node_of(obj)
        assert outcome.failed_nodes == (failed,)
        assert 0.0 <= outcome.availability_after <= 1.0
        assert outcome.plan.num_moves == len(lost)

    def test_repair_with_no_failures_is_a_noop(self, problem):
        pg_map = plan(problem, "lprr:pg", PG_CONFIG).details
        outcome = repair_lost_groups(problem, pg_map, set())
        assert outcome.plan.num_moves == 0
        assert outcome.availability_before == 1.0

    def test_repair_of_unknown_node_raises(self, problem):
        pg_map = plan(problem, "lprr:pg", PG_CONFIG).details
        with pytest.raises(PlacementError, match="unknown node"):
            repair_lost_groups(problem, pg_map, {"ghost"})


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
