"""Tests for the resilience subsystem (repro.resilience)."""

import json

import numpy as np
import pytest

from repro import obs
from repro.cluster.cluster import Cluster
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.core.replication import ReplicatedPlacement
from repro.core.strategies import PlanConfig, plan
from repro.exceptions import PlacementError, SolverError
from repro.resilience import (
    ChaosConfig,
    ClusterView,
    FaultEvent,
    FaultSchedule,
    FaultState,
    mode_stats,
    plan_with_fallbacks,
    replace_lost_objects,
    run_chaos,
    synthetic_scenario,
)


@pytest.fixture
def problem():
    return PlacementProblem.build(
        objects={"a": 2.0, "b": 2.0, "c": 2.0, "d": 2.0},
        nodes={"n0": 10.0, "n1": 10.0, "n2": 10.0},
        correlations={("a", "b"): 0.5, ("c", "d"): 0.4},
    )


@pytest.fixture
def placement(problem):
    # a,b on n0; c on n1; d on n2.
    return Placement(problem, np.array([0, 0, 1, 2]))


# ----------------------------------------------------------------------
# Fault schedules
# ----------------------------------------------------------------------
class TestFaultEvents:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(0, "meteor", (1,))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FaultEvent(-1, "crash", (0,))


class TestFaultSchedule:
    def test_random_is_deterministic(self):
        a = FaultSchedule.random(5, 50, seed=7, events=8)
        b = FaultSchedule.random(5, 50, seed=7, events=8)
        assert a.events == b.events
        assert len(a) > 0

    def test_different_seeds_differ(self):
        a = FaultSchedule.random(5, 50, seed=0, events=8)
        b = FaultSchedule.random(5, 50, seed=1, events=8)
        assert a.events != b.events

    def test_unsorted_events_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            FaultSchedule(3, (FaultEvent(5, "crash", (0,)), FaultEvent(1, "recover", (0,))))

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            FaultSchedule(2, (FaultEvent(1, "crash", (7,)),))

    def test_never_crashes_more_than_half(self):
        schedule = FaultSchedule.random(
            4, 200, seed=3, events=40, max_down_fraction=0.5
        )
        down = set()
        for event in schedule.events:
            if event.kind == "crash":
                down.update(event.nodes)
            elif event.kind == "recover":
                down.difference_update(event.nodes)
            assert len(down) <= 2

    def test_epochs_cover_horizon(self):
        schedule = FaultSchedule(
            3, (FaultEvent(4, "crash", (1,)), FaultEvent(8, "recover", (1,)))
        )
        epochs = list(schedule.epochs(12))
        assert [(e.start, e.end) for e in epochs] == [(0, 4), (4, 8), (8, 12)]
        assert epochs[0].view.healthy
        assert epochs[1].view.down == {1}
        assert epochs[2].view.down == frozenset()

    def test_events_past_horizon_ignored(self):
        schedule = FaultSchedule(3, (FaultEvent(20, "crash", (0,)),))
        epochs = list(schedule.epochs(10))
        assert len(epochs) == 1
        assert epochs[0].view.healthy

    def test_fault_state_counts_events(self):
        inst = obs.enable(obs.Instrumentation())
        try:
            state = FaultState(3)
            state.apply(FaultEvent(0, "crash", (1,)))
            state.apply(FaultEvent(1, "slow", (0,)))
        finally:
            obs.disable()
        assert inst.metrics.counter("faults.injected").value == 2
        assert inst.metrics.counter("faults.crash").value == 1
        view = state.view()
        assert view.down == {1} and view.slow == {0}


class TestClusterView:
    def test_groups_without_partition(self):
        view = ClusterView(4, down=frozenset({3}))
        assert view.groups() == (frozenset({0, 1, 2}),)

    def test_groups_with_partition(self):
        view = ClusterView(4, down=frozenset({0}), isolated=frozenset({0, 1}))
        assert set(view.groups()) == {frozenset({2, 3}), frozenset({1})}

    def test_all_down_no_groups(self):
        assert ClusterView(2, down=frozenset({0, 1})).groups() == ()

    @pytest.mark.parametrize("field", ["down", "slow", "isolated"])
    @pytest.mark.parametrize("index", [-1, 4, 7])
    def test_out_of_range_index_rejected(self, field, index):
        with pytest.raises(ValueError, match=f"{field} references unknown node"):
            ClusterView(4, **{field: frozenset({0, index})})


# ----------------------------------------------------------------------
# Degraded-mode analytics
# ----------------------------------------------------------------------
class TestModeStats:
    def test_healthy_view_full_service(self, placement):
        stats = mode_stats(placement, ClusterView(3), [("a", "b"), ("c", "d")])
        assert stats.operation_availability == 1.0
        assert stats.object_availability == 1.0
        assert stats.lost_objects == 0
        assert stats.cost_inflation == 1.0

    def test_crash_loses_objects_and_operations(self, placement):
        view = ClusterView(3, down=frozenset({0}))
        stats = mode_stats(placement, view, [("a", "b"), ("c", "d"), ("a", "c")])
        assert stats.lost_objects == 2  # a and b
        assert stats.servable_operations == 1  # only (c, d)
        assert stats.object_availability == pytest.approx(0.5)
        # The (a, b) pair weight (r * min size = 0.5 * 2) is lost, not inflated.
        assert stats.lost_pair_weight == pytest.approx(1.0)

    def test_partition_blocks_cross_side_operations(self, placement):
        # a,b,c reachable on one side (n0, n1); d alone on n2.
        view = ClusterView(3, isolated=frozenset({2}))
        stats = mode_stats(placement, view, [("a", "b"), ("c", "d")])
        assert stats.lost_objects == 0  # every object is alive somewhere
        assert stats.servable_operations == 1  # only (a, b); (c, d) spans the cut
        assert stats.lost_pair_weight == pytest.approx(0.8)  # (c, d): 0.4 * 2

    def test_replicated_copy_survives(self, problem):
        replicated = ReplicatedPlacement(
            problem, np.array([[0, 1], [0, 2], [1, 2], [2, 0]])
        )
        view = ClusterView(3, down=frozenset({0}))
        stats = mode_stats(replicated, view, [("a", "b"), ("c", "d")])
        assert stats.lost_objects == 0
        assert stats.operation_availability == 1.0

    def test_inflation_when_colocated_copies_die(self, problem):
        # a,b colocated on n0 with spares split; n0 down => pair goes remote.
        replicated = ReplicatedPlacement(
            problem, np.array([[0, 1], [0, 2], [1, 0], [1, 2]])
        )
        healthy = replicated.communication_cost()
        assert healthy == 0.0  # everything colocated somewhere
        stats = mode_stats(
            replicated, ClusterView(3, down=frozenset({0})), [("a", "b")], healthy
        )
        assert stats.degraded_cost == pytest.approx(1.0)  # (a, b): 0.5 * 2
        assert stats.cost_inflation == pytest.approx(1.0)  # over zero healthy

    @pytest.mark.parametrize("num_nodes", [2, 4, 5])
    def test_view_of_another_cluster_rejected(self, placement, num_nodes):
        with pytest.raises(ValueError, match="view has"):
            mode_stats(placement, ClusterView(num_nodes), [("a", "b")])


# ----------------------------------------------------------------------
# Self-healing: the fallback chain
# ----------------------------------------------------------------------
class TestFallbackChain:
    def test_healthy_chain_uses_lprr(self, problem):
        result = plan_with_fallbacks(problem, config=PlanConfig())
        assert result.planner == "resilient"
        assert result.diagnostics["delegate"] == "lprr"
        chain = result.diagnostics["fallback_chain"]
        assert chain[0] == {"step": "lprr", "outcome": "ok", "detail": ""}
        assert all(s["outcome"] == "skipped" for s in chain[1:])
        assert result.diagnostics["degraded"] is False

    def test_registered_as_resilient_planner(self, problem):
        result = plan(problem, "resilient", PlanConfig())
        assert result.planner == "resilient"
        assert [s["step"] for s in result.diagnostics["fallback_chain"]] == [
            "lprr",
            "stream:greedy",
            "greedy",
            "hash",
        ]

    def test_all_lp_failure_degrades_to_greedy(self, problem, monkeypatch):
        from repro.core import lprr as lprr_mod

        class Broken:
            def __init__(self, *a, **k): pass
            def plan(self, problem): raise SolverError("no LP anywhere")

        monkeypatch.setattr(lprr_mod, "LPRRPlanner", Broken)
        result = plan_with_fallbacks(problem, config=PlanConfig())
        assert result.diagnostics["delegate"] == "stream:greedy"
        assert result.diagnostics["degraded"] is True
        chain = {s["step"]: s["outcome"] for s in result.diagnostics["fallback_chain"]}
        assert chain["lprr"] == "failed"
        assert chain["stream:greedy"] == "ok"
        assert chain["greedy"] == "skipped"

    def test_exhausted_chain_names_every_failed_step(self, problem, monkeypatch):
        from repro.exceptions import ReproError
        from repro.resilience import healing

        def broken(problem, name, config):
            raise RuntimeError(f"{name} is down")

        monkeypatch.setattr(healing, "plan", broken)
        inst = obs.enable(obs.Instrumentation(journal=obs.Journal()))
        try:
            with pytest.raises(ReproError) as info:
                plan_with_fallbacks(problem, config=PlanConfig())
        finally:
            obs.disable()
        message = str(info.value)
        for step in ("lprr", "stream:greedy", "greedy", "hash"):
            assert f"{step}: failed (RuntimeError: {step} is down)" in message
        assert inst.metrics.counter("planner.fallback.exhausted").value == 1
        assert inst.metrics.counter("planner.fallbacks").value == 4
        (record,) = inst.journal.records("plan.fallback")
        assert record["delegate"] is None


# ----------------------------------------------------------------------
# Incremental repair
# ----------------------------------------------------------------------
class TestRepair:
    def test_no_failures_is_a_noop(self, placement):
        outcome = replace_lost_objects(placement, [])
        assert outcome.plan.num_moves == 0
        assert outcome.placement is placement

    def test_lost_objects_move_to_survivors(self, placement):
        trace = [("a", "b"), ("c", "d"), ("a", "c")]
        outcome = replace_lost_objects(placement, ["n0"], operations=trace)
        assert set(outcome.lost_objects) == {"a", "b"}
        assert outcome.plan.num_moves == 2
        for move in outcome.plan.migrations:
            assert move.source == "n0"
            assert move.destination in {"n1", "n2"}
        # Nothing remains on the failed node.
        assert all(
            node != "n0" for node in outcome.placement.to_mapping().values()
        )
        assert outcome.availability_before < 1.0
        assert outcome.availability_after == 1.0
        assert outcome.restored > 0

    def test_correlated_pair_reunited(self, problem):
        # a on n0 (fails), b on n1: repair should put a next to b.
        placement = Placement(problem, np.array([0, 1, 2, 2]))
        outcome = replace_lost_objects(placement, ["n0"])
        mapping = outcome.placement.to_mapping()
        assert mapping["a"] == mapping["b"] == "n1"

    def test_capacity_respected_when_possible(self):
        problem = PlacementProblem.build(
            {"x": 4.0, "y": 4.0, "z": 1.0},
            {"n0": 9.0, "n1": 4.5, "n2": 9.0},
            {("x", "y"): 1.0},
        )
        placement = Placement(problem, np.array([0, 1, 2]))
        outcome = replace_lost_objects(placement, ["n0"], capacity_tolerance=0.0)
        # x (4.0) cannot join y on n1 (4.0/4.5 used): goes to n2 instead.
        assert outcome.placement.to_mapping()["x"] == "n2"

    def test_all_nodes_failed_raises(self, placement):
        with pytest.raises(PlacementError, match="every node failed"):
            replace_lost_objects(placement, ["n0", "n1", "n2"])

    def test_unknown_node_rejected(self, placement):
        with pytest.raises(Exception):
            replace_lost_objects(placement, ["ghost"])


# ----------------------------------------------------------------------
# Degraded cluster execution
# ----------------------------------------------------------------------
class TestClusterFailover:
    def test_unserved_operations_flagged(self, placement):
        cluster = Cluster(placement)
        cluster.fail("n0")
        result = cluster.execute_intersection(["a", "c"])
        assert not result.served
        assert result.bytes_transferred == 0
        ok = cluster.execute_intersection(["c", "d"])
        assert ok.served

    def test_recover_restores_service(self, placement):
        cluster = Cluster(placement)
        cluster.fail("n0")
        cluster.recover("n0")
        assert cluster.execute_intersection(["a", "c"]).served
        assert cluster.unreachable_objects() == []

    def test_unreachable_objects_listed(self, placement):
        cluster = Cluster(placement)
        cluster.fail("n0")
        assert cluster.unreachable_objects() == ["a", "b"]

    def test_migrate_onto_failed_node_rejected(self, placement):
        cluster = Cluster(placement)
        cluster.fail("n1")
        with pytest.raises(PlacementError, match="failed node"):
            cluster.migrate("a", "n1")

    def test_migrate_out_of_failed_node_allowed(self, placement):
        cluster = Cluster(placement)
        cluster.fail("n0")
        moved = cluster.migrate("a", "n1")
        assert moved > 0
        assert cluster.is_available("a")

    def test_unknown_node_fail_rejected(self, placement):
        with pytest.raises(PlacementError):
            Cluster(placement).fail("ghost")


# ----------------------------------------------------------------------
# End-to-end chaos
# ----------------------------------------------------------------------
class TestChaos:
    def _scenario(self, seed=5):
        problem, operations = synthetic_scenario(
            num_objects=20, num_nodes=4, num_operations=30, seed=seed
        )
        schedule = FaultSchedule.random(
            problem.num_nodes, len(operations), seed=seed, events=5
        )
        return problem, operations, schedule

    def test_same_seed_byte_identical_report(self):
        problem, operations, schedule = self._scenario()
        config = ChaosConfig(plan_config=PlanConfig(scope=15))
        a = run_chaos(problem, operations, schedule, config, seed=5)
        b = run_chaos(problem, operations, schedule, config, seed=5)
        assert a.to_json() == b.to_json()

    def test_replication_dominates_single_copy(self):
        # Repair off: the single placement stays static, and every
        # replicated copy set is a superset of the single copy, so
        # dominance must hold epoch by epoch.
        problem, operations, schedule = self._scenario()
        report = run_chaos(
            problem, operations, schedule, ChaosConfig(repair=False), seed=5
        )
        assert report.availability_replicated >= report.availability_single
        for epoch in report.epochs:
            assert (
                epoch.replicated.operation_availability
                >= epoch.single.operation_availability
            )

    def test_repair_restores_availability(self):
        problem, operations, schedule = self._scenario()
        report = run_chaos(problem, operations, schedule, seed=5)
        repairs = [e.repair for e in report.epochs if e.repair is not None]
        assert repairs  # the seeded schedule does crash something
        for repair in repairs:
            assert repair["availability_after"] >= repair["availability_before"]
        assert report.repair_moves == sum(r["moves"] for r in repairs)

    def test_no_repair_mode(self):
        problem, operations, schedule = self._scenario()
        report = run_chaos(
            problem, operations, schedule, ChaosConfig(repair=False), seed=5
        )
        assert all(e.repair is None for e in report.epochs)
        assert report.repair_moves == 0

    def test_epochs_tile_the_trace(self):
        problem, operations, schedule = self._scenario()
        report = run_chaos(problem, operations, schedule, seed=5)
        spans = [(e.start, e.end) for e in report.epochs]
        assert spans[0][0] == 0
        assert spans[-1][1] == len(operations)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end == start
        assert sum(e.single.operations for e in report.epochs) == len(operations)

    def test_planning_diagnostics_recorded(self):
        problem, operations, schedule = self._scenario()
        report = run_chaos(problem, operations, schedule, seed=5)
        assert report.planner == "resilient"
        assert report.planning["fallback_chain"][0]["step"] == "lprr"

    def test_schedule_node_mismatch_rejected(self):
        problem, operations, _ = self._scenario()
        schedule = FaultSchedule(problem.num_nodes + 1, ())
        with pytest.raises(ValueError, match="nodes"):
            run_chaos(problem, operations, schedule)

    def test_empty_trace_rejected(self):
        problem, _, _ = self._scenario()
        with pytest.raises(ValueError, match="nonempty"):
            run_chaos(problem, [], FaultSchedule(problem.num_nodes, ()))

    def test_synthetic_scenario_deterministic(self):
        a = synthetic_scenario(seed=9)
        b = synthetic_scenario(seed=9)
        assert a[1] == b[1]
        assert list(a[0].object_ids) == list(b[0].object_ids)
        assert np.array_equal(a[0].sizes, b[0].sizes)


class TestChaosCli:
    def test_cli_reports_are_byte_identical(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "chaos",
            "--objects", "16",
            "--nodes", "4",
            "--operations", "24",
            "--events", "4",
            "--seed", "2",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        out = capsys.readouterr().out
        assert "availability" in out

    def test_cli_seed_changes_report(self, tmp_path):
        from repro.cli import main

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["chaos", "--objects", "16", "--nodes", "4", "--operations", "24"]
        main([*base, "--seed", "1", "--out", str(a)])
        main([*base, "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

class TestDomainFaults:
    def _topology(self):
        from repro.cluster import synthetic_topology

        return synthetic_topology(8, zones=2, racks_per_zone=2)

    def test_crash_domain_takes_whole_domain_down(self):
        from repro.resilience import CRASH_DOMAIN, HEAL_DOMAIN

        topo = self._topology()
        nodes = topo.nodes_of_domain("rack:1")
        state = FaultState(topo.num_nodes)
        state.apply(FaultEvent(1, CRASH_DOMAIN, nodes, domain="rack:1"))
        view = state.view()
        assert view.down == frozenset(nodes)
        assert view.down_domains == frozenset({"rack:1"})
        state.apply(FaultEvent(2, HEAL_DOMAIN, nodes, domain="rack:1"))
        view = state.view()
        assert not view.down
        assert not view.down_domains

    def test_domain_event_requires_domain_label(self):
        from repro.resilience import CRASH_DOMAIN

        with pytest.raises(ValueError, match="domain"):
            FaultEvent(1, CRASH_DOMAIN, (0, 1))

    def test_random_domains_deterministic_and_bounded(self):
        topo = self._topology()
        a = FaultSchedule.random_domains(topo, 60, seed=11, events=8)
        b = FaultSchedule.random_domains(topo, 60, seed=11, events=8)
        assert a.to_dict() == b.to_dict()
        assert any(e.domain for e in a.events)
        max_down = topo.num_nodes // 2
        for epoch in a.epochs(60):
            assert len(epoch.view.down) <= max_down


class TestReReplicate:
    def _zoned(self, seed=3):
        from repro.cluster import synthetic_topology
        from repro.core.replication import spread_replicated_placement

        problem, operations = synthetic_scenario(
            num_objects=20, num_nodes=8, num_operations=30, seed=seed,
            capacity_factor=4.0,
        )
        topo = synthetic_topology(8, zones=2, racks_per_zone=2)
        placement = spread_replicated_placement(problem, topo, replicas=2)
        return problem, operations, topo, placement

    def test_restores_full_replication_after_rack_loss(self):
        from repro.core.replication import spread_violations
        from repro.resilience import re_replicate

        problem, operations, topo, placement = self._zoned()
        down = topo.nodes_of_domain("rack:0")
        view = ClusterView(
            num_nodes=8, down=frozenset(down),
            down_domains=frozenset({"rack:0"}),
        )
        outcome = re_replicate(placement, view, operations=operations)
        assert outcome.moves > 0
        assert outcome.unrepaired_copies == 0
        assert not outcome.lost_objects
        assert not np.isin(outcome.placement.assignment, down).any()
        # The repaired layout still satisfies its spread constraint.
        ids = topo.domain_ids(outcome.placement.spread)
        assert spread_violations(outcome.placement.assignment, ids).size == 0

    def test_availability_never_drops(self):
        from repro.resilience import re_replicate

        problem, operations, topo, placement = self._zoned()
        view = ClusterView(
            num_nodes=8,
            down=frozenset(topo.nodes_of_domain("zone:0")),
            down_domains=frozenset({"zone:0"}),
        )
        outcome = re_replicate(placement, view, operations=operations)
        assert outcome.availability_after >= outcome.availability_before

    def test_noop_when_nothing_down(self):
        from repro.resilience import re_replicate

        _, operations, _, placement = self._zoned()
        outcome = re_replicate(placement, ClusterView(num_nodes=8))
        assert outcome.moves == 0
        assert np.array_equal(outcome.placement.assignment, placement.assignment)


class TestDomainChaos:
    def _scenario(self, seed=3):
        from repro.cluster import synthetic_topology

        problem, operations = synthetic_scenario(
            num_objects=24, num_nodes=8, num_operations=40, seed=seed,
            capacity_factor=4.0,
        )
        topo = synthetic_topology(8, zones=2, racks_per_zone=2)
        schedule = FaultSchedule.random_domains(
            topo, len(operations), seed=seed, events=6
        )
        return problem, operations, topo, schedule

    def test_same_seed_byte_identical_report(self):
        problem, operations, topo, schedule = self._scenario()
        config = ChaosConfig(replicas=2, topology=topo)
        a = run_chaos(problem, operations, schedule, config, seed=3)
        b = run_chaos(problem, operations, schedule, config, seed=3)
        assert a.to_json() == b.to_json()

    def test_report_carries_domain_fields(self):
        problem, operations, topo, schedule = self._scenario()
        report = run_chaos(
            problem, operations, schedule,
            ChaosConfig(replicas=2, topology=topo), seed=3,
        )
        assert report.baseline == "rep:hash"
        assert report.topology == topo.to_dict()
        assert report.spread in ("zone", "rack", "node")
        assert isinstance(report.domain_impact, dict)
        downs = [e for e in report.epochs if e.down_domains]
        assert downs  # the seeded schedule crashes at least one domain
        for label in {d for e in downs for d in e.down_domains}:
            assert label in report.domain_impact

    def test_optimized_no_costlier_than_hash_baseline(self):
        problem, operations, topo, schedule = self._scenario()
        report = run_chaos(
            problem, operations, schedule,
            ChaosConfig(replicas=2, topology=topo), seed=3,
        )
        assert report.healthy_cost_replicated <= report.healthy_cost_single + 1e-9

    def test_data_loss_flag_set_when_all_copies_die(self):
        from repro.cluster import Topology

        # Two nodes, two copies, both nodes down: certain data loss.
        problem, operations = synthetic_scenario(
            num_objects=8, num_nodes=2, num_operations=10, seed=0,
            capacity_factor=4.0,
        )
        topo = Topology.flat(2)
        schedule = FaultSchedule(
            2, (FaultEvent(2, "crash", (0,)), FaultEvent(4, "crash", (1,)))
        )
        report = run_chaos(
            problem, operations, schedule,
            ChaosConfig(replicas=2, topology=topo, repair=False), seed=0,
        )
        assert report.data_loss
        assert "DATA LOSS" in report.render()


class TestDomainChaosCli:
    ARGS = [
        "chaos",
        "--replicas", "2",
        "--topology", "zones:2,racks:2",
        "--objects", "24",
        "--nodes", "8",
        "--operations", "40",
        "--events", "6",
    ]

    def test_cli_domain_reports_are_byte_identical(self, tmp_path, capsys):
        from repro.cli import main

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*self.ARGS, "--seed", "3", "--out", str(a)]) == 0
        assert main([*self.ARGS, "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["baseline"] == "rep:hash"
        assert doc["topology"]["zones"]
        out = capsys.readouterr().out
        assert "availability" in out

    def test_cli_exits_nonzero_on_data_loss(self, tmp_path, capsys):
        from repro.cli import main

        # Sweep seeds until the schedule produces total loss of some
        # object; the exit code must flip to 1 in exactly those runs.
        saw_loss = False
        for seed in range(12):
            out = tmp_path / f"r{seed}.json"
            code = main([*self.ARGS, "--seed", str(seed), "--out", str(out)])
            doc = json.loads(out.read_text())
            assert code == (1 if doc["data_loss"] else 0)
            saw_loss = saw_loss or doc["data_loss"]
            capsys.readouterr()
        assert saw_loss  # the sweep exercises the failure path


class TestPGDegradedParity:
    def test_pg_placement_serves_like_exact_under_crash(self):
        # Satellite: a crashed node under a PGMap-derived placement must
        # show the same unserved accounting as the identical exact
        # placement — degraded serving sees assignments, not how they
        # were produced.
        from repro.core.strategies import PlanScope

        problem, operations = synthetic_scenario(
            num_objects=40, num_nodes=5, num_operations=40, seed=2
        )
        config = PlanConfig(scope=PlanScope.pg(groups=8, important=8), seed=2)
        result = plan(problem, "lprr:pg", config)
        pg_placement = result.placement
        exact_clone = Placement(problem, pg_placement.assignment.copy())

        view = ClusterView(num_nodes=5, down=frozenset({int(pg_placement.assignment[0])}))
        via_pg = mode_stats(pg_placement, view, operations)
        via_exact = mode_stats(exact_clone, view, operations)
        assert via_pg == via_exact
        assert via_pg.lost_objects > 0  # the crash actually bites

    def test_pg_scope_chaos_run_accounts_unserved(self):
        from repro.core.strategies import PlanScope

        problem, operations = synthetic_scenario(
            num_objects=40, num_nodes=5, num_operations=40, seed=2
        )
        schedule = FaultSchedule.random(5, len(operations), seed=2, events=5)
        config = ChaosConfig(
            plan_config=PlanConfig(
                scope=PlanScope.pg(groups=8, important=8), seed=2
            )
        )
        report = run_chaos(problem, operations, schedule, config, seed=2)
        assert report.planning["fallback_chain"][0]["step"] == "lprr:pg"
        assert 0.0 <= report.availability_single <= 1.0
        total_unserved = sum(
            e.single.operations - e.single.servable_operations
            for e in report.epochs
        )
        downs = [e for e in report.epochs if e.down]
        if downs:
            assert total_unserved >= 0
