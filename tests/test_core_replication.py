"""Tests for replicated placement (repro.core.replication)."""

import numpy as np
import pytest

from repro.cluster import synthetic_topology
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.core.replication import (
    ReplicatedPlacement,
    greedy_replicated_placement,
    replicate_hash,
    spread_replicated_placement,
    spread_violations,
)
from repro.exceptions import PlacementError, ReplicationError

from tests.helpers import flat_hash


def _spread_violations_loop(
    assignment: np.ndarray, domain_ids: np.ndarray
) -> np.ndarray:
    """Reference per-row loop for :func:`spread_violations`."""
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.ndim != 2 or assignment.shape[1] < 2:
        return np.empty(0, dtype=np.int64)
    bad: list[int] = []
    for i in range(assignment.shape[0]):
        seen: set[int] = set()
        for node in assignment[i]:
            domain = int(domain_ids[int(node)])
            if domain in seen:
                bad.append(i)
                break
            seen.add(domain)
    return np.asarray(bad, dtype=np.int64)


@pytest.fixture
def problem():
    return PlacementProblem.build(
        objects={"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0},
        nodes={0: 10.0, 1: 10.0, 2: 10.0},
        correlations={("a", "b"): 0.8, ("c", "d"): 0.6, ("a", "c"): 0.1},
    )


class TestReplicatedPlacement:
    def test_any_copy_pair_is_local(self, problem):
        # a: {0,1}, b: {1,2} share node 1 -> (a,b) local.
        assignment = np.array([[0, 1], [1, 2], [0, 2], [1, 2]])
        placement = ReplicatedPlacement(problem, assignment)
        # (a,b) share 1; (c,d) share 2; (a,c) share 0 -> cost 0.
        assert placement.communication_cost() == pytest.approx(0.0)

    def test_fully_disjoint_copies_pay(self, problem):
        assignment = np.array([[0, 1], [2, 0], [1, 2], [0, 1]])
        placement = ReplicatedPlacement(problem, assignment)
        # a:{0,1}, b:{2,0} share 0 -> local; c:{1,2}, d:{0,1} share 1 ->
        # local; a:{0,1}, c:{1,2} share 1 -> local.
        assert placement.communication_cost() == pytest.approx(0.0)

    def test_cost_counts_uncovered_pairs(self):
        p = PlacementProblem.build(
            {"a": 1.0, "b": 1.0}, 4, {("a", "b"): 0.5}
        )
        placement = ReplicatedPlacement(p, np.array([[0, 1], [2, 3]]))
        assert placement.communication_cost() == pytest.approx(0.5)

    def test_duplicate_replica_nodes_rejected(self, problem):
        with pytest.raises(PlacementError, match="sharing a node"):
            ReplicatedPlacement(problem, np.array([[0, 0], [1, 2], [0, 1], [1, 2]]))

    def test_node_loads_count_every_copy(self, problem):
        assignment = np.array([[0, 1], [0, 1], [0, 1], [0, 1]])
        placement = ReplicatedPlacement(problem, assignment)
        assert placement.node_loads().tolist() == [4.0, 4.0, 0.0]

    def test_feasibility(self):
        p = PlacementProblem.build({"a": 6.0, "b": 6.0}, {0: 10.0, 1: 10.0}, {})
        placement = ReplicatedPlacement(p, np.array([[0, 1], [0, 1]]))
        assert not placement.is_feasible()  # 12 > 10 on both nodes

    def test_primary_extraction(self, problem):
        assignment = np.array([[0, 1], [1, 2], [2, 0], [0, 1]])
        placement = ReplicatedPlacement(problem, assignment)
        assert placement.primary().assignment.tolist() == [0, 1, 2, 0]

    def test_nodes_of(self, problem):
        placement = ReplicatedPlacement(
            problem, np.array([[0, 2], [1, 2], [0, 1], [1, 2]])
        )
        assert placement.nodes_of("a") == [0, 2]

    def test_shape_validation(self, problem):
        with pytest.raises(PlacementError, match="num_objects"):
            ReplicatedPlacement(problem, np.zeros((2, 2), dtype=np.int64))


class TestHashReplication:
    def test_distinct_nodes_per_object(self, problem):
        placement = flat_hash(problem, 3)
        for obj in problem.object_ids:
            nodes = placement.nodes_of(obj)
            assert len(set(nodes)) == 3

    def test_deterministic(self, problem):
        a = flat_hash(problem, 2)
        b = flat_hash(problem, 2)
        assert np.array_equal(a.assignment, b.assignment)

    def test_replication_reduces_or_keeps_cost(self, problem):
        single = flat_hash(problem, 1)
        double = flat_hash(problem, 2)
        # More copies can only help the any-copy cost in expectation;
        # check the monotone property on this fixed instance.
        assert double.communication_cost() <= single.communication_cost() + 1e-12

    def test_too_many_replicas_rejected(self, problem):
        with pytest.raises(ValueError, match="distinct copies"):
            flat_hash(problem, 4)
        with pytest.raises(ValueError, match="at least 1"):
            flat_hash(problem, 0)


class TestGreedyReplication:
    def test_replicas_cover_split_pairs(self):
        # Primary forced split by capacity; replica should cover it.
        p = PlacementProblem.build(
            {"a": 3.0, "b": 3.0},
            {0: 7.0, 1: 7.0},
            {("a", "b"): 1.0},
        )
        def split_primary(problem):
            return Placement(problem, np.array([0, 1]))

        placement = greedy_replicated_placement(
            p, replicas=2, primary_strategy=split_primary
        )
        assert placement.communication_cost() == pytest.approx(0.0)

    def test_respects_capacity_when_possible(self, problem):
        placement = greedy_replicated_placement(problem, replicas=2)
        assert placement.is_feasible()

    def test_beats_hash_on_clustered_workload(self):
        rng = np.random.default_rng(0)
        objects = {f"o{i}": 1.0 for i in range(12)}
        corr = {(f"o{2*i}", f"o{2*i+1}"): 0.5 + 0.1 * rng.random() for i in range(6)}
        p = PlacementProblem.build(objects, 6, corr)
        greedy = greedy_replicated_placement(p, replicas=2)
        hashed = flat_hash(p, 2)
        assert greedy.communication_cost() <= hashed.communication_cost()

    def test_single_replica_equals_primary(self, problem):
        placement = greedy_replicated_placement(problem, replicas=1)
        assert placement.replication_factor == 1
        assert placement.communication_cost() == pytest.approx(
            placement.primary().communication_cost()
        )

    def test_custom_primary_strategy(self, problem):
        from repro.core.hashing import random_hash_placement

        placement = greedy_replicated_placement(
            problem, replicas=2, primary_strategy=random_hash_placement
        )
        assert np.array_equal(
            placement.assignment[:, 0], random_hash_placement(problem).assignment
        )


@pytest.fixture
def zoned():
    """A 12-object / 8-node instance with a 2x2x2 topology."""
    rng = np.random.default_rng(3)
    objects = {f"o{i}": float(rng.integers(1, 4)) for i in range(12)}
    corr = {
        (f"o{2 * i}", f"o{2 * i + 1}"): 0.4 + 0.05 * i for i in range(6)
    }
    problem = PlacementProblem.build(objects, 8, corr)
    topology = synthetic_topology(8, zones=2, racks_per_zone=2)
    return problem, topology


class TestSpreadValidation:
    def test_typed_error_for_shape(self, problem):
        with pytest.raises(ReplicationError, match="num_objects"):
            ReplicatedPlacement(problem, np.zeros((2, 2), dtype=np.int64))
        # Back-compat: the typed error still is a PlacementError and a
        # ValueError, so pre-1.7 handlers keep catching it.
        assert issubclass(ReplicationError, PlacementError)
        assert issubclass(ReplicationError, ValueError)

    def test_error_names_offending_domain(self, zoned):
        problem, topology = zoned
        # Nodes 0 and 1 share zone 0 (and rack 0).
        assignment = np.tile(np.array([0, 1]), (problem.num_objects, 1))
        with pytest.raises(ReplicationError, match=r"sharing zone:0"):
            ReplicatedPlacement(problem, assignment, topology=topology)

    def test_error_names_offending_rack(self, zoned):
        problem, topology = zoned
        assignment = np.tile(np.array([0, 1]), (problem.num_objects, 1))
        with pytest.raises(ReplicationError, match=r"sharing rack:0"):
            ReplicatedPlacement(
                problem, assignment, topology=topology, spread="rack"
            )

    def test_topology_size_mismatch(self, zoned):
        problem, _ = zoned
        small = synthetic_topology(4, zones=2, racks_per_zone=1)
        assignment = np.tile(np.array([0, 1]), (problem.num_objects, 1))
        with pytest.raises(ReplicationError, match="topology covers"):
            ReplicatedPlacement(problem, assignment, topology=small)

    def test_cross_zone_assignment_accepted(self, zoned):
        problem, topology = zoned
        # Nodes 0 (zone 0) and 4 (zone 1).
        assignment = np.tile(np.array([0, 4]), (problem.num_objects, 1))
        placement = ReplicatedPlacement(problem, assignment, topology=topology)
        assert placement.spread == "zone"

    def test_spread_violations_matches_loop(self, zoned):
        problem, topology = zoned
        rng = np.random.default_rng(0)
        ids = topology.domain_ids("zone")
        for _ in range(20):
            assignment = rng.integers(0, 8, size=(12, 2))
            assert np.array_equal(
                spread_violations(assignment, ids),
                _spread_violations_loop(assignment, ids),
            )


class TestReplicateHash:
    def test_copies_land_in_distinct_zones(self, zoned):
        problem, topology = zoned
        placement = replicate_hash(problem, topology, replicas=2)
        ids = topology.domain_ids("zone")
        for row in placement.assignment:
            assert len({int(ids[k]) for k in row}) == 2

    def test_deterministic_and_salt_sensitive(self, zoned):
        problem, topology = zoned
        a = replicate_hash(problem, topology, replicas=2)
        b = replicate_hash(problem, topology, replicas=2)
        salted = replicate_hash(problem, topology, replicas=2, salt="x")
        assert np.array_equal(a.assignment, b.assignment)
        assert not np.array_equal(a.assignment, salted.assignment)

    def test_too_many_replicas_for_topology(self, zoned):
        problem, topology = zoned
        with pytest.raises(ReplicationError, match="distinct copies"):
            replicate_hash(problem, topology, replicas=9)


class TestSpreadReplicatedPlacement:
    def test_zero_spread_violations(self, zoned):
        problem, topology = zoned
        placement = spread_replicated_placement(problem, topology, replicas=2)
        ids = topology.domain_ids(placement.spread)
        assert spread_violations(placement.assignment, ids).size == 0

    def test_no_worse_than_hash_baseline(self, zoned):
        problem, topology = zoned
        ours = spread_replicated_placement(problem, topology, replicas=2)
        hashed = replicate_hash(problem, topology, replicas=2)
        assert ours.communication_cost() <= hashed.communication_cost() + 1e-12

    def test_respects_primary_strategy(self, zoned):
        problem, topology = zoned
        def fixed(p):
            return Placement(p, np.arange(p.num_objects) % p.num_nodes)

        placement = spread_replicated_placement(
            problem, topology, replicas=2, primary_strategy=fixed
        )
        assert np.array_equal(
            placement.assignment[:, 0], fixed(problem).assignment
        )

    def test_three_replicas_fall_back_to_rack_spread(self, zoned):
        problem, topology = zoned
        placement = spread_replicated_placement(problem, topology, replicas=3)
        assert placement.spread == "rack"  # only 2 zones for 3 copies
        ids = topology.domain_ids("rack")
        assert spread_violations(placement.assignment, ids).size == 0
