"""Tests for availability when nodes crash (repro.resilience.mode_stats).

With no partition, ``mode_stats`` over ``ClusterView(num_nodes,
down=failed)`` loses an object when every copy sits on a failed node and
serves an operation unless one of its known objects is lost.
"""

import numpy as np
import pytest

from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.core.replication import ReplicatedPlacement
from repro.resilience import ClusterView, mode_stats


@pytest.fixture
def problem():
    return PlacementProblem.build(
        {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}, 3, {("a", "b"): 0.5}
    )


@pytest.fixture
def single(problem):
    return Placement(problem, np.array([0, 0, 1, 2]))


@pytest.fixture
def replicated(problem):
    return ReplicatedPlacement(
        problem, np.array([[0, 1], [0, 2], [1, 2], [2, 0]])
    )


def _crash_stats(placement, failed, operations=()):
    view = ClusterView(placement.problem.num_nodes, down=frozenset(failed))
    return mode_stats(placement, view, operations)


class TestFailNodes:
    def test_no_failure_full_availability(self, single):
        stats = _crash_stats(single, [], [("a", "b")])
        assert stats.object_availability == 1.0
        assert stats.operation_availability == 1.0
        assert stats.lost_objects == 0

    def test_single_copy_loses_node_contents(self, single):
        stats = _crash_stats(single, [0], [("a",), ("b",), ("c",), ("d",)])
        assert stats.lost_objects == 2
        assert stats.object_availability == pytest.approx(0.5)
        # Exactly a and b, the contents of node 0, are lost.
        servable = [
            _crash_stats(single, [0], [(obj,)]).servable_operations for obj in "abcd"
        ]
        assert servable == [0, 0, 1, 1]

    def test_operations_requiring_lost_objects_unservable(self, single):
        trace = [("a", "b"), ("c",), ("c", "d"), ("a", "c")]
        stats = _crash_stats(single, [0], trace)
        assert stats.operations == 4
        assert stats.servable_operations == 2
        assert stats.operation_availability == pytest.approx(0.5)

    def test_replication_survives_single_failure(self, replicated):
        trace = [("a", "b"), ("c", "d")]
        for node in (0, 1, 2):
            stats = _crash_stats(replicated, [node], trace)
            assert stats.lost_objects == 0
            assert stats.operation_availability == 1.0

    def test_replication_double_failure_loses_objects(self, replicated):
        stats = _crash_stats(replicated, [0, 1], [("a",), ("c",)])
        assert stats.lost_objects == 1  # a: copies on 0 and 1
        assert stats.operation_availability == pytest.approx(0.5)

    def test_unknown_objects_in_operations_ignored(self, single):
        stats = _crash_stats(single, [0], [("zzz",), ("zzz", "c")])
        assert stats.servable_operations == 2

    def test_unknown_node_rejected(self, single):
        with pytest.raises(ValueError, match="down references unknown node"):
            _crash_stats(single, [7])

    def test_empty_trace(self, single):
        stats = _crash_stats(single, [0])
        assert stats.operations == 0
        assert stats.operation_availability == 1.0
        assert stats.lost_objects == 2


def _crash_reference(placement, failed, operations):
    """Availability with ``failed`` node indices crashed, no partition.

    An object is lost when every copy sits on a failed node.  An
    operation is servable unless one of its known objects is lost;
    unknown ids are ignored.  Returns ``(operation availability, object
    availability, lost objects)``.
    """
    problem = placement.problem
    rows = placement.assignment.reshape(problem.num_objects, -1)
    copies = {
        obj: {int(k) for k in row} for obj, row in zip(problem.object_ids, rows)
    }
    lost = {obj for obj, nodes in copies.items() if nodes <= set(failed)}
    total = servable = 0
    for operation in operations:
        total += 1
        if not any(obj in lost for obj in operation if obj in copies):
            servable += 1
    operation_availability = servable / total if total else 1.0
    object_availability = (len(copies) - len(lost)) / len(copies)
    return operation_availability, object_availability, len(lost)


def _random_instance(rng, num_objects=12, num_nodes=4, num_ops=20):
    """A random problem, a single-copy placement, a replicated placement
    whose first copy matches it (second copy always on another node),
    and a trace in which some operations name unknown ids."""
    objects = {f"o{i}": float(rng.integers(1, 5)) for i in range(num_objects)}
    names = sorted(objects)
    correlations = {}
    for _ in range(num_objects):
        i, j = sorted(rng.choice(num_objects, size=2, replace=False))
        correlations[(names[int(i)], names[int(j)])] = float(rng.uniform(0.1, 0.9))
    problem = PlacementProblem.build(objects, num_nodes, correlations)
    assignment = rng.integers(0, num_nodes, size=num_objects)
    single = Placement(problem, assignment)
    spare = (assignment + rng.integers(1, num_nodes, size=num_objects)) % num_nodes
    replicated = ReplicatedPlacement(problem, np.stack([assignment, spare], axis=1))
    vocabulary = names + ["ghost", 7]
    trace = [
        tuple(
            vocabulary[int(k)]
            for k in rng.choice(len(vocabulary), size=int(rng.integers(1, 4)))
        )
        for _ in range(num_ops)
    ]
    return problem, single, replicated, trace


class TestAvailabilityProperties:
    """Property-style checks of the availability math."""

    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            num_nodes = int(rng.integers(2, 7))
            problem, single, replicated, trace = _random_instance(
                rng, num_nodes=num_nodes
            )
            count = int(rng.integers(0, num_nodes + 1))
            failed = {int(k) for k in rng.choice(num_nodes, size=count, replace=False)}
            for placement in (single, replicated):
                stats = _crash_stats(placement, failed, trace)
                assert (
                    stats.operation_availability,
                    stats.object_availability,
                    stats.lost_objects,
                ) == _crash_reference(placement, failed, trace)

    def test_empty_failure_set_is_full_availability(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            _, single, replicated, trace = _random_instance(rng)
            for placement in (single, replicated):
                stats = _crash_stats(placement, set(), trace)
                assert stats.object_availability == 1.0
                assert stats.operation_availability == 1.0
                assert stats.lost_objects == 0

    def test_all_nodes_failed_is_zero_availability(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            problem, single, replicated, trace = _random_instance(rng)
            # An operation naming no known object stays servable.
            known = [op for op in trace if set(op) & set(problem.object_ids)]
            everyone = set(range(problem.num_nodes))
            for placement in (single, replicated):
                stats = _crash_stats(placement, everyone, known)
                assert stats.object_availability == 0.0
                assert stats.lost_objects == problem.num_objects
                assert stats.operation_availability == 0.0

    def test_replication_never_hurts(self):
        """For every random failure set, a replicated placement whose
        first copy equals the single-copy placement is at least as
        available — object- and operation-wise."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            problem, single, replicated, trace = _random_instance(rng)
            count = int(rng.integers(0, problem.num_nodes + 1))
            failed = {
                int(k) for k in rng.choice(problem.num_nodes, size=count, replace=False)
            }
            one = _crash_stats(single, failed, trace)
            two = _crash_stats(replicated, failed, trace)
            assert two.object_availability >= one.object_availability
            assert two.operation_availability >= one.operation_availability
            assert two.lost_objects <= one.lost_objects

    def test_availability_monotone_in_failures(self):
        """Failing more nodes never helps."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            problem, single, _, trace = _random_instance(rng)
            order = [int(k) for k in rng.permutation(problem.num_nodes)]
            previous = 1.0
            for k in range(problem.num_nodes + 1):
                stats = _crash_stats(single, order[:k], trace)
                assert stats.operation_availability <= previous
                previous = stats.operation_availability
