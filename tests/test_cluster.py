"""Tests for the cluster substrate (repro.cluster)."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.network import NetworkModel
from repro.cluster.node import StorageNode
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.exceptions import PlacementError


class TestStorageNode:
    def test_store_and_evict(self):
        node = StorageNode("n", capacity=10.0)
        node.store("a", 4.0)
        assert node.used == 4.0
        assert node.free == 6.0
        assert node.holds("a")
        assert node.evict("a") == 4.0
        assert not node.holds("a")

    def test_duplicate_store_rejected(self):
        node = StorageNode("n")
        node.store("a", 1.0)
        with pytest.raises(PlacementError, match="already"):
            node.store("a", 1.0)

    def test_evict_missing_rejected(self):
        with pytest.raises(PlacementError, match="not on node"):
            StorageNode("n").evict("ghost")

    def test_soft_overflow_tracked(self):
        node = StorageNode("n", capacity=2.0)
        node.store("big", 5.0)
        assert node.is_overloaded
        assert node.free == -3.0

    def test_size_of(self):
        node = StorageNode("n")
        node.store("a", 3.0)
        assert node.size_of("a") == 3.0
        with pytest.raises(PlacementError):
            node.size_of("b")

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            StorageNode("n", capacity=-1.0)

    def test_objects_in_insertion_order(self):
        node = StorageNode("n")
        node.store("b", 1.0)
        node.store("a", 1.0)
        assert node.objects() == ["b", "a"]


class TestNetworkModel:
    def test_transfer_accounting(self):
        net = NetworkModel(["x", "y", "z"])
        assert net.transfer("x", "y", 100) == 100
        assert net.total_bytes == 100
        assert net.total_messages == 1
        assert net.bytes_between("x", "y") == 100
        assert net.bytes_sent_by("x") == 100
        assert net.bytes_sent_by("y") == 0

    def test_self_transfer_free(self):
        net = NetworkModel(["x", "y"])
        assert net.transfer("x", "x", 500) == 0
        assert net.total_bytes == 0

    def test_bidirectional_link_sum(self):
        net = NetworkModel(["x", "y"])
        net.transfer("x", "y", 10)
        net.transfer("y", "x", 5)
        assert net.bytes_between("x", "y") == 15

    def test_traffic_matrix_copy(self):
        net = NetworkModel(["x", "y"])
        net.transfer("x", "y", 7)
        matrix = net.traffic_matrix()
        matrix[:] = 0
        assert net.total_bytes == 7  # copy, not a view

    def test_reset(self):
        net = NetworkModel(["x", "y"])
        net.transfer("x", "y", 7)
        net.reset()
        assert net.total_bytes == 0

    def test_negative_bytes_rejected(self):
        net = NetworkModel(["x", "y"])
        with pytest.raises(ValueError):
            net.transfer("x", "y", -1)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(["x", "x"])


@pytest.fixture
def cluster():
    problem = PlacementProblem.build(
        objects={"s": 10.0, "m": 20.0, "l": 40.0, "x": 5.0},
        nodes={"n0": 100.0, "n1": 100.0},
        correlations={("s", "m"): 0.5},
    )
    placement = Placement.from_mapping(
        problem, {"s": "n0", "m": "n0", "l": "n1", "x": "n1"}
    )
    return Cluster(placement)


class TestCluster:
    def test_materializes_placement(self, cluster):
        assert cluster.locate("s") == "n0"
        assert cluster.nodes["n0"].used == 30.0
        assert cluster.nodes["n1"].used == 45.0

    def test_local_intersection_free(self, cluster):
        result = cluster.execute_intersection(["s", "m"])
        assert result.is_local
        assert result.bytes_transferred == 0

    def test_remote_intersection_ships_running_result(self, cluster):
        # s (10) smallest: ship to l's node; bound stays at min size.
        result = cluster.execute_intersection(["s", "l"])
        assert result.bytes_transferred == 10.0
        assert result.coordinator == "n1"
        assert result.num_remote_objects == 1

    def test_three_way_intersection_pipelines(self, cluster):
        # sizes: x(5)@n1, s(10)@n0, m(20)@n0 -> start at n1,
        # ship 5 to n0 for s, then m is local.
        result = cluster.execute_intersection(["s", "m", "x"])
        assert result.bytes_transferred == 5.0
        assert result.coordinator == "n0"

    def test_union_ships_to_largest(self, cluster):
        # l (40) on n1 is largest; s and m (30 bytes total) move there.
        result = cluster.execute_union(["s", "m", "l"])
        assert result.bytes_transferred == 30.0
        assert result.coordinator == "n1"

    def test_union_local(self, cluster):
        assert cluster.execute_union(["l", "x"]).is_local

    def test_trace_execution_accumulates_network(self, cluster):
        results = cluster.execute_trace([("s", "l"), ("s", "m")], mode="intersection")
        assert len(results) == 2
        assert cluster.network.total_bytes == 10

    def test_unknown_mode_rejected(self, cluster):
        with pytest.raises(ValueError, match="unknown operation mode"):
            cluster.execute_trace([], mode="bogus")

    def test_empty_operation_rejected(self, cluster):
        with pytest.raises(ValueError, match="no objects"):
            cluster.execute_intersection([])

    def test_unknown_object_rejected(self, cluster):
        with pytest.raises(PlacementError, match="unknown object"):
            cluster.execute_intersection(["ghost"])

    def test_migrate_moves_and_charges(self, cluster):
        moved = cluster.migrate("s", "n1")
        assert moved == 10.0
        assert cluster.locate("s") == "n1"
        assert cluster.nodes["n0"].used == 20.0
        # Intersection with m is now remote.
        assert not cluster.execute_intersection(["s", "m"]).is_local

    def test_migrate_to_same_node_free(self, cluster):
        assert cluster.migrate("s", "n0") == 0.0

    def test_overloaded_nodes_empty_when_fitting(self, cluster):
        assert cluster.overloaded_nodes() == []

    def test_overloaded_detection(self):
        problem = PlacementProblem.build(
            {"big": 50.0}, {"n0": 10.0, "n1": 10.0}, {}
        )
        placement = Placement(problem, np.array([0]))
        cluster = Cluster(placement)
        assert cluster.overloaded_nodes() == ["n0"]
