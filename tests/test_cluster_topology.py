"""Tests for the failure-domain topology model (repro.cluster.topology)."""

import numpy as np
import pytest

from repro.cluster import (
    DOMAIN_KINDS,
    FailureDomain,
    Topology,
    parse_topology_spec,
    synthetic_topology,
)


class TestTopologyConstruction:
    def test_flat_every_node_its_own_domain(self):
        topo = Topology.flat(4)
        assert topo.num_nodes == 4
        assert topo.num_racks == 4
        assert topo.num_zones == 4
        for k in range(4):
            assert topo.domain_of(k, "rack") == k
            assert topo.domain_of(k, "zone") == k

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="racks"):
            Topology(racks=(0, 1), zones=(0,))

    def test_negative_domain_rejected(self):
        with pytest.raises(ValueError):
            Topology(racks=(0, -1), zones=(0, 0))

    def test_rack_split_across_zones_rejected(self):
        # Rack 0 cannot live in zone 0 and zone 1 at once.
        with pytest.raises(ValueError, match="zone"):
            Topology(racks=(0, 0), zones=(0, 1))

    def test_domain_ids_matches_domain_of(self):
        topo = synthetic_topology(9, zones=3, racks_per_zone=3)
        for kind in DOMAIN_KINDS:
            ids = topo.domain_ids(kind)
            assert ids.dtype == np.int64
            for k in range(topo.num_nodes):
                assert int(ids[k]) == topo.domain_of(k, kind)

    def test_unknown_kind_rejected(self):
        topo = Topology.flat(2)
        with pytest.raises(ValueError, match="kind"):
            topo.domain_ids("cage")


class TestSyntheticTopology:
    def test_balanced_and_contiguous(self):
        topo = synthetic_topology(12, zones=3, racks_per_zone=2)
        assert topo.num_zones == 3
        assert topo.num_racks == 6
        for z in range(3):
            assert len(topo.zone_nodes(z)) == 4
        for r in range(6):
            assert len(topo.rack_nodes(r)) == 2
        # Contiguous: node indices within a zone form a run.
        for z in range(3):
            nodes = topo.zone_nodes(z)
            assert nodes == tuple(range(nodes[0], nodes[0] + len(nodes)))

    def test_uneven_nodes_still_cover_everything(self):
        topo = synthetic_topology(10, zones=3, racks_per_zone=2)
        seen = sorted(
            k for z in range(topo.num_zones) for k in topo.zone_nodes(z)
        )
        assert seen == list(range(10))

    def test_deterministic(self):
        a = synthetic_topology(8, zones=2, racks_per_zone=2)
        b = synthetic_topology(8, zones=2, racks_per_zone=2)
        assert a == b


class TestSpreadLevel:
    def test_prefers_widest_satisfiable_domain(self):
        topo = synthetic_topology(8, zones=2, racks_per_zone=2)
        assert topo.spread_level(2) == "zone"
        assert topo.spread_level(3) == "rack"  # only 2 zones, 4 racks
        assert topo.spread_level(5) == "node"  # only 4 racks

    def test_flat_zone_spread_is_node_spread(self):
        # Flat topologies make every node its own zone, so zone spread
        # degenerates to plain distinct-node replication.
        topo = Topology.flat(5)
        assert topo.spread_level(2) == "zone"
        assert list(topo.domain_ids("zone")) == list(range(5))


class TestLabelsAndTree:
    def test_labels_round_trip_through_nodes_of_domain(self):
        topo = synthetic_topology(8, zones=2, racks_per_zone=2)
        for kind in ("zone", "rack"):
            for label in topo.domain_labels(kind):
                nodes = topo.nodes_of_domain(label)
                assert nodes
                for k in nodes:
                    assert topo.label_of(k, kind) == label

    def test_tree_covers_all_nodes_once(self):
        topo = synthetic_topology(8, zones=2, racks_per_zone=2)
        root = topo.tree()
        assert isinstance(root, FailureDomain)
        leaves = [d for d in root.walk() if d.kind == "node"]
        assert sorted(d.nodes[0] for d in leaves) == list(range(8))


class TestParseTopologySpec:
    def test_parses_zones_and_racks(self):
        topo = parse_topology_spec("zones:2,racks:2", 8)
        assert topo.num_zones == 2
        assert topo.num_racks == 4

    def test_zones_only(self):
        topo = parse_topology_spec("zones:3", 9)
        assert topo.num_zones == 3

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_topology_spec("shelves:2", 8)
        with pytest.raises(ValueError):
            parse_topology_spec("zones:zero", 8)
