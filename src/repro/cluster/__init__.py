"""Simulated distributed-system substrate.

A minimal but complete model of the environment the paper assumes: a
set of storage nodes with space capacities connected by a uniform-cost
network (Section 2.1's "local-area distributed environments in which
the communication latency between nodes are approximately equal").
The cluster places objects according to a placement scheme and executes
multi-object operations, accounting every byte moved between nodes.
"""

from repro.cluster.cluster import Cluster, OperationResult
from repro.cluster.network import NetworkModel
from repro.cluster.node import StorageNode
from repro.cluster.topology import (
    DOMAIN_KINDS,
    FailureDomain,
    Topology,
    parse_topology_spec,
    synthetic_topology,
)

__all__ = [
    "Cluster",
    "DOMAIN_KINDS",
    "FailureDomain",
    "NetworkModel",
    "OperationResult",
    "StorageNode",
    "Topology",
    "parse_topology_spec",
    "synthetic_topology",
]
