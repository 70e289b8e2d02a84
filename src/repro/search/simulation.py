"""Query-latency simulation over placed indices.

The paper evaluates communication *volume*; a deployment also cares
about *latency*.  This module replays a query log through a simple
timing model: queries arrive as a Poisson process, every inter-node
shipment pays link latency plus serialized transmission on the sender's
uplink (one transfer at a time per node), and every intersection step
pays CPU scan time proportional to the postings touched.

The simulator is intentionally small — per-node uplinks with
first-come-first-served queueing, no packet-level detail — but it is
enough to show the placement effect the byte counts imply: co-locating
correlated indices removes hops from the critical path and contention
from the uplinks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.placement import Placement
from repro.search.engine import DistributedSearchEngine, QueryProfile
from repro.search.index import InvertedIndex
from repro.search.query import QueryLog


@dataclass(frozen=True)
class TimingModel:
    """Physical parameters of the simulated cluster.

    Attributes:
        bandwidth_bytes_per_s: Uplink bandwidth per node.
        link_latency_s: One-way latency per inter-node shipment.
        scan_bytes_per_s: CPU rate for scanning postings during
            intersection.
    """

    bandwidth_bytes_per_s: float = 100e6
    link_latency_s: float = 0.2e-3
    scan_bytes_per_s: float = 2e9

    def transfer_time(self, num_bytes: float) -> float:
        """Wire time for one shipment."""
        return self.link_latency_s + num_bytes / self.bandwidth_bytes_per_s

    def scan_time(self, num_bytes: float) -> float:
        """CPU time to scan ``num_bytes`` of postings."""
        return num_bytes / self.scan_bytes_per_s


@dataclass(frozen=True)
class LatencyReport:
    """Latency distribution and node utilization of one replay.

    Attributes:
        latencies_s: Per-query end-to-end latency, in arrival order.
        uplink_busy_s: Total transmission time per node index.
        makespan_s: Completion time of the last query.
    """

    latencies_s: np.ndarray
    uplink_busy_s: np.ndarray
    makespan_s: float

    @property
    def mean_s(self) -> float:
        """Mean query latency."""
        return float(self.latencies_s.mean()) if self.latencies_s.size else 0.0

    def percentile_s(self, q: float) -> float:
        """Latency percentile (``q`` in [0, 100])."""
        if not self.latencies_s.size:
            return 0.0
        return float(np.percentile(self.latencies_s, q))

    def uplink_utilization(self) -> np.ndarray:
        """Per-node fraction of the makespan spent transmitting."""
        if self.makespan_s <= 0:
            return np.zeros_like(self.uplink_busy_s)
        return self.uplink_busy_s / self.makespan_s


def simulate_latencies(
    index: InvertedIndex,
    placement: Placement,
    log: QueryLog,
    arrival_rate_qps: float = 200.0,
    timing: TimingModel = TimingModel(),
    seed: int | None = 0,
) -> LatencyReport:
    """Replay a query log with Poisson arrivals and FCFS uplinks.

    Each query executes the engine's smallest-first pipelined
    intersection; every hop waits for the sending node's uplink (FCFS
    in stage-request order), pays transfer time, then the receiving
    node pays scan time for the intersection step.  Execution order
    and sizes come from the log's compiled
    :class:`~repro.search.engine.QueryProfile`.

    Args:
        index: The global inverted index.
        placement: Keyword placement to simulate; an indexed keyword of
            the log that it does not cover raises ``ValueError``.
        log: Queries to replay, in order.
        arrival_rate_qps: Poisson arrival rate.
        timing: Physical timing parameters.
        seed: Seed for the arrival process.

    Returns:
        A :class:`LatencyReport`.
    """
    if arrival_rate_qps <= 0:
        raise ValueError("arrival_rate_qps must be positive")
    rng = np.random.default_rng(seed)
    profile = QueryProfile(index, log)
    nodes, node_ids = DistributedSearchEngine(index, placement)._gather(profile)
    num_nodes = placement.problem.num_nodes
    node_index = {nid: k for k, nid in enumerate(placement.problem.node_ids)}
    uplink = [node_index[node_ids[c]] for c in nodes.tolist()]
    offsets = profile.offsets.tolist()
    shipped = profile.shipped.tolist()
    scanned = profile.scanned.tolist()

    arrivals = np.cumsum(rng.exponential(1.0 / arrival_rate_qps, size=len(log)))
    uplink_free = np.zeros(num_nodes)
    uplink_busy = np.zeros(num_nodes)
    latencies = np.empty(len(log))
    makespan = 0.0

    for q, (qid, arrival) in enumerate(zip(profile.inverse.tolist(), arrivals)):
        lo, hi = offsets[qid], offsets[qid + 1]
        clock = float(arrival)
        if lo < hi:
            clock += timing.scan_time(scanned[lo])
            for p in range(lo + 1, hi):
                k = uplink[p - 1]
                if uplink[p] != k:
                    if shipped[p]:
                        start = max(clock, uplink_free[k])
                        wire = timing.transfer_time(shipped[p])
                        uplink_free[k] = start + wire
                        uplink_busy[k] += wire
                        clock = start + wire
                    else:
                        clock += timing.link_latency_s
                clock += timing.scan_time(scanned[p])
        latencies[q] = clock - arrival
        makespan = max(makespan, clock)

    return LatencyReport(
        latencies_s=latencies,
        uplink_busy_s=uplink_busy,
        makespan_s=float(makespan),
    )
