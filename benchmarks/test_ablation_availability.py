"""Ablation: availability under node failures.

A natural worry about correlation-aware placement is blast radius:
co-locating hot clusters means one failed node kills whole query
classes.  The measurement says otherwise — co-location makes each
query depend on *fewer* nodes (one instead of several), so fewer
queries have any failed dependency, and single-copy LPRR's worst-case
availability actually beats hash's.  Replication then lifts worst-case
availability to 1.0 while keeping the communication savings.
"""

from repro.analysis.reporting import format_table
from repro.core.lprr import LPRRPlanner
from repro.core.replication import greedy_replicated_placement
from repro.resilience import ClusterView, mode_stats
from repro.search.replicated_engine import ReplicatedSearchEngine
from repro.search.engine import DistributedSearchEngine

NUM_NODES = 10
SCOPE = 400


def worst_crash_availability(placement, trace):
    """Lowest operation availability over every single-node crash."""
    num_nodes = placement.problem.num_nodes
    return min(
        mode_stats(
            placement, ClusterView(num_nodes, down=frozenset({k})), trace
        ).operation_availability
        for k in range(num_nodes)
    )


def test_failure_availability(benchmark, study):
    problem = study.placement_problem(NUM_NODES)
    trace = [q.keywords for q in study.log][:4000]

    def run():
        hash_placement = study.place_hash(NUM_NODES)
        lprr_placement = study.place_lprr(NUM_NODES, SCOPE)
        capped = problem.with_capacities(2.0 * 2 * problem.total_size / NUM_NODES)
        replicated = greedy_replicated_placement(
            capped,
            replicas=2,
            primary_strategy=lambda p: LPRRPlanner(scope=SCOPE, seed=0)
            .plan(p)
            .placement,
        )
        rows = {}
        rows["hash x1"] = (
            worst_crash_availability(hash_placement, trace),
            DistributedSearchEngine(study.index, hash_placement)
            .execute_log(study.log)
            .total_bytes,
        )
        rows["lprr x1"] = (
            worst_crash_availability(lprr_placement, trace),
            DistributedSearchEngine(study.index, lprr_placement)
            .execute_log(study.log)
            .total_bytes,
        )
        rows["lprr x2"] = (
            worst_crash_availability(replicated, trace),
            ReplicatedSearchEngine(study.index, replicated)
            .execute_log(study.log)
            .total_bytes,
        )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    hash_bytes = rows["hash x1"][1]
    print(
        "\n"
        + format_table(
            ["design", "worst-failure availability", "bytes vs hash"],
            [
                [name, avail, b / hash_bytes]
                for name, (avail, b) in rows.items()
            ],
        )
    )

    # Co-location shrinks per-query dependency sets, so single-copy
    # LPRR survives its worst failure at least as well as hash.
    assert rows["lprr x1"][0] >= rows["hash x1"][0] - 0.05
    # Replication restores availability ...
    assert rows["lprr x2"][0] > max(rows["lprr x1"][0], rows["hash x1"][0])
    # ... while keeping most of the communication savings.
    assert rows["lprr x2"][1] < hash_bytes