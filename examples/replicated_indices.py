"""Replication + correlation-aware placement + routing.

Production search systems replicate indices for availability; with
copies in play, a query can be answered wherever *some* copy pair
shares a node.  This example compares four designs on the same
workload:

* single copy, hash placement (baseline),
* single copy, LPRR placement (the paper),
* two copies, hash placement with replica routing,
* two copies, correlation-aware replica placement with routing.

Run:  python examples/replicated_indices.py
"""

from repro.analysis.reporting import format_table
from repro.cluster.topology import Topology
from repro.core import LPRRPlanner
from repro.core.replication import greedy_replicated_placement, replicate_hash
from repro.experiments.common import CaseStudy, CaseStudyConfig
from repro.search.engine import DistributedSearchEngine
from repro.search.replicated_engine import ReplicatedSearchEngine

NUM_NODES = 8
SCOPE = 300


def main() -> None:
    study = CaseStudy.build(
        CaseStudyConfig(
            num_documents=500,
            vocabulary_size=1600,
            num_queries=8_000,
            num_topics=150,
            membership_exponent=0.2,
            topic_size_range=(2, 5),
            topic_query_fraction=0.85,
            min_support=2,
            seed=6,
        )
    )
    problem = study.placement_problem(NUM_NODES)
    capped = problem.with_capacities(
        2.0 * 2 * problem.total_size / NUM_NODES  # room for two copies
    )

    single_hash = study.place_hash(NUM_NODES)
    single_lprr = study.place_lprr(NUM_NODES, SCOPE)
    double_hash = replicate_hash(capped, Topology.flat(NUM_NODES), replicas=2)
    double_aware = greedy_replicated_placement(
        capped,
        replicas=2,
        primary_strategy=lambda p: LPRRPlanner(scope=SCOPE, seed=0).plan(p).placement,
    )

    engines = {
        "1 copy, hash": DistributedSearchEngine(study.index, single_hash),
        "1 copy, LPRR": DistributedSearchEngine(study.index, single_lprr),
        "2 copies, hash + routing": ReplicatedSearchEngine(study.index, double_hash),
        "2 copies, aware + routing": ReplicatedSearchEngine(study.index, double_aware),
    }
    rows = []
    baseline = None
    for name, engine in engines.items():
        stats = engine.execute_log(study.log)
        if baseline is None:
            baseline = stats.total_bytes
        rows.append([name, stats.total_bytes, stats.total_bytes / baseline, stats.local_fraction])
    print(
        format_table(
            ["design", "bytes moved", "vs 1-copy hash", "local queries"], rows
        )
    )
    print(
        "\nReplication helps even oblivious placement (more chances to "
        "share a node), but correlation-aware copies + routing compound "
        "the savings."
    )


if __name__ == "__main__":
    main()
