"""Distributed database / biological sequence store scenario.

The paper's second motivating application (Section 1.1): "a large
biological sequence database may be partitioned and placed on multiple
machines ... a query may search specific parts of the database".  This
example models genome-segment objects queried together by analysis
jobs, places them with hash vs LPRR, and executes the job trace on the
simulated cluster with both intersection-like (alignment filtering)
and union-like (result merging) aggregation.

Run:  python examples/distributed_database.py
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.cluster import Cluster
from repro.core import (
    PlacementProblem,
    PlanConfig,
    cooccurrence_correlations,
    plan,
)

NUM_NODES = 6
NUM_SEGMENTS = 48
NUM_JOBS = 4000


def build_workload(rng: np.random.Generator):
    """Genome segments grouped by chromosome; jobs hit one chromosome."""
    segments = {}
    chromosomes: list[list[str]] = []
    for chrom in range(8):
        members = []
        for part in range(NUM_SEGMENTS // 8):
            name = f"chr{chrom}_seg{part}"
            # Sizes in MB, log-normal-ish spread.
            segments[name] = float(rng.lognormal(mean=3.0, sigma=0.6))
            members.append(name)
        chromosomes.append(members)

    # Chromosome popularity is skewed; jobs request 2-4 segments of one
    # chromosome, occasionally adding a segment from another.
    popularity = np.array([1 / (c + 1) for c in range(8)])
    popularity /= popularity.sum()
    jobs = []
    all_segments = sorted(segments)
    for _ in range(NUM_JOBS):
        chrom = int(rng.choice(8, p=popularity))
        members = chromosomes[chrom]
        count = int(rng.integers(2, 5))
        job = rng.choice(members, size=min(count, len(members)), replace=False).tolist()
        if rng.random() < 0.1:
            job.append(str(rng.choice(all_segments)))
        jobs.append(tuple(dict.fromkeys(job)))
    return segments, jobs


def main() -> None:
    rng = np.random.default_rng(11)
    segments, jobs = build_workload(rng)
    correlations = cooccurrence_correlations(jobs)
    print(
        f"{len(segments)} genome segments, {len(jobs)} analysis jobs, "
        f"{len(correlations)} correlated pairs"
    )

    problem = PlacementProblem.build(segments, NUM_NODES, correlations)
    placements = {
        "random hash": plan(problem, "hash").placement,
        "LPRR": plan(
            problem, "lprr", PlanConfig(seed=0, rounding_trials=20)
        ).placement,
    }

    rows = []
    for name, placement in placements.items():
        for mode in ("intersection", "union"):
            cluster = Cluster(placement)
            results = cluster.execute_trace(jobs, mode=mode)
            local = sum(1 for r in results if r.is_local) / len(results)
            rows.append(
                [
                    name,
                    mode,
                    cluster.network.total_bytes,
                    cluster.network.total_messages,
                    local,
                ]
            )
    print(format_table(["strategy", "mode", "MB moved", "messages", "local jobs"], rows))
    print(
        "\nCorrelation-aware placement keeps each chromosome's segments "
        "together, so most jobs complete without network traffic."
    )


if __name__ == "__main__":
    main()
