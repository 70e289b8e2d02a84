"""The parallel planning engine and the content-addressed plan cache.

Three properties of the 1.1 Planner API, demonstrated end to end:

1. **Worker-count independence** — with ``jobs`` set, rounding trials
   use seeds spawned per-trial from the root seed, so ``jobs=1`` and
   ``jobs=4`` produce the *identical* placement (only wall-clock
   changes).  Compare with the legacy serial engine (``jobs=None``),
   which is byte-compatible with pre-1.1 releases but consumes one
   sequential random stream.
2. **Plan caching** — pointing ``cache_dir`` at a directory memoizes
   whole plans by problem fingerprint; a warm replan of the same
   problem is a lookup.
3. **Observability** — with instrumentation enabled, the run exposes
   cache hit/miss counters and pool-utilization gauges.

Run:  python examples/parallel_planning.py
"""

import tempfile

import numpy as np

from repro import PlacementProblem, PlanConfig, obs, plan
from repro.core.correlation import cooccurrence_correlations

NUM_OBJECTS = 120
NUM_NODES = 6


def build_problem() -> PlacementProblem:
    """A synthetic workload with clustered correlations."""
    rng = np.random.default_rng(7)
    sizes = {f"obj{i:03d}": float(rng.lognormal(2.0, 0.5)) for i in range(NUM_OBJECTS)}
    names = sorted(sizes)
    operations = []
    for _ in range(4000):
        cluster = int(rng.integers(NUM_OBJECTS // 6))
        members = names[cluster * 6 : cluster * 6 + 6]
        count = int(rng.integers(2, 4))
        operations.append(tuple(rng.choice(members, size=count, replace=False)))
    return PlacementProblem.build(
        sizes, NUM_NODES, cooccurrence_correlations(operations)
    )


def main() -> None:
    problem = build_problem()
    print(f"problem: {problem}\n")

    # 1. The same seed gives the same placement at every worker count.
    # Tight capacities (1.1x average load) force real trade-offs so the
    # determinism claim is tested on a nonzero-cost instance.
    results = {
        jobs: plan(
            problem, "lprr", PlanConfig(seed=42, jobs=jobs, capacity_factor=1.1)
        )
        for jobs in (1, 2, 4)
    }
    costs = {jobs: r.cost for jobs, r in results.items()}
    assignments = [r.placement.assignment for r in results.values()]
    identical = all(np.array_equal(assignments[0], a) for a in assignments[1:])
    print(f"parallel engine costs by jobs: {costs}")
    print(f"identical placements across jobs=1/2/4: {identical}\n")

    # 2. A cache makes the second plan nearly free.
    with tempfile.TemporaryDirectory() as cache_dir:
        config = PlanConfig(
            seed=42, jobs=1, capacity_factor=1.1, cache_dir=cache_dir
        )
        inst = obs.enable(obs.Instrumentation())
        cold = plan(problem, "lprr", config)
        warm = plan(problem, "lprr", config)
        obs.disable()
        hits = inst.metrics.counter("cache.hits").value
        misses = inst.metrics.counter("cache.misses").value
        print(f"cold plan: {cold.elapsed_seconds * 1000:.1f} ms ({cold.diagnostics['cache']})")
        print(f"warm plan: {warm.elapsed_seconds * 1000:.1f} ms ({warm.diagnostics['cache']})")
        print(f"cache counters: {hits} hits, {misses} misses")
        same = np.array_equal(cold.placement.assignment, warm.placement.assignment)
        print(f"cached placement identical: {same}")


if __name__ == "__main__":
    main()
