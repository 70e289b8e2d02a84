"""The content-addressed plan cache.

Pointing ``PlanConfig.cache_dir`` at a directory memoizes whole plans
by problem fingerprint plus planner configuration, so a warm replan of
the same problem is a lookup.  With instrumentation enabled, the run
exposes the cache's hit and miss counters.

Run:  python examples/plan_cache.py
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
        operations.append(tuple(rng.choice(members, size=count, replace=False).tolist()))
    return PlacementProblem.build(
        sizes, NUM_NODES, cooccurrence_correlations(operations)
    )


def main() -> None:
    problem = build_problem()
    print(f"problem: {problem}\n")

    # A cache makes the second plan nearly free.
    with tempfile.TemporaryDirectory() as cache_dir:
        config = PlanConfig(seed=42, capacity_factor=1.1, cache_dir=cache_dir)
        inst = obs.enable(obs.Instrumentation())
        cold = plan(problem, "lprr", config)
        warm = plan(problem, "lprr", config)
        obs.disable()
        hits = inst.metrics.counter("cache.hits").value
        misses = inst.metrics.counter("cache.misses").value
        print(f"cold plan: {cold.elapsed_seconds * 1000:.1f} ms ({cold.diagnostics['cache']})")
        print(f"warm plan: {warm.elapsed_seconds * 1000:.1f} ms ({warm.diagnostics['cache']})")
        print(f"cache counters: {hits:g} hits, {misses:g} misses")
        same = np.array_equal(cold.placement.assignment, warm.placement.assignment)
        print(f"cached placement identical: {same}")


if __name__ == "__main__":
    main()
