"""Ablation: LPRR vs the exact optimum (Theorem 2).

The expected-optimality guarantee says best-of-k LPRR should land at or
near the true optimum when instances are small enough to solve exactly.
This bench runs a batch of random small CCA instances through the exact
MILP reference, LPRR, and greedy, and reports the mean optimality gaps.
A second band runs the ``repro gap`` harness at 40 objects × 4 nodes
under strict capacity, where the reference still proves its optimum.
"""

import numpy as np

from repro.core.exact import solve_exact
from repro.core.greedy import greedy_placement
from repro.core.lprr import LPRRPlanner
from repro.core.problem import PlacementProblem
from repro.gap import run_gap

NUM_INSTANCES = 12


def random_instance(seed):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(8, 13))
    n = int(rng.integers(2, 4))
    objects = {f"o{i}": float(rng.uniform(1, 4)) for i in range(t)}
    capacity = sum(objects.values()) / n * 1.6
    corr = {}
    for i in range(t):
        for j in range(i + 1, t):
            if rng.random() < 0.4:
                corr[(f"o{i}", f"o{j}")] = float(rng.uniform(0.05, 1.0))
    return PlacementProblem.build(objects, {k: capacity for k in range(n)}, corr)


def test_optimality_gap(benchmark, study):
    def run_batch():
        gaps_lprr, gaps_greedy = [], []
        for seed in range(NUM_INSTANCES):
            problem = random_instance(seed)
            exact = solve_exact(problem)
            planner = LPRRPlanner(
                capacity_factor=None, rounding_trials=40, seed=seed,
                capacity_tolerance=0.0,
            )
            lprr = planner.plan(problem)
            # Total capacity covers total size, so the CCA LP optimum,
            # and with it LPRR's bound, is 0 (DESIGN.md §5.1).
            assert lprr.lp_lower_bound == 0.0
            greedy = greedy_placement(problem)
            base = exact.cost + 1e-9
            gaps_lprr.append(lprr.cost / base)
            gaps_greedy.append(greedy.communication_cost() / base)
        return gaps_lprr, gaps_greedy

    gaps_lprr, gaps_greedy = benchmark.pedantic(
        run_batch, rounds=1, iterations=1
    )
    print(
        f"\nLPRR/optimal: mean {np.mean(gaps_lprr):.3f} max {np.max(gaps_lprr):.3f}; "
        f"greedy/optimal: mean {np.mean(gaps_greedy):.3f}"
    )

    # Best-of-40 LPRR is near-optimal on average ...
    assert np.mean(gaps_lprr) < 1.25
    # ... and never catastrophically bad.
    assert np.max(gaps_lprr) < 2.0
    # LPRR at least matches greedy in aggregate.
    assert np.mean(gaps_lprr) <= np.mean(gaps_greedy) + 0.05


def test_optimality_gap_40x4(benchmark):
    """LPRR against the proven optimum on the gap harness's clustered
    instances at 40 objects × 4 nodes.  No planner may beat the
    optimum; how far LPRR stays above it is printed, not bounded."""
    report = benchmark.pedantic(
        run_gap,
        kwargs={"seed": 0, "instances": 4, "objects": 40, "nodes": 4},
        rounds=1,
        iterations=1,
    )
    print(
        f"\n40x4 LPRR/optimal: mean {report.mean_lprr_ratio:.2f}x "
        f"max {report.max_lprr_ratio:.2f}x"
    )
    for case in report.cases:
        assert case.lprr_ratio >= 1.0 - 1e-9
        assert case.lprr_excess >= -1e-9
