"""Greedy correlation-aware placement — the paper's heuristic baseline.

Section 4.1: "we examine keyword pairs in the descending order of their
query correlations and always place the most correlated pair on the
same node as long as the node capacity permits it."

The pass over pairs leaves some objects unplaced (objects that never
appear in a correlated pair, or whose pair could not fit anywhere);
those are finished with best-fit-decreasing so the result is always a
total placement.
"""

from __future__ import annotations

import numpy as np

from repro.core.placement import Placement
from repro.core.problem import PlacementProblem


def greedy_placement(problem: PlacementProblem) -> Placement:
    """Greedily co-locate the most correlated pairs.

    Pairs are examined in descending order of correlation ``r``; a
    fresh (both-unplaced) pair goes to the lowest-indexed node with
    room for both, as the paper's heuristic places the pair "as long
    as the node capacity permits it", with no placement optimization.
    Objects left over are placed best-fit-decreasing, and an object
    that fits nowhere goes to the freest node, mirroring the paper's
    tolerance of slight capacity overruns.

    Returns:
        A total placement.
    """
    t, n = problem.num_objects, problem.num_nodes
    assignment = -np.ones(t, dtype=np.int64)
    free = problem.capacities.astype(float).copy()
    sizes = problem.sizes
    resource_free = [spec.budgets.astype(float).copy() for spec in problem.resources]
    resource_loads = [spec.loads for spec in problem.resources]

    def fits(obj: int, k: int) -> bool:
        """Whether object ``obj`` fits node ``k`` on every dimension."""
        if free[k] < sizes[obj]:
            return False
        return all(
            rf[k] >= loads[obj]
            for rf, loads in zip(resource_free, resource_loads)
        )

    def commit(obj: int, k: int) -> None:
        assignment[obj] = k
        free[k] -= sizes[obj]
        for rf, loads in zip(resource_free, resource_loads):
            rf[k] -= loads[obj]

    # Stable deterministic order: descending correlation, then pair
    # index order.
    order = np.lexsort(
        (problem.pair_index[:, 1], problem.pair_index[:, 0], -problem.correlations)
    )

    for p in order:
        i, j = problem.pair_index[p]
        placed_i, placed_j = assignment[i] >= 0, assignment[j] >= 0
        if placed_i and placed_j:
            continue
        if placed_i or placed_j:
            anchor, mover = (i, j) if placed_i else (j, i)
            k = int(assignment[anchor])
            if fits(int(mover), k):
                commit(int(mover), k)
            continue
        # Both unplaced: co-locate on a node that fits both.
        need = sizes[i] + sizes[j]

        def pair_fits(k: int) -> bool:
            if free[k] < need:
                return False
            return all(
                rf[k] >= loads[i] + loads[j]
                for rf, loads in zip(resource_free, resource_loads)
            )

        k = next((c for c in range(n) if pair_fits(c)), -1)
        if k < 0:
            continue
        commit(int(i), k)
        commit(int(j), k)

    _complete_best_fit(problem, assignment, free, resource_free)
    return Placement(problem, assignment)


def _complete_best_fit(
    problem: PlacementProblem,
    assignment: np.ndarray,
    free: np.ndarray,
    resource_free: list[np.ndarray],
) -> None:
    """Place leftover objects best-fit-decreasing, in place."""
    remaining = np.where(assignment < 0)[0]
    if remaining.size == 0:
        return
    resource_loads = [spec.loads for spec in problem.resources]
    for i in sorted(remaining, key=lambda i: -problem.sizes[i]):
        feasible = free >= problem.sizes[i]
        for rf, loads in zip(resource_free, resource_loads):
            feasible &= rf >= loads[i]
        candidates = np.where(feasible)[0]
        if candidates.size:
            # Best fit: the feasible node with least leftover space.
            k = int(candidates[np.argmin(free[candidates])])
        else:
            k = int(np.argmax(free))
        assignment[i] = k
        free[k] -= problem.sizes[i]
        for rf, loads in zip(resource_free, resource_loads):
            rf[k] -= loads[i]
