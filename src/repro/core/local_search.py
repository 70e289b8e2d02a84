"""Local-search placement — the task-assignment heuristic family.

The related-work section notes that task-assignment problems "typically
have heuristic solutions that focus on online efficiency".  This module
provides that family's standard representative as a further baseline:
steepest-descent local search over single-object moves and pair swaps,
starting from the greedy placement, under strict capacity feasibility.

It is stronger than the greedy pass (it can undo early mistakes) but
has no optimality guarantee; the ablation benches use it to triangulate
where LPRR's advantage comes from.
"""

from __future__ import annotations

import numpy as np

from repro.core.greedy import greedy_placement
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem

# Upper bound on improvement sweeps.
_MAX_PASSES = 20


def local_search_placement(
    problem: PlacementProblem,
    rng: np.random.Generator | int | None = 0,
) -> Placement:
    """Improve the greedy placement by moves and swaps to a local optimum.

    Each pass visits objects in random order; for each object the best
    capacity-feasible relocation, else the best swap with an object on
    another node, is applied when it strictly lowers the cost.
    Terminates at a local optimum or after ``_MAX_PASSES`` passes.

    Args:
        problem: The CCA instance (capacities enforced strictly for
            moves; an infeasible greedy start keeps its overloads unless
            moves fix them).
        rng: Seed for the visit order.

    Returns:
        A placement at least as cheap as the greedy heuristic's.
    """
    rng = np.random.default_rng(rng)
    t, n = problem.num_objects, problem.num_nodes
    assignment = greedy_placement(problem).assignment.copy()
    loads = np.bincount(assignment, weights=problem.sizes, minlength=n).astype(float)
    caps = problem.capacities

    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(t)]
    for (i, j), weight in zip(problem.pair_index, problem.pair_weights):
        if weight > 0:
            adjacency[int(i)].append((int(j), float(weight)))
            adjacency[int(j)].append((int(i), float(weight)))

    def node_weights(obj: int) -> np.ndarray:
        """Pair weight object ``obj`` shares with each node (current)."""
        weights = np.zeros(n)
        for neighbor, weight in adjacency[obj]:
            weights[assignment[neighbor]] += weight
        return weights

    def move_gain(obj: int, dst: int, weights: np.ndarray) -> float:
        """Cost reduction of relocating ``obj`` to ``dst``."""
        src = assignment[obj]
        return weights[dst] - (weights[src] if dst != src else weights[src])

    for _ in range(_MAX_PASSES):
        improved = False
        for obj in rng.permutation(t):
            obj = int(obj)
            src = int(assignment[obj])
            size = problem.sizes[obj]
            weights = node_weights(obj)
            # Best strict-capacity relocation.
            best_dst, best_gain = -1, 1e-12
            for dst in range(n):
                if dst == src or loads[dst] + size > caps[dst] + 1e-9:
                    continue
                gain = weights[dst] - weights[src]
                if gain > best_gain:
                    best_dst, best_gain = dst, gain
            if best_dst >= 0:
                loads[src] -= size
                loads[best_dst] += size
                assignment[obj] = best_dst
                improved = True
                continue

            # Best swap with an object elsewhere (sizes exchange).
            best_partner, best_gain = -1, 1e-12
            for partner in _swap_candidates(adjacency, assignment, obj):
                partner_src = int(assignment[partner])
                if partner_src == src:
                    continue
                partner_size = problem.sizes[partner]
                if loads[src] - size + partner_size > caps[src] + 1e-9:
                    continue
                if loads[partner_src] - partner_size + size > caps[partner_src] + 1e-9:
                    continue
                gain = _swap_gain(
                    problem, adjacency, assignment, obj, partner
                )
                if gain > best_gain:
                    best_partner, best_gain = partner, gain
            if best_partner >= 0:
                partner_src = int(assignment[best_partner])
                partner_size = problem.sizes[best_partner]
                loads[src] += partner_size - size
                loads[partner_src] += size - partner_size
                assignment[obj] = partner_src
                assignment[best_partner] = src
                improved = True
        if not improved:
            break
    return Placement(problem, assignment)


def _swap_candidates(adjacency, assignment, obj):
    """Objects worth considering as swap partners.

    To reduce ``obj``'s cost, it must land on a node where one of its
    correlated neighbours lives — so useful partners are exactly the
    objects currently hosted on a neighbour's node (other than obj's
    own).  Swapping with anyone else can only help via the partner's
    side, which that object's own visit will discover.
    """
    here = assignment[obj]
    target_nodes = {
        int(assignment[neighbor])
        for neighbor, _ in adjacency[obj]
        if assignment[neighbor] != here
    }
    if not target_nodes:
        return []
    mask = np.isin(assignment, list(target_nodes))
    candidates = np.where(mask)[0]
    return [int(c) for c in candidates if int(c) != int(obj)]


def _swap_gain(problem, adjacency, assignment, a, b):
    """Exact cost change of swapping objects ``a`` and ``b``."""
    before = _local_cost(adjacency, assignment, a) + _local_cost(
        adjacency, assignment, b
    )
    # Double-counted if a-b are themselves correlated; compute delta by
    # trial assignment instead of algebra for correctness.
    assignment[a], assignment[b] = assignment[b], assignment[a]
    after = _local_cost(adjacency, assignment, a) + _local_cost(
        adjacency, assignment, b
    )
    assignment[a], assignment[b] = assignment[b], assignment[a]
    return before - after


def _local_cost(adjacency, assignment, obj):
    """Split pair weight incident to ``obj`` under ``assignment``."""
    cost = 0.0
    here = assignment[obj]
    for neighbor, weight in adjacency[obj]:
        if assignment[neighbor] != here:
            cost += weight
    return cost
