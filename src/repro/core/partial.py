"""Generic important-object partial optimization (Section 3.1).

:class:`~repro.core.lprr.LPRRPlanner` hard-wires this pattern for the
LP pipeline; :func:`scoped_placement` exposes it for *any* inner
strategy so experiments can compare like with like — e.g. the paper's
Figure 6 runs both LPRR and the greedy heuristic at each optimization
scope, hashing all out-of-scope keywords.  Both split the objects with
:func:`split_scope`, hash the rest with :func:`hash_rest`, cap the
scoped subproblem with :func:`scoped_capacities` and scatter its plan
back by index.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.hashing import hash_node
from repro.core.importance import _importance_order
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem


def split_scope(
    problem: PlacementProblem, scope: int
) -> tuple[np.ndarray, np.ndarray]:
    """Object indices in importance order, split after the first ``scope``.

    Returns:
        ``(scoped, rest)``: the ``scope`` most important objects, most
        important first, then every other object.
    """
    order = _importance_order(problem)
    return order[:scope], order[scope:]


def hash_rest(problem: PlacementProblem, rest: np.ndarray) -> np.ndarray:
    """An assignment array with the ``rest`` objects MD5-hashed.

    Entries of objects outside ``rest`` are left for the caller to fill.
    """
    assignment = np.empty(problem.num_objects, dtype=np.int64)
    ids, n = problem.object_ids, problem.num_nodes
    assignment[rest] = [hash_node(ids[i], n) for i in rest.tolist()]
    return assignment


def scoped_capacities(
    problem: PlacementProblem, scoped: np.ndarray, capacity_factor: float | None
) -> np.ndarray:
    """Per-node capacities for the scoped subproblem.

    ``capacity_factor`` times the scoped objects' average per-node load
    (the paper's "no more than <factor> times the average"), but never
    below the largest scoped object; ``None`` keeps the problem's own
    capacities.
    """
    if capacity_factor is None:
        return problem.capacities.copy()
    sizes = problem.sizes[scoped].tolist()
    # A builtin sum in scope order: np.sum associates pairwise.
    per_node = capacity_factor * float(sum(sizes)) / problem.num_nodes
    return np.full(problem.num_nodes, max(per_node, max(sizes, default=0.0)))


def scoped_subproblem(
    problem: PlacementProblem, scoped: np.ndarray, capacities: np.ndarray
) -> PlacementProblem:
    """The subproblem over the ``scoped`` indices, in their order."""
    ids = list(map(problem.object_ids.__getitem__, scoped.tolist()))
    return problem.subproblem(ids, capacities=capacities)


def scoped_placement(
    problem: PlacementProblem,
    scope: int | None,
    place_subproblem: Callable[[PlacementProblem], Placement],
    capacity_factor: float | None = 2.0,
) -> Placement:
    """Optimize the top-``scope`` objects with a strategy, hash the rest.

    Args:
        problem: The full CCA instance.
        scope: Number of most-important objects the inner strategy may
            place; ``None`` means all of them.
        place_subproblem: Strategy invoked on the scoped subproblem
            (its node set equals the full problem's).
        capacity_factor: Conservative per-node capacity for the
            subproblem, as a multiple of the scoped objects' average
            per-node load; ``None`` keeps the problem's capacities.

    Returns:
        A total placement over the full problem.
    """
    if scope is not None and scope < 0:
        raise ValueError("scope must be nonnegative (or None)")
    scope = problem.num_objects if scope is None else min(scope, problem.num_objects)
    scoped, rest = split_scope(problem, scope)
    assignment = hash_rest(problem, rest)
    if scoped.size:
        capacities = scoped_capacities(problem, scoped, capacity_factor)
        subproblem = scoped_subproblem(problem, scoped, capacities)
        assignment[scoped] = place_subproblem(subproblem).assignment
    return Placement(problem, assignment)
