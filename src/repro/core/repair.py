"""Capacity repair for rounded placements.

Theorem 3 only bounds the *expected* per-node load of the randomized
rounding; a particular draw can overload a node badly when the LP
solution contains large groups of identical fractional rows (a
strongly connected correlation component is the typical cause).  The
paper handles slight overruns by using conservative capacities;
:func:`repair_capacity` makes that practical when the overrun is not
slight: it migrates objects off overloaded nodes, always choosing the
(object, destination) move with the lowest communication-cost increase
per byte of load relieved, until every node fits.  Section 3.3 budgets
are repaired the same way once the bytes fit.

How a move is chosen: the node furthest over its byte limit gives up
one object; once no node is, the node and resource with the largest
load-to-budget ratio over a budget give up one object with a positive
load in that resource.  Every object keeps a cached row of move
deltas, the cost change of moving it from its current node to each
node.  A move drops only the rows of the moved object's correlated
neighbours; a row is rebuilt when next needed after such a drop or
from another node.  One numpy pass over the chosen node's members then
masks the destinations with room for the object (bytes and every
Section 3.3 resource), divides the deltas by the load each member would
relieve (its size, or its load in the overrun resource), and takes the
lexicographic minimum of (delta per unit relieved, larger relief first,
lower object index, lower destination index).

This is an engineering addition on top of the paper's algorithm; it
never runs when the rounded placement already respects capacity.
"""

from __future__ import annotations

import numpy as np

from repro.core.placement import Placement, check_tolerance
from repro.exceptions import InfeasibleProblemError


def repair_capacity(placement: Placement, tolerance: float = 0.0) -> Placement:
    """Return a placement whose node loads respect the capacities and
    every Section 3.3 resource budget.

    Args:
        placement: The (possibly overloaded) placement to repair,
            against its problem's capacities; infinite capacities are
            never overloaded.
        tolerance: Relative slack — loads up to
            ``capacity * (1 + tolerance)`` are acceptable.

    Returns:
        The input placement unchanged if already feasible, otherwise a
        new repaired placement.

    Raises:
        ValueError: If ``tolerance`` is NaN or infinite.
        InfeasibleProblemError: If the objects cannot fit even in
            principle (total size exceeds total allowed load, or an
            object is larger than every node's allowance), or no
            object of a node over a budget can move anywhere.
    """
    problem = placement.problem
    check_tolerance(tolerance)
    limits = problem.capacities * (1.0 + tolerance)

    assignment = placement.assignment.copy()
    loads = np.bincount(assignment, weights=problem.sizes, minlength=problem.num_nodes)
    resource_loads = [
        np.bincount(assignment, weights=spec.loads, minlength=problem.num_nodes)
        for spec in problem.resources
    ]
    resource_limits = [
        spec.budgets * (1.0 + tolerance) for spec in problem.resources
    ]
    bytes_fit = bool(np.all(loads <= limits + 1e-9))
    if bytes_fit and _worst_budget(resource_loads, resource_limits) is None:
        return placement
    if (
        not bytes_fit
        and problem.total_size > np.sum(limits[np.isfinite(limits)])
        and np.all(np.isfinite(limits))
    ):
        raise InfeasibleProblemError(
            "repair impossible: total object size exceeds total allowed load"
        )

    # Correlated neighbours as CSR; each object's slice lists them in
    # pair order, the order its deltas are summed in (a zero-weight
    # pair adds nothing to any of them).
    heads = problem.pair_index.ravel()
    order = np.argsort(heads, kind="stable")
    neighbours = problem.pair_index[:, ::-1].ravel()[order]
    weights = np.repeat(problem.pair_weights, 2)[order].tolist()
    bounds = np.searchsorted(heads[order], np.arange(problem.num_objects + 1))
    has_neighbours = np.diff(bounds) > 0
    bounds = bounds.tolist()

    # deltas[i, k]: cost change of moving object i from node
    # row_source[i] to node k.  Rows of objects without neighbours stay 0.
    deltas = np.zeros((problem.num_objects, problem.num_nodes))
    row_source = np.full(problem.num_objects, -1)

    def fill_row(obj: int, src: int) -> None:
        row = deltas[obj]
        row[:] = 0.0
        lo, hi = bounds[obj], bounds[obj + 1]
        for where, weight in zip(assignment[neighbours[lo:hi]].tolist(), weights[lo:hi]):
            if where == src:
                row += weight  # newly split, wherever obj goes
            else:
                row[where] -= weight  # newly co-located there
        row_source[obj] = src

    max_moves = 4 * problem.num_objects
    moves = 0
    while True:
        overloaded = np.where(loads > limits + 1e-9)[0]
        if overloaded.size:
            src = int(overloaded[np.argmax(loads[overloaded] - limits[overloaded])])
            members = np.where(assignment == src)[0]
            relief = problem.sizes[members]
            what = "overloaded node index"
        else:
            worst = _worst_budget(resource_loads, resource_limits)
            if worst is None:
                break
            spec, src = problem.resources[worst[0]], worst[1]
            members = np.where((assignment == src) & (spec.loads > 0))[0]
            relief = spec.loads[members]
            what = f"node index over its {spec.name!r} budget"
        moves += 1
        if moves > max_moves:
            raise InfeasibleProblemError(
                "capacity repair did not converge; capacities may be too tight"
            )
        stale = (row_source[members] != src) & has_neighbours[members]
        for obj in members[stale].tolist():
            fill_row(obj, src)

        # (member, destination) moves that would overflow the destination.
        blocked = loads + problem.sizes[members][:, None] > limits + 1e-9
        for rl, rlim, spec in zip(resource_loads, resource_limits, problem.resources):
            blocked |= rl + spec.loads[members][:, None] > rlim + 1e-9
        blocked[:, src] = True
        rows, dsts = np.nonzero(~blocked)
        if rows.size == 0:
            raise InfeasibleProblemError(
                f"capacity repair stuck: no destination can absorb any "
                f"object of {what} {src}"
            )
        # Rank by cost increase per unit relieved, preferring bigger
        # reliefs on ties (fewer total moves); np.nonzero's row-major
        # order breaks the rest by object index, then destination.
        ratio = deltas[members[rows], dsts] / relief[rows]
        best = ratio == ratio.min()
        best &= relief[rows] == relief[rows][best].max()
        pick = int(np.argmax(best))
        obj, dst = int(members[rows[pick]]), int(dsts[pick])

        assignment[obj] = dst
        loads[src] -= problem.sizes[obj]
        loads[dst] += problem.sizes[obj]
        for rl, spec in zip(resource_loads, problem.resources):
            rl[src] -= spec.loads[obj]
            rl[dst] += spec.loads[obj]
        # A row depends only on its source and its neighbours' nodes:
        # the moved object's row stays keyed to the node it left.
        row_source[neighbours[bounds[obj] : bounds[obj + 1]]] = -1

    return Placement(problem, assignment)


def _worst_budget(
    resource_loads: list[np.ndarray], resource_limits: list[np.ndarray]
) -> tuple[int, int] | None:
    """``(resource index, node)`` of the largest load-to-limit ratio
    among budgets overrun, or ``None`` when every budget holds.

    Ties go to the first resource, then the lowest node index; a load
    over a zero limit has an infinite ratio.
    """
    worst = None
    for r, (rl, rlim) in enumerate(zip(resource_loads, resource_limits)):
        over = np.flatnonzero(rl > rlim + 1e-9)
        if over.size == 0:
            continue
        with np.errstate(divide="ignore"):
            ratios = rl[over] / rlim[over]
        k = int(np.argmax(ratios))
        if worst is None or ratios[k] > worst[0]:
            worst = (ratios[k], r, int(over[k]))
    return None if worst is None else worst[1:]
