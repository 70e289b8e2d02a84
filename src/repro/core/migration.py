"""Incremental re-optimization: migrating between placements.

The paper's premise is that correlations are "skewed and yet stable
over time", so a placement stays effective for long periods — but they
do drift (Figure 2B measures 1.2% of pairs changing per month).  A
deployment therefore periodically re-optimizes and must *migrate*
objects, which itself costs network traffic.

This module turns a (current placement, target placement) pair into an
executable :class:`MigrationPlan`, and — because full convergence may
move more bytes than a maintenance window allows — can select only the
most profitable subset of moves under a byte budget, ranked by marginal
communication saving per byte migrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.placement import Placement
from repro.core.problem import NodeId, ObjectId
from repro.exceptions import PlacementError


@dataclass(frozen=True)
class Migration:
    """One object move.

    Attributes:
        obj: The object to move.
        source: Node currently hosting it.
        destination: Node it moves to.
        size: Bytes moved (the object's size).
    """

    obj: ObjectId
    source: NodeId
    destination: NodeId
    size: float


@dataclass(frozen=True)
class MigrationPlan:
    """An ordered list of moves with its cost accounting.

    Attributes:
        migrations: Moves in execution order.
        bytes_moved: Total migration traffic.
        cost_before: Communication cost of the starting placement
            (under the problem the plan was computed against).
        cost_after: Communication cost after applying every move.
    """

    migrations: tuple[Migration, ...]
    bytes_moved: float
    cost_before: float
    cost_after: float

    @property
    def num_moves(self) -> int:
        """Number of objects moved."""
        return len(self.migrations)

    @property
    def saving(self) -> float:
        """Communication cost reduction the plan achieves."""
        return self.cost_before - self.cost_after

    def apply(self, placement: Placement) -> Placement:
        """Apply the plan to a placement (of the same problem shape).

        Raises:
            PlacementError: If a move's source does not match where the
                object actually is.
        """
        problem = placement.problem
        assignment = placement.assignment.copy()
        for move in self.migrations:
            i = problem.object_index(move.obj)
            if problem.node_ids[assignment[i]] != move.source:
                raise PlacementError(
                    f"cannot apply migration of {move.obj!r}: expected it on "
                    f"{move.source!r}, found {problem.node_ids[assignment[i]]!r}"
                )
            assignment[i] = problem.node_index(move.destination)
        return Placement(problem, assignment)


def diff_placements(current: Placement, target: Placement) -> MigrationPlan:
    """The full plan that turns ``current`` into ``target``.

    Both placements must be over the same problem (same objects, nodes,
    and sizes); costs are evaluated under ``target.problem`` so the
    plan reflects the *new* correlations after a drift-driven replan.
    """
    problem = target.problem
    if current.problem.object_ids != problem.object_ids or (
        current.problem.node_ids != problem.node_ids
    ):
        raise PlacementError("placements cover different objects or nodes")

    moves = []
    for i in np.where(current.assignment != target.assignment)[0]:
        moves.append(
            Migration(
                obj=problem.object_ids[i],
                source=problem.node_ids[current.assignment[i]],
                destination=problem.node_ids[target.assignment[i]],
                size=float(problem.sizes[i]),
            )
        )
    start = Placement(problem, current.assignment)
    return MigrationPlan(
        migrations=tuple(moves),
        bytes_moved=float(sum(m.size for m in moves)),
        cost_before=start.communication_cost(),
        cost_after=target.communication_cost(),
    )


def select_migrations(
    current: Placement,
    target: Placement,
    budget_bytes: float | None = None,
) -> MigrationPlan:
    """The most profitable budget-respecting subset of a full plan.

    Moves toward the target are applied greedily in order of marginal
    communication saving per byte moved, re-evaluated after every move
    (moving one member of a pair changes the gain of moving the other).
    Selection stops when the budget is exhausted or no remaining move
    helps.  A move whose destination lacks space at that point of the
    plan is skipped, and retried as space frees up.

    Args:
        current: Where objects are now.
        target: Where the (re-)optimizer wants them.
        budget_bytes: Maximum total migration traffic; None = unlimited
            (but still only moves with nonnegative marginal gain).

    Returns:
        A :class:`MigrationPlan` evaluated under ``target.problem``.
    """
    problem = target.problem
    if current.problem.object_ids != problem.object_ids or (
        current.problem.node_ids != problem.node_ids
    ):
        raise PlacementError("placements cover different objects or nodes")
    if budget_bytes is not None and budget_bytes < 0:
        raise ValueError("budget_bytes must be nonnegative")

    sizes = problem.sizes.tolist()
    targets = target.assignment.tolist()
    assignment = current.assignment.tolist()
    loads = np.bincount(
        current.assignment, weights=problem.sizes, minlength=problem.num_nodes
    ).tolist()
    limits = (problem.capacities + 1e-9).tolist()
    bounded = [math.isfinite(c) for c in problem.capacities.tolist()]
    budget_limit = None if budget_bytes is None else budget_bytes + 1e-9

    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(problem.num_objects)]
    for (i, j), weight in zip(problem.pair_index.tolist(), problem.pair_weights.tolist()):
        if weight > 0:
            adjacency[i].append((j, weight))
            adjacency[j].append((i, weight))

    # Each candidate's (gain, gain per byte) of moving to its target
    # now.  A gain reads only where the object's neighbours sit, so a
    # move drops just the moved object's neighbours' entries.
    scores: dict[int, tuple[float, float]] = {}

    def score(obj: int) -> tuple[float, float]:
        src, dst = assignment[obj], targets[obj]
        value = 0.0
        for neighbor, weight in adjacency[obj]:
            where = assignment[neighbor]
            if where == src:
                value -= weight  # colocated pair becomes split
            elif where == dst:
                value += weight  # split pair becomes colocated
        scores[obj] = value, value / sizes[obj]
        return scores[obj]

    candidates = set(np.where(current.assignment != target.assignment)[0].tolist())
    cost_before = Placement(problem, current.assignment).communication_cost()
    moves: list[Migration] = []
    moved_bytes = 0.0

    while candidates:
        best_obj, best_rate, best_gain = -1, -math.inf, 0.0
        for obj in candidates:
            size = sizes[obj]
            if budget_limit is not None and moved_bytes + size > budget_limit:
                continue
            dst = targets[obj]
            if bounded[dst] and loads[dst] + size > limits[dst]:
                continue
            g, rate = scores.get(obj) or score(obj)
            if rate > best_rate:
                best_obj, best_rate, best_gain = obj, rate, g
        if best_obj < 0 or best_gain < 0:
            break
        src, dst, size = assignment[best_obj], targets[best_obj], sizes[best_obj]
        moves.append(
            Migration(
                obj=problem.object_ids[best_obj],
                source=problem.node_ids[src],
                destination=problem.node_ids[dst],
                size=size,
            )
        )
        moved_bytes += size
        loads[src] -= size
        loads[dst] += size
        assignment[best_obj] = dst
        candidates.discard(best_obj)
        for neighbor, _weight in adjacency[best_obj]:
            scores.pop(neighbor, None)

    cost_after = Placement(problem, assignment).communication_cost()
    return MigrationPlan(
        migrations=tuple(moves),
        bytes_moved=moved_bytes,
        cost_before=cost_before,
        cost_after=cost_after,
    )
