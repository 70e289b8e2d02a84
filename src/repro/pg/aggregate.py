"""Aggregate a problem to placement-group granularity and back.

The pg planner's pipeline is ``build_grouping`` (who is exact, who is
in which group) → ``aggregate_problem`` (a coarse
:class:`~repro.core.problem.PlacementProblem` over groups + exact
objects) → plan the coarse problem → ``expand_assignment`` (gather the
coarse answer back to one node index per object).

Aggregation is exact for the objective restricted to inter-coarse
pairs: group sizes are the sums of their members' sizes, a coarse
pair's weight is the summed ``r(i,j) * w(i,j)`` of the object pairs it
covers (stored as the coarse correlation with unit cost), and resource
loads sum the same way.  Intra-group pairs are dropped — their members
are co-located by construction, so they contribute zero cost in the
expanded placement.  All three steps are vectorized gathers/scatters
(coarse-index gather, packed int64 pair keys, ``np.unique`` +
``bincount``) and emit ``pg.build`` / ``pg.aggregate`` / ``pg.expand``
spans and journal records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.importance import top_important
from repro.core.problem import PlacementProblem
from repro.core.resources import ResourceSpec
from repro.pg.groups import PGMap, _group_key, pg_group, rendezvous_node


@dataclass(frozen=True)
class Grouping:
    """How one problem's objects fold into coarse planning units.

    Coarse object order: the non-empty groups in ascending group id,
    then the exact objects in importance order.  Group coarse ids are
    ``("pg", g)`` tuples so they can never collide with real object
    ids.

    Attributes:
        num_groups: Requested group count ``K``.
        exact_ids: Object ids kept exact, in importance order.
        exact_index: Their indices in the problem's object order.
        object_groups: ``(t,)`` group id per object, ``-1`` for exact
            objects.
        group_coarse: ``(K,)`` coarse index per group, ``-1`` for
            groups no object hashed into.
        coarse_of_object: ``(t,)`` coarse index per object.
        coarse_ids: Coarse object ids, in coarse index order.
    """

    num_groups: int
    exact_ids: tuple
    exact_index: np.ndarray
    object_groups: np.ndarray
    group_coarse: np.ndarray
    coarse_of_object: np.ndarray
    coarse_ids: tuple

    @property
    def num_coarse(self) -> int:
        return len(self.coarse_ids)

    @property
    def nonempty_groups(self) -> int:
        return int((self.group_coarse >= 0).sum())


def build_grouping(
    problem: PlacementProblem,
    groups: int,
    important: int = 0,
) -> Grouping:
    """Split a problem into exact objects and hashed placement groups.

    The top-``important`` objects by the paper's importance ranking
    (:func:`~repro.core.importance.top_important`) stay exact; every
    other object lands in ``pg_group(obj, groups)``.  Groups
    that end up empty are dropped from the coarse space (the coarse
    problem requires positive sizes) but keep their ids in the PG map.
    """
    if groups < 1:
        raise ValueError("groups must be at least 1")
    t = problem.num_objects
    with obs.span("pg.build", objects=t, groups=groups) as span:
        exact_ids = tuple(top_important(problem, min(important, t)))
        exact_index = np.fromiter(
            (problem.object_index(obj) for obj in exact_ids),
            dtype=np.int64,
            count=len(exact_ids),
        )
        object_groups = np.fromiter(
            (pg_group(obj, groups) for obj in problem.object_ids),
            dtype=np.int64,
            count=t,
        )
        object_groups[exact_index] = -1

        tail = object_groups >= 0
        counts = np.bincount(object_groups[tail], minlength=groups)
        nonempty = np.flatnonzero(counts > 0)
        group_coarse = np.full(groups, -1, dtype=np.int64)
        group_coarse[nonempty] = np.arange(nonempty.size, dtype=np.int64)

        coarse_of_object = np.empty(t, dtype=np.int64)
        coarse_of_object[tail] = group_coarse[object_groups[tail]]
        coarse_of_object[exact_index] = nonempty.size + np.arange(
            len(exact_ids), dtype=np.int64
        )
        coarse_ids = tuple(("pg", int(g)) for g in nonempty) + exact_ids
        span.set(nonempty=int(nonempty.size), exact=len(exact_ids))
        obs.record(
            "pg.build",
            objects=t,
            groups=groups,
            nonempty=int(nonempty.size),
            exact=len(exact_ids),
        )
    return Grouping(
        num_groups=groups,
        exact_ids=exact_ids,
        exact_index=exact_index,
        object_groups=object_groups,
        group_coarse=group_coarse,
        coarse_of_object=coarse_of_object,
        coarse_ids=coarse_ids,
    )


def aggregate_problem(
    problem: PlacementProblem, grouping: Grouping
) -> PlacementProblem:
    """The coarse problem over groups + exact objects.

    Sizes, pair weights, and resource loads aggregate by sum;
    intra-coarse pairs are dropped (co-located for free).  Node ids
    and capacities carry over unchanged, so a feasible coarse
    placement expands to a feasible object placement exactly.
    """
    c = grouping.num_coarse
    with obs.span(
        "pg.aggregate", objects=problem.num_objects, coarse=c
    ) as span:
        sizes = np.bincount(
            grouping.coarse_of_object, weights=problem.sizes, minlength=c
        )
        if problem.num_pairs:
            u = grouping.coarse_of_object[problem.pair_index[:, 0]]
            v = grouping.coarse_of_object[problem.pair_index[:, 1]]
            inter = u != v
            lo = np.minimum(u[inter], v[inter])
            hi = np.maximum(u[inter], v[inter])
            # Packed keys sort as (lo, hi) lexicographic, so the
            # unique'd coarse pairs come out canonically ordered.
            keys = lo * c + hi
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            weights = np.bincount(
                inverse,
                weights=problem.pair_weights[inter],
                minlength=unique_keys.size,
            )
            pair_index = np.stack(
                [unique_keys // c, unique_keys % c], axis=1
            ).astype(np.int64)
            dropped = int(problem.num_pairs - inter.sum())
        else:
            pair_index = np.empty((0, 2), dtype=np.int64)
            weights = np.empty(0, dtype=float)
            dropped = 0
        resources = tuple(
            ResourceSpec(
                name=spec.name,
                loads=np.bincount(
                    grouping.coarse_of_object,
                    weights=spec.loads,
                    minlength=c,
                ),
                budgets=spec.budgets.copy(),
            )
            for spec in problem.resources
        )
        coarse = PlacementProblem(
            object_ids=grouping.coarse_ids,
            sizes=sizes,
            node_ids=problem.node_ids,
            capacities=problem.capacities.copy(),
            pair_index=pair_index,
            # Summed pair weight rides in the correlation with unit
            # cost, so coarse pair_weights equal the covered object
            # pair weights exactly.
            correlations=weights,
            pair_costs=np.ones(len(weights)),
            resources=resources,
        )
        span.set(pairs=coarse.num_pairs, intra_dropped=dropped)
        obs.record(
            "pg.aggregate",
            coarse_objects=c,
            coarse_pairs=coarse.num_pairs,
            intra_dropped=dropped,
        )
    return coarse


def expand_assignment(grouping: Grouping, pg_map: PGMap) -> np.ndarray:
    """Object-level node indices for a PG map, as one vectorized gather.

    The inverse of aggregation: tail objects gather their group's node
    from ``pg_map.group_nodes``; exact objects look up their own
    entry.
    """
    t = grouping.object_groups.size
    with obs.span("pg.expand", objects=t, groups=grouping.num_groups):
        assignment = np.empty(t, dtype=np.int64)
        tail = grouping.object_groups >= 0
        assignment[tail] = pg_map.group_nodes[grouping.object_groups[tail]]
        for obj, i in zip(grouping.exact_ids, grouping.exact_index):
            assignment[i] = pg_map.exact_nodes[obj]
        obs.record(
            "pg.expand", objects=t, exact=len(grouping.exact_ids)
        )
    return assignment


def map_from_coarse(
    problem: PlacementProblem,
    grouping: Grouping,
    coarse_assignment: np.ndarray,
) -> PGMap:
    """A :class:`PGMap` from a coarse placement's assignment array.

    Empty groups (no member object, hence no coarse entry) still need
    a node for future objects hashing into them: they take their
    rendezvous winner over all nodes.
    """
    group_nodes = np.empty(grouping.num_groups, dtype=np.int64)
    all_nodes = range(problem.num_nodes)
    for g in range(grouping.num_groups):
        coarse = grouping.group_coarse[g]
        if coarse >= 0:
            group_nodes[g] = coarse_assignment[coarse]
        else:
            group_nodes[g] = rendezvous_node(_group_key(g), all_nodes, problem.node_ids)
    offset = grouping.nonempty_groups
    exact_nodes = {
        obj: int(coarse_assignment[offset + m])
        for m, obj in enumerate(grouping.exact_ids)
    }
    return PGMap(
        num_groups=grouping.num_groups,
        node_ids=problem.node_ids,
        group_nodes=group_nodes,
        exact_nodes=exact_nodes,
    )
