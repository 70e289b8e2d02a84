"""The ``"lprr:pg"`` planner and PG-granular replan/repair helpers.

:func:`plan_with_groups` runs the paper's LPRR pipeline at
placement-group granularity: group the tail
(:func:`~repro.pg.aggregate.build_grouping`), aggregate
(:func:`~repro.pg.aggregate.aggregate_problem`), plan the coarse
problem through the ordinary ``"lprr"`` planner, then expand the
answer back to an object-level placement.  The LP sees ``K + M``
"objects" regardless of the real object count, which is what makes
million-object problems plannable on a laptop (see ``docs/SCALE.md``
and the ``pg`` bench case).

Plans cache under their own ``pgplan`` kind, keyed by the full
problem's fingerprint plus every grouping and LPRR knob — a PG plan
and an exact plan for the same problem can never collide.

:func:`select_group_migrations` and :func:`repair_lost_groups` compose
the map with :func:`~repro.core.migration.select_migrations` and the
:class:`~repro.resilience.repair.RepairOutcome` contract, so replans
and repairs move PG-granular byte volumes instead of bookkeeping a
million individual objects.
"""

from __future__ import annotations

import json

import numpy as np

from repro import obs
from repro.core.migration import (
    MigrationPlan,
    diff_placements,
    select_migrations,
)
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.core.strategies import (
    PlanConfig,
    PlanResult,
    PlanScope,
    _finish,
    plan,
)
from repro.pg.aggregate import (
    Grouping,
    aggregate_problem,
    build_grouping,
    expand_assignment,
    map_from_coarse,
)
from repro.pg.groups import PGMap

# Default group count when ``lprr:pg`` is invoked without a pg scope
# (e.g. ``repro place --strategy lprr:pg`` with no ``--pg-groups``).
DEFAULT_GROUPS = 1024


def resolve_pg_scope(
    problem: PlacementProblem, config: PlanConfig
) -> PlanScope:
    """The effective pg scope: the config's, or a clipped default."""
    spec = config.scope_spec
    if spec.kind == "pg":
        return spec
    return PlanScope.pg(
        groups=max(1, min(DEFAULT_GROUPS, problem.num_objects)), important=0
    )


def _pg_signature(config: PlanConfig, spec: PlanScope) -> str:
    """Cache signature covering every knob a pg plan depends on.

    ``jobs`` is deliberately absent — the parallel engine guarantees
    identical placements for every jobs value.
    """
    return json.dumps(
        {
            "scope": spec.signature(),
            "salt": config.hash_salt,
            "seed": config.seed,
            "rounding_trials": config.rounding_trials,
            "capacity_factor": config.capacity_factor,
            "capacity_tolerance": config.capacity_tolerance,
            "repair": config.repair,
        },
        sort_keys=True,
    )


def _load_cached_map(doc: dict, grouping: Grouping) -> PGMap | None:
    """Rebuild the cached PG map keyed by this problem's real ids."""
    try:
        stored = PGMap.from_dict(doc["pg_map"])
        exact = {
            obj: stored.exact_nodes[str(obj)] for obj in grouping.exact_ids
        }
        return PGMap(
            num_groups=stored.num_groups,
            salt=stored.salt,
            node_ids=stored.node_ids,
            group_nodes=stored.group_nodes,
            exact_nodes=exact,
            retired=stored.retired,
        )
    except Exception:  # noqa: BLE001 — corrupt cache degrades to a miss
        return None


def plan_with_groups(
    problem: PlacementProblem, *, config: PlanConfig = PlanConfig()
) -> PlanResult:
    """Plan through placement groups; the registry's ``"lprr:pg"``.

    Args:
        problem: The CCA instance (any size — the LP only ever sees
            the coarse problem).
        config: Planning knobs; ``config.scope`` should be a
            ``PlanScope.pg(K, M)`` (anything else falls back to
            ``K = min(1024, |T|)``, ``M = 0``).

    Returns:
        A :class:`PlanResult` with ``planner="lprr:pg"``, the expanded
        object-level placement, and the :class:`PGMap` in ``details``.
    """
    spec = resolve_pg_scope(problem, config)
    with obs.timed("plan", planner="lprr:pg") as span:
        cache = config.make_cache()
        key = None
        pg_map = None
        cached: dict | None = None
        if cache is not None:
            from repro.parallel.cache import (
                problem_fingerprint,
                signature_key,
            )

            key = signature_key(
                problem_fingerprint(problem), _pg_signature(config, spec)
            )
            cached = cache.load("pgplan", key)

        grouping = build_grouping(
            problem, spec.groups, spec.important, config.hash_salt
        )
        if cached is not None:
            pg_map = _load_cached_map(cached, grouping)

        diagnostics: dict = {
            "groups": spec.groups,
            "nonempty_groups": grouping.nonempty_groups,
            "important": len(grouping.exact_ids),
            "jobs": config.jobs,
        }
        if pg_map is not None:
            diagnostics["cache"] = "hit"
            diagnostics["coarse_objects"] = int(
                cached.get("coarse_objects", grouping.num_coarse)
            )
            diagnostics["coarse_pairs"] = int(cached.get("coarse_pairs", 0))
            diagnostics["coarse_lp_lower_bound"] = float(
                cached.get("coarse_lp_lower_bound", 0.0)
            )
        else:
            coarse = aggregate_problem(problem, grouping)
            inner = plan(coarse, "lprr", config.with_options(scope=None))
            pg_map = map_from_coarse(
                problem,
                grouping,
                inner.placement.assignment,
                salt=config.hash_salt,
            )
            diagnostics["cache"] = "off" if cache is None else "miss"
            diagnostics["coarse_objects"] = coarse.num_objects
            diagnostics["coarse_pairs"] = coarse.num_pairs
            diagnostics["coarse_lp_lower_bound"] = float(
                inner.diagnostics.get("lp_lower_bound", 0.0)
            )
            if cache is not None and key is not None:
                cache.store(
                    "pgplan",
                    key,
                    {
                        "pg_map": pg_map.to_dict(),
                        "coarse_objects": coarse.num_objects,
                        "coarse_pairs": coarse.num_pairs,
                        "coarse_lp_lower_bound": diagnostics[
                            "coarse_lp_lower_bound"
                        ],
                    },
                )

        placement = Placement(
            problem, expand_assignment(grouping, pg_map)
        )
    return _finish(
        "lprr:pg", placement, span.duration, diagnostics, pg_map
    )


# ----------------------------------------------------------------------
# PG-granular replanning and repair
# ----------------------------------------------------------------------
def _coarse_assignment(grouping: Grouping, pg_map: PGMap) -> np.ndarray:
    assignment = np.empty(grouping.num_coarse, dtype=np.int64)
    for g in np.flatnonzero(grouping.group_coarse >= 0):
        assignment[grouping.group_coarse[g]] = pg_map.group_nodes[g]
    offset = grouping.nonempty_groups
    for m, obj in enumerate(grouping.exact_ids):
        assignment[offset + m] = pg_map.exact_nodes[obj]
    return assignment


def _check_compatible(current: PGMap, target: PGMap) -> None:
    if (
        current.num_groups != target.num_groups
        or current.salt != target.salt
        or current.node_ids != target.node_ids
        or set(current.exact_nodes) != set(target.exact_nodes)
    ):
        raise ValueError(
            "PG maps disagree on grouping parameters; migrations need "
            "maps drawn from the same (groups, salt, exact set)"
        )


def select_group_migrations(
    problem: PlacementProblem,
    grouping: Grouping,
    current: PGMap,
    target: PGMap,
    budget_bytes: float | None = None,
) -> tuple[PGMap, MigrationPlan]:
    """Move toward a target PG map under a byte budget, group-wise.

    The coarse problem stands in for the real one, so
    :func:`~repro.core.migration.select_migrations` picks whole groups
    (or exact objects) by gain-per-byte — each selected move carries
    the group's full byte volume, which is exactly the PG-granular
    migration the online controller budgets for.

    Returns:
        ``(new_map, plan)`` — the map after applying the selected
        moves, and the coarse migration plan (object ids in the plan
        are coarse ids: ``("pg", g)`` tuples and exact object ids).
    """
    _check_compatible(current, target)
    coarse = aggregate_problem(problem, grouping)
    cur = Placement(coarse, _coarse_assignment(grouping, current))
    tgt = Placement(coarse, _coarse_assignment(grouping, target))
    migration = select_migrations(cur, tgt, budget_bytes=budget_bytes)
    applied = migration.apply(cur)
    new_map = map_from_coarse(
        problem,
        grouping,
        applied.assignment,
        salt=current.salt,
        fallback=current,
    )
    return new_map, migration


def repair_lost_groups(
    problem: PlacementProblem,
    pg_map: PGMap,
    failed,
    operations=(),
    grouping: Grouping | None = None,
):
    """Retire failed nodes and re-home their groups, as a repair.

    The PG analogue of
    :func:`~repro.resilience.repair.replace_lost_objects`: each failed
    node is retired from the map (rendezvous re-homes exactly its
    groups and exact objects), and the object-level difference is
    returned in the standard
    :class:`~repro.resilience.repair.RepairOutcome` shape — so chaos
    and availability tooling consume PG repairs unchanged.
    """
    from repro.cluster.failures import fail_nodes
    from repro.resilience.repair import RepairOutcome

    failed_set = {node for node in failed}
    operations = [tuple(op) for op in operations]
    before = pg_map.expand(problem, grouping)
    if not failed_set:
        return RepairOutcome(
            plan=diff_placements(before, before),
            placement=before,
            failed_nodes=(),
            lost_objects=(),
            availability_before=1.0,
            availability_after=1.0,
        )
    with obs.span("pg.repair", failed=len(failed_set)):
        new_map = pg_map
        for node in sorted(failed_set, key=repr):
            new_map = new_map.remove_node(node)
        after = new_map.expand(problem, grouping)
        plan_ = diff_placements(before, after)
        moved = np.flatnonzero(before.assignment != after.assignment)
        obs.record(
            "pg.repair",
            failed=len(failed_set),
            moves=plan_.num_moves,
            bytes=round(float(plan_.bytes_moved), 9),
        )
    return RepairOutcome(
        plan=plan_,
        placement=after,
        failed_nodes=tuple(sorted(failed_set, key=repr)),
        lost_objects=tuple(problem.object_ids[i] for i in moved),
        availability_before=fail_nodes(
            before, failed_set, operations
        ).operation_availability,
        availability_after=fail_nodes(
            after, failed_set, operations
        ).operation_availability,
    )
