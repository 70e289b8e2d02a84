"""The ``"lprr:pg"`` planner.

:func:`plan_with_groups` runs the paper's LPRR pipeline at
placement-group granularity: group the tail
(:func:`~repro.pg.aggregate.build_grouping`), aggregate
(:func:`~repro.pg.aggregate.aggregate_problem`), plan the coarse
problem through the ordinary ``"lprr"`` planner, then expand the
answer back to an object-level placement.  The LP sees ``K + M``
"objects" regardless of the real object count, which is what makes
million-object problems plannable on a laptop (see ``docs/SCALE.md``).
"""

from __future__ import annotations

from repro import obs
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
    aggregate_problem,
    build_grouping,
    expand_assignment,
    map_from_coarse,
)

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
        grouping = build_grouping(problem, spec.groups, spec.important)
        coarse = aggregate_problem(problem, grouping)
        inner = plan(coarse, "lprr", config.with_options(scope=None))
        pg_map = map_from_coarse(problem, grouping, inner.placement.assignment)
        diagnostics = {
            "groups": spec.groups,
            "nonempty_groups": grouping.nonempty_groups,
            "important": len(grouping.exact_ids),
            "coarse_objects": coarse.num_objects,
            "coarse_pairs": coarse.num_pairs,
            "coarse_lp_lower_bound": float(
                inner.diagnostics.get("lp_lower_bound", 0.0)
            ),
        }
        placement = Placement(
            problem, expand_assignment(grouping, pg_map)
        )
    return _finish(
        "lprr:pg", placement, span.duration, diagnostics, pg_map
    )
