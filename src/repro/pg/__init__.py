"""Placement-group indirection: plan millions of objects via a small map.

See ``docs/SCALE.md``.  The public surface:

* :class:`PGMap` — the small, stable object→node map that
  ``repro pg`` writes.
* :func:`build_grouping` / :func:`aggregate_problem` /
  :func:`expand_assignment` / :func:`map_from_coarse` — the coarsening
  pipeline.
* :func:`plan_with_groups` — the ``"lprr:pg"`` registry planner.
"""

from repro.pg.aggregate import (
    Grouping,
    aggregate_problem,
    build_grouping,
    expand_assignment,
    map_from_coarse,
)
from repro.pg.groups import PGMap, pg_group, rendezvous_node
from repro.pg.planner import (
    DEFAULT_GROUPS,
    plan_with_groups,
    resolve_pg_scope,
)

__all__ = [
    "DEFAULT_GROUPS",
    "Grouping",
    "PGMap",
    "aggregate_problem",
    "build_grouping",
    "expand_assignment",
    "map_from_coarse",
    "pg_group",
    "plan_with_groups",
    "rendezvous_node",
    "resolve_pg_scope",
]
