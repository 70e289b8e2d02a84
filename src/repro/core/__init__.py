"""The paper's primary contribution: correlation-aware object placement.

This subpackage contains the Capacity-Constrained Assignment (CCA)
problem model, the LP relaxation and randomized rounding of the paper's
LPRR algorithm, the baselines it is evaluated against (random hashing
and the greedy correlation-aware heuristic), the important-object
partial-optimization machinery, and an exact solver for small instances
(the Figure 4 integer program under HiGHS MILP).  The paper's
NP-hardness reduction from minimum multiway cut is executable in
``tests/test_core_multiway_cut.py``.
"""

from repro.core.correlation import (
    CorrelationEstimator,
    cooccurrence_correlations,
    two_smallest_correlations,
    union_largest_correlations,
)
from repro.core.decompose import UnionFind, component_groups, correlation_components
from repro.core.exact import ExactSolution, solve_exact
from repro.core.greedy import greedy_placement
from repro.core.hashing import hash_node, random_hash_placement
from repro.core.importance import importance_ranking, importance_scores, top_important
from repro.core.local_search import local_search_placement
from repro.core.lp import (
    FractionalPlacement,
    LPStats,
    PlacementLP,
    build_placement_lp,
    pack_components,
    solve_placement_lp,
)
from repro.core.lprr import LPRRPlanner, LPRRResult
from repro.core.migration import (
    Migration,
    MigrationPlan,
    diff_placements,
    select_migrations,
)
from repro.core.partial import scoped_placement
from repro.core.placement import Placement
from repro.core.problem import PairData, PlacementProblem, min_size_pair_cost
from repro.core.repair import repair_capacity
from repro.core.replication import (
    ReplicatedPlacement,
    greedy_replicated_placement,
    replicate_hash,
    spread_replicated_placement,
    spread_violations,
)
from repro.core.resources import ResourceSpec
from repro.core.rounding import (
    RoundingResult,
    round_best_of,
    round_fractional,
)
from repro.core.spectral import spectral_placement
from repro.core.strategies import (
    PlanConfig,
    Planner,
    PlanResult,
    PlanScope,
    available_planners,
    best_fit_decreasing_placement,
    get_planner,
    plan,
    register_planner,
    round_robin_placement,
)

__all__ = [
    "CorrelationEstimator",
    "ExactSolution",
    "FractionalPlacement",
    "LPRRPlanner",
    "LPRRResult",
    "Migration",
    "MigrationPlan",
    "LPStats",
    "PairData",
    "PlacementLP",
    "Placement",
    "PlacementProblem",
    "PlanConfig",
    "PlanResult",
    "PlanScope",
    "Planner",
    "ReplicatedPlacement",
    "ResourceSpec",
    "available_planners",
    "best_fit_decreasing_placement",
    "component_groups",
    "correlation_components",
    "build_placement_lp",
    "cooccurrence_correlations",
    "diff_placements",
    "get_planner",
    "greedy_placement",
    "greedy_replicated_placement",
    "hash_node",
    "importance_ranking",
    "importance_scores",
    "local_search_placement",
    "min_size_pair_cost",
    "pack_components",
    "plan",
    "random_hash_placement",
    "register_planner",
    "repair_capacity",
    "replicate_hash",
    "round_best_of",
    "round_fractional",
    "round_robin_placement",
    "scoped_placement",
    "select_migrations",
    "RoundingResult",
    "UnionFind",
    "solve_exact",
    "solve_placement_lp",
    "spectral_placement",
    "spread_replicated_placement",
    "spread_violations",
    "top_important",
    "two_smallest_correlations",
    "union_largest_correlations",
]
