"""repro — Correlation-Aware Object Placement for Multi-Object Operations.

A faithful reproduction of Zhong, Shen & Seiferas (ICDCS 2008): the
Capacity-Constrained Assignment problem, its LP relaxation with
randomized rounding (LPRR), the baselines it was evaluated against,
and the full-text-search case study used in the paper's evaluation.

Quick start::

    from repro import PlacementProblem, PlanConfig, plan

    problem = PlacementProblem.build(
        objects={"car": 4.0, "dealer": 3.0, "software": 5.0, "download": 2.0},
        nodes={0: 8.0, 1: 8.0},
        correlations={("car", "dealer"): 0.30, ("software", "download"): 0.25},
    )
    result = plan(problem, "lprr", PlanConfig(seed=0))
    baseline = plan(problem, "hash")
    print(result.cost, baseline.cost)
"""

from repro.core import (
    ExactSolution,
    FractionalPlacement,
    LPRRPlanner,
    LPRRResult,
    Migration,
    MigrationPlan,
    LPStats,
    PairData,
    Placement,
    PlacementLP,
    PlacementProblem,
    PlanConfig,
    Planner,
    PlanResult,
    PlanScope,
    ResourceSpec,
    RoundingResult,
    available_planners,
    build_placement_lp,
    cooccurrence_correlations,
    get_planner,
    greedy_placement,
    hash_node,
    importance_ranking,
    importance_scores,
    diff_placements,
    min_size_pair_cost,
    pack_components,
    plan,
    random_hash_placement,
    register_planner,
    repair_capacity,
    round_best_of,
    round_fractional,
    scoped_placement,
    select_migrations,
    solve_exact,
    solve_placement_lp,
    top_important,
    two_smallest_correlations,
    union_largest_correlations,
)
from repro import obs
from repro.cluster import Topology, synthetic_topology
from repro.pg import PGMap
from repro.exceptions import (
    InfeasibleProblemError,
    PlacementError,
    ProblemDefinitionError,
    ReplicationError,
    ReproError,
    SolverError,
    TraceFormatError,
)

__version__ = "12.0.0"

__all__ = [
    "ExactSolution",
    "FractionalPlacement",
    "InfeasibleProblemError",
    "LPRRPlanner",
    "LPRRResult",
    "Migration",
    "MigrationPlan",
    "LPStats",
    "PGMap",
    "PairData",
    "Placement",
    "PlacementError",
    "PlacementLP",
    "PlacementProblem",
    "PlanConfig",
    "PlanResult",
    "PlanScope",
    "Planner",
    "ResourceSpec",
    "ProblemDefinitionError",
    "ReplicationError",
    "ReproError",
    "RoundingResult",
    "SolverError",
    "Topology",
    "TraceFormatError",
    "available_planners",
    "build_placement_lp",
    "cooccurrence_correlations",
    "get_planner",
    "greedy_placement",
    "hash_node",
    "obs",
    "importance_ranking",
    "importance_scores",
    "diff_placements",
    "min_size_pair_cost",
    "pack_components",
    "plan",
    "random_hash_placement",
    "register_planner",
    "repair_capacity",
    "round_best_of",
    "round_fractional",
    "scoped_placement",
    "select_migrations",
    "solve_exact",
    "solve_placement_lp",
    "synthetic_topology",
    "top_important",
    "two_smallest_correlations",
    "union_largest_correlations",
    "__version__",
]
