"""LPRR: the paper's end-to-end placement pipeline.

``LPRRPlanner`` composes the pieces of Sections 2–3 the way the
evaluation (Section 4) runs them:

1. Rank objects by importance and keep the top ``scope`` (Section 3.1,
   important-object partial optimization).
2. Place every out-of-scope object by random MD5 hashing.
3. Build conservative per-node capacities for the in-scope LP — the
   paper uses twice the average per-node load (Section 4.1).
4. Take an optimum of the relaxed LP (Section 2.2) in closed form —
   correlation components packed into node capacity
   (:func:`~repro.core.lp.pack_components`, DESIGN.md §5.1) — and round
   it with best-of-``k`` randomized rounding (Algorithm 2.1, Section
   2.3), repairing a draw that overflows the capacities.
5. Merge the two partial placements into a total placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.greedy import greedy_placement
from repro.core.lp import LPStats, pack_components
from repro.core.partial import (
    hash_rest,
    scoped_capacities,
    scoped_subproblem,
    split_scope,
)
from repro.core.placement import Placement
from repro.core.problem import ObjectId, PlacementProblem
from repro.core.repair import repair_capacity
from repro.core.rounding import RoundingResult, round_best_of
from repro.exceptions import InfeasibleProblemError


@dataclass(frozen=True)
class LPRRResult:
    """Everything produced by one LPRR planning run.

    Attributes:
        placement: Total placement over the full problem.
        scope_objects: Object ids that went through the relaxation.
        lp_lower_bound: LP optimum of the scoped subproblem — the
            expected rounded cost over in-scope pairs (Theorem 2); 0
            for the packed closed form.
        lp_stats: Size and packing time of the fractional placement.
        rounding: Details of the randomized-rounding trials.
        effective_capacities: The conservative per-node capacities the
            LP actually used.
        repaired: Whether the rounded placement violated the effective
            capacities and was post-processed by
            :func:`repro.core.repair.repair_capacity`.
    """

    placement: Placement
    scope_objects: tuple[ObjectId, ...]
    lp_lower_bound: float
    lp_stats: LPStats
    rounding: RoundingResult
    effective_capacities: np.ndarray
    repaired: bool

    @property
    def cost(self) -> float:
        """Communication cost of the final total placement."""
        return self.placement.communication_cost()


class LPRRPlanner:
    """Correlation-aware planner: relaxation optimum + randomized rounding.

    Args:
        scope: Number of most-important objects to optimize; ``None``
            optimizes all objects (no partial optimization).
        capacity_factor: Conservative capacity as a multiple of the
            average per-node load of the optimized objects.  The paper
            uses 2.0.  ``None`` uses the problem's own capacities.
        rounding_trials: Randomized-rounding repetitions (Section
            2.3).  On the packed vertex every draw costs exactly 0;
            trials differ only in which node each split component
            lands on, so best-of-``k`` keeps the first
            capacity-respecting draw.  When no draw fits (20 of the 24
            ``offline_lprr`` benchmark plans at seed 1), repair decides
            the plan.
        capacity_tolerance: Relative slack when judging a rounding
            trial feasible (Theorem 3 only bounds the *expected* load);
            must be finite and nonnegative.
        seed: Seed for the rounding randomness.

    Example:
        >>> import numpy as np
        >>> problem = PlacementProblem.build(
        ...     {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0},
        ...     {0: 2.0, 1: 2.0},
        ...     {("a", "b"): 0.5, ("c", "d"): 0.5},
        ... )
        >>> result = LPRRPlanner(seed=0).plan(problem)
        >>> result.cost
        0.0
    """

    def __init__(
        self,
        scope: int | None = None,
        capacity_factor: float | None = 2.0,
        rounding_trials: int = 10,
        capacity_tolerance: float = 0.05,
        seed: int | None = None,
    ):
        if scope is not None and scope < 1:
            raise ValueError("scope must be positive (or None for full scope)")
        if capacity_factor is not None and capacity_factor <= 0:
            raise ValueError("capacity_factor must be positive")
        if not 0.0 <= capacity_tolerance < math.inf:
            raise ValueError(
                f"capacity_tolerance must be finite and nonnegative, "
                f"got {capacity_tolerance!r}"
            )
        self.scope = scope
        self.capacity_factor = capacity_factor
        self.rounding_trials = rounding_trials
        self.capacity_tolerance = capacity_tolerance
        self.seed = seed

    def plan(self, problem: PlacementProblem) -> LPRRResult:
        """Compute a correlation-aware placement for ``problem``."""
        scope = problem.num_objects if self.scope is None else min(
            self.scope, problem.num_objects
        )
        with obs.span(
            "lprr.plan",
            objects=problem.num_objects,
            nodes=problem.num_nodes,
            scope=scope,
        ) as plan_span:
            with obs.span("lprr.scope"):
                scoped, rest = split_scope(problem, scope)
            with obs.span("lprr.hash", out_of_scope=len(rest)):
                assignment = hash_rest(problem, rest)

            capacities = self._effective_capacities(problem, scoped)
            subproblem = scoped_subproblem(problem, scoped, capacities)
            fractional = pack_components(subproblem)
            rounding = round_best_of(
                fractional,
                trials=self.rounding_trials,
                rng=self.seed,
                capacity_tolerance=self.capacity_tolerance,
            )
            scoped_placement = rounding.placement
            repaired = False
            if not scoped_placement.is_feasible(self.capacity_tolerance):
                # Theorem 3 only holds in expectation; this draw violated
                # the conservative capacities, so the paper's algorithm
                # gives no further guidance.  Take the cheaper of two
                # capacity-respecting completions: minimum-cost repair of
                # the rounded placement, or the greedy heuristic run on the
                # same scoped subproblem.  Repair moves one object at a
                # time and cannot swap, so it can get stuck where the
                # greedy completion fits; it fails the plan only when
                # greedy does not fit either.
                with obs.span("lprr.repair"):
                    greedy = greedy_placement(subproblem)
                    candidates = (
                        [greedy] if greedy.is_feasible(self.capacity_tolerance) else []
                    )
                    try:
                        candidates.insert(
                            0,
                            repair_capacity(
                                scoped_placement, tolerance=self.capacity_tolerance
                            ),
                        )
                    except InfeasibleProblemError:
                        if not candidates:
                            raise
                    scoped_placement = min(
                        candidates, key=lambda p: p.communication_cost()
                    )
                    repaired = True

            assignment[scoped] = scoped_placement.assignment
            placement = Placement(problem, assignment)
            plan_span.set(
                repaired=repaired,
                lp_lower_bound=fractional.lower_bound,
                cost=placement.communication_cost(),
            )
        obs.counter("lprr.plans").inc()
        return LPRRResult(
            placement=placement,
            scope_objects=subproblem.object_ids,
            lp_lower_bound=fractional.lower_bound,
            lp_stats=fractional.stats,
            rounding=rounding,
            effective_capacities=capacities,
            repaired=repaired,
        )

    def _effective_capacities(
        self, problem: PlacementProblem, scoped: np.ndarray
    ) -> np.ndarray:
        """Capacities for the scoped LP.

        With a capacity factor, each node gets ``factor * (scoped
        load / n)``, i.e. the paper's "no more than <factor> times the
        average per-node load", and never less than the largest scoped
        object, so the factor leaves room for all of them in total.
        Without one, the problem's own capacities are used verbatim.
        """
        return scoped_capacities(problem, scoped, self.capacity_factor)
