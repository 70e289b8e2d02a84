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

import json
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.core.greedy import greedy_placement
from repro.core.hashing import hash_node
from repro.core.importance import top_important
from repro.core.lp import FractionalPlacement, LPStats, pack_components
from repro.core.placement import Placement
from repro.core.problem import ObjectId, PlacementProblem
from repro.core.repair import repair_capacity
from repro.core.rounding import RoundingResult, round_best_of

if TYPE_CHECKING:  # imported lazily at runtime (repro.parallel imports core)
    from repro.parallel.cache import PlanCache


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
        from_cache: Whether this result was served from a
            :class:`~repro.parallel.cache.PlanCache` instead of being
            computed (packing and rounding were skipped).
    """

    placement: Placement
    scope_objects: tuple[ObjectId, ...]
    lp_lower_bound: float
    lp_stats: LPStats
    rounding: RoundingResult
    effective_capacities: np.ndarray
    repaired: bool
    from_cache: bool = False

    @property
    def cost(self) -> float:
        """Communication cost of the final total placement."""
        return self.placement.communication_cost()

    def to_dict(self) -> dict:
        """JSON-ready form (see :mod:`repro.core.serialization`)."""
        from repro.core.serialization import lprr_result_to_dict

        return lprr_result_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict, problem: PlacementProblem) -> "LPRRResult":
        """Rebuild from :meth:`to_dict` output against its problem."""
        from repro.core.serialization import lprr_result_from_dict

        return lprr_result_from_dict(data, problem)


class LPRRPlanner:
    """Correlation-aware planner: relaxation optimum + randomized rounding.

    Args:
        scope: Number of most-important objects to optimize; ``None``
            optimizes all objects (no partial optimization).
        capacity_factor: Conservative capacity as a multiple of the
            average per-node load of the optimized objects.  The paper
            uses 2.0.  ``None`` uses the problem's own capacities.
        rounding_trials: Randomized-rounding repetitions; the cheapest
            capacity-respecting trial wins (Section 2.3).
        capacity_tolerance: Relative slack when judging a rounding
            trial feasible (Theorem 3 only bounds the *expected* load).
        seed: Seed for the rounding randomness.
        hash_salt: Salt for the out-of-scope hash placement.
        repair: When True (default), a rounded placement that exceeds
            the effective capacities beyond ``capacity_tolerance`` is
            repaired by minimum-cost migrations (an engineering
            addition beyond the paper; see :mod:`repro.core.repair`).
        jobs: Execution engine selector.  ``None`` (default) is the
            legacy serial rounding stream.  Any integer ``>= 1``
            selects the deterministic parallel engine: rounding trials
            use per-trial seeds spawned from ``seed``, run inline when
            ``jobs == 1`` and on a process pool of that size when
            larger — the placement is identical for every ``jobs``
            value.  Negative means one worker per CPU.
        cache: Optional :class:`~repro.parallel.cache.PlanCache`.  When
            set, whole plans are memoized by problem fingerprint +
            configuration signature; a replan of an unchanged problem
            returns the stored result flagged ``from_cache=True``.  A
            cached artifact that parses but no longer deserializes
            (half-written, schema drift) degrades to a miss
            (``cache.corrupt`` counter) instead of failing the plan.

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
        hash_salt: str = "",
        repair: bool = True,
        jobs: int | None = None,
        cache: "PlanCache | None" = None,
    ):
        if scope is not None and scope < 1:
            raise ValueError("scope must be positive (or None for full scope)")
        if capacity_factor is not None and capacity_factor <= 0:
            raise ValueError("capacity_factor must be positive")
        self.scope = scope
        self.capacity_factor = capacity_factor
        self.rounding_trials = rounding_trials
        self.capacity_tolerance = capacity_tolerance
        self.seed = seed
        self.hash_salt = hash_salt
        self.repair = repair
        self.jobs = jobs
        self.cache = cache

    def _signature(self) -> str:
        """Canonical configuration signature for cache keying.

        ``jobs`` itself is excluded: within one engine the result is
        worker-count-independent by construction, so plans computed at
        any parallelism are interchangeable.  The *engine* is included
        because the legacy sequential-stream path and the spawned-seed
        path round differently for the same seed.
        """
        knobs = {
            "scope": self.scope,
            "capacity_factor": self.capacity_factor,
            "rounding_trials": self.rounding_trials,
            "capacity_tolerance": self.capacity_tolerance,
            "seed": self.seed,
            "hash_salt": self.hash_salt,
            "repair": self.repair,
            # "spawned-seeds-batched" invalidates caches written by the
            # pre-batched engine, whose trials drew rounds one at a time
            # instead of in pre-drawn blocks.
            "engine": "legacy" if self.jobs is None else "spawned-seeds-batched",
        }
        return json.dumps(knobs, sort_keys=True)

    def plan(self, problem: PlacementProblem) -> LPRRResult:
        """Compute a correlation-aware placement for ``problem``.

        With a cache configured, a fingerprint hit returns the stored
        result (``from_cache=True``) without packing or rounding;
        otherwise the freshly planned result is stored before
        returning.
        """
        if self.cache is None:
            return self._plan(problem)

        from repro.parallel.cache import problem_fingerprint, signature_key

        key = signature_key(problem_fingerprint(problem), self._signature())
        doc = self.cache.load("plan", key)
        if doc is not None:
            try:
                with obs.span("lprr.plan.cached", objects=problem.num_objects):
                    result = replace(
                        LPRRResult.from_dict(doc, problem), from_cache=True
                    )
            except Exception:
                # A parseable-but-wrong artifact (half-written store,
                # schema drift) must not poison every warm replan:
                # degrade to a miss and solve fresh.
                obs.counter("cache.corrupt").inc()
                obs.counter("cache.plan.corrupt").inc()
            else:
                obs.counter("lprr.plans").inc()
                return result
        result = self._plan(problem)
        self.cache.store("plan", key, result.to_dict())
        return result

    def _round(self, fractional: FractionalPlacement) -> RoundingResult:
        """Best-of-``k`` rounding via the engine selected by ``jobs``."""
        if self.jobs is None:
            return round_best_of(
                fractional,
                trials=self.rounding_trials,
                rng=self.seed,
                capacity_tolerance=self.capacity_tolerance,
            )
        from repro.parallel import parallel_round_best_of

        return parallel_round_best_of(
            fractional,
            trials=self.rounding_trials,
            root_seed=self.seed,
            jobs=self.jobs,
            capacity_tolerance=self.capacity_tolerance,
        )

    def _plan(self, problem: PlacementProblem) -> LPRRResult:
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
                scoped_ids = top_important(problem, scope)
                scoped_set = set(scoped_ids)

            assignment = np.empty(problem.num_objects, dtype=np.int64)
            with obs.span(
                "lprr.hash", out_of_scope=problem.num_objects - len(scoped_set)
            ):
                for i, obj in enumerate(problem.object_ids):
                    if obj not in scoped_set:
                        assignment[i] = hash_node(
                            obj, problem.num_nodes, self.hash_salt
                        )

            capacities = self._effective_capacities(problem, scoped_ids)
            subproblem = problem.subproblem(scoped_ids, capacities=capacities)
            fractional = pack_components(subproblem)
            rounding = self._round(fractional)
            scoped_placement = rounding.placement
            repaired = False
            if self.repair and not scoped_placement.is_feasible(
                self.capacity_tolerance
            ):
                # Theorem 3 only holds in expectation; this draw violated
                # the conservative capacities, so the paper's algorithm
                # gives no further guidance.  Take the cheaper of two
                # capacity-respecting completions: minimum-cost repair of
                # the rounded placement, or the greedy heuristic run on the
                # same scoped subproblem.
                with obs.span("lprr.repair"):
                    candidates = [
                        repair_capacity(
                            scoped_placement, tolerance=self.capacity_tolerance
                        )
                    ]
                    greedy = greedy_placement(subproblem)
                    if greedy.is_feasible(self.capacity_tolerance):
                        candidates.append(greedy)
                    scoped_placement = min(
                        candidates, key=lambda p: p.communication_cost()
                    )
                    repaired = True

            for local_i, obj in enumerate(subproblem.object_ids):
                assignment[problem.object_index(obj)] = scoped_placement.assignment[
                    local_i
                ]

            placement = Placement(problem, assignment)
            plan_span.set(
                repaired=repaired,
                lp_lower_bound=fractional.lower_bound,
                cost=placement.communication_cost(),
            )
        obs.counter("lprr.plans").inc()
        return LPRRResult(
            placement=placement,
            scope_objects=tuple(scoped_ids),
            lp_lower_bound=fractional.lower_bound,
            lp_stats=fractional.stats,
            rounding=rounding,
            effective_capacities=capacities,
            repaired=repaired,
        )

    def _effective_capacities(
        self, problem: PlacementProblem, scoped_ids: list[ObjectId]
    ) -> np.ndarray:
        """Capacities for the scoped LP.

        With a capacity factor, each node gets ``factor * (scoped
        load / n)``, i.e. the paper's "no more than <factor> times the
        average per-node load".  Without one, the problem's own
        capacities are used verbatim.
        """
        n = problem.num_nodes
        if self.capacity_factor is None:
            return problem.capacities.copy()
        scoped_size = float(sum(problem.size_of(o) for o in scoped_ids))
        per_node = self.capacity_factor * scoped_size / n
        # The factor must leave room for all scoped objects in total.
        largest = max((problem.size_of(o) for o in scoped_ids), default=0.0)
        return np.full(n, max(per_node, largest))
