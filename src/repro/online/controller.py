"""The online control loop: ingest, estimate, detect drift, replan.

:class:`OnlinePlanner` turns the offline LPRR pipeline into a
continuously-running daemon over timestamped operation streams:

1. **Ingest** — tumbling periods of operations are folded into a
   memory-bounded co-occurrence estimate
   (:class:`~repro.online.sketch.SketchCorrelationEstimator`), aged
   exponentially so old correlations fade.
2. **Detect** — each period ends with a
   :class:`~repro.online.drift.DriftDetector` verdict: top-K pair
   churn and estimated-cost inflation against the last replan.
3. **Replan** — on drift, a placement problem is built from the
   heavy-hitter pairs and planned through
   :func:`~repro.resilience.healing.plan_with_fallbacks`, scoped to
   the heavy-hitter *objects* (the paper's important-object partial
   optimization — everything else stays put).
4. **Migrate** — the new plan is applied through
   :func:`~repro.core.migration.select_migrations` under a per-period
   migration-byte budget, so convergence never floods the network.
   When a budget truncates the plan, the unapplied remainder is
   carried into following stable periods (one budget's worth each, as
   ``"migrate"`` decisions) until the target is reached or no
   remaining move is profitable under the fresh estimate.

Every decision is recorded in a :class:`PeriodDecision` and surfaced
in an :class:`OnlineReport` whose JSON is a pure function of the seed
and the stream — no wall-clock ever enters, so same-seed runs are
byte-identical.  Spans (``online.run`` > ``online.period`` >
``online.replan``) and metrics (``online.periods``, ``online.replans``,
``online.operations``, ``online.migrated_bytes``,
``online.sketch_cells``) flow through :mod:`repro.obs`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Hashable, Iterable, Mapping

import numpy as np

from repro import obs
from repro.core.migration import select_migrations
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.core.strategies import PlanConfig, PlanResult
from repro.online.drift import DriftDecision, DriftDetector, DriftThresholds
from repro.online.sketch import SketchCorrelationEstimator
from repro.online.windows import StreamPeriod, tumbling_periods

ObjectId = Hashable

ONLINE_REPORT_SCHEMA = "repro.online.report/v1"


def heavy_hitter_plan(
    problem: PlacementProblem, *, config: PlanConfig = PlanConfig()
) -> PlanResult:
    """Plan a problem scoped to the objects of its correlated pairs.

    This is the controller's planner: the problem's pair set is assumed
    already pruned to the heavy hitters (that is what the sketch
    estimate *is*), so the optimization scope is
    exactly the objects appearing in some pair — out-of-scope objects
    are hashed by the inner planner, which is how the controller's
    bootstrap gives cold objects their first node (its replans pass
    only the paired objects).
    Planning itself runs through the resilient fallback chain, so a
    failing planner degrades the plan instead of stalling the loop.

    Args:
        problem: The CCA instance (typically built from sketch
            estimates).
        config: Planning knobs; an integer ``config.scope`` (or a
            ``PlanScope`` ``top``) further caps the heavy-object
            scope, and a ``PlanScope.pg`` scope passes through to the
            placement-group planner unchanged.

    Returns:
        A :class:`PlanResult` with ``planner="online"`` and
        ``diagnostics["heavy_objects"]`` recording the scope used.
    """
    from dataclasses import replace

    from repro.resilience.healing import plan_with_fallbacks

    scope = int(np.unique(problem.pair_index).size)
    spec = config.scope_spec
    if spec.kind == "pg":
        result = plan_with_fallbacks(problem, config=config)
    else:
        if spec.top is not None:
            scope = min(scope, spec.top)
        result = plan_with_fallbacks(
            problem, config=config.with_options(scope=scope)
        )
    diagnostics = {**result.diagnostics, "heavy_objects": scope}
    return replace(result, planner="online", diagnostics=diagnostics)


def _replan_target(
    problem: PlacementProblem, current: np.ndarray, config: PlanConfig
) -> tuple[PlanResult, np.ndarray]:
    """Plan only the objects of ``problem``'s pairs; the rest stay put.

    The paired objects, in index order, form the subproblem that
    :func:`heavy_hitter_plan` plans; every other object keeps its node
    in ``current``, so a hash placement of cold objects cannot eat the
    migration budget.

    Returns:
        The subproblem's plan and the full target assignment.
    """
    paired = np.unique(problem.pair_index)
    result = heavy_hitter_plan(
        problem.subproblem([problem.object_ids[i] for i in paired.tolist()]),
        config=config,
    )
    target = current.copy()
    target[paired] = result.placement.assignment
    return result, target


@dataclass(frozen=True)
class OnlineConfig:
    """Everything the online control loop can be told.

    Attributes:
        num_nodes: Placement nodes (uniform, capacity-unconstrained;
            the planner's ``capacity_factor`` still balances load).
        window_s: Tumbling period length in seconds.
        sketch_width: Count-Min row width of the estimator.
        sketch_depth: Count-Min rows of the estimator.
        heavy_hitters: Space-Saving capacity (the top-K pair budget).
        decay: Per-period history multiplier in ``(0, 1]``, applied to
            the estimator after each period; 1 never forgets.
        min_support: Minimum (decayed) pair count for an estimate to
            enter the placement problem.
        seed: Seed for the sketch hashing (planning seeds live in
            ``planning.seed``).
        thresholds: Drift triggers.
        budget_fraction: Per-replan migration budget as a fraction of
            total object size.
        planning: Knobs forwarded to the fallback-chain planner.
    """

    num_nodes: int
    window_s: float = 3600.0
    sketch_width: int = 1024
    sketch_depth: int = 4
    heavy_hitters: int = 256
    decay: float = 1.0
    min_support: int = 1
    seed: int = 0
    thresholds: DriftThresholds = field(default_factory=DriftThresholds)
    budget_fraction: float = 0.05
    planning: PlanConfig = field(default_factory=PlanConfig)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be at least 1")
        if not (math.isfinite(self.window_s) and self.window_s > 0):
            raise ValueError(
                f"window_s must be positive and finite, got {self.window_s!r}"
            )
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        if self.budget_fraction < 0:
            raise ValueError("budget_fraction must be nonnegative")


@dataclass(frozen=True)
class PeriodDecision:
    """What the controller did with one stream period.

    Attributes:
        period: Zero-based period index.
        start_s: Period start time.
        end_s: Period end time.
        operations: Operations ingested this period.
        tracked_pairs: Pairs in the estimate after ingestion.
        action: ``"observe"`` (no placement change), ``"bootstrap"``
            (initial plan), ``"replan"`` (drift-triggered), or
            ``"migrate"`` (resuming a budget-truncated migration
            during a stable period).
        drift: The drift verdict (None before bootstrap).
        planner: Delegate planner that produced the plan (bootstrap /
            replan periods only).
        moves: Objects migrated this period.
        bytes_moved: Migration traffic this period.
        budget_bytes: The period's migration budget (replan / migrate
            periods only).
        cost_estimate: Placement cost under the period's estimate,
            after any migration.
    """

    period: int
    start_s: float
    end_s: float
    operations: int
    tracked_pairs: int
    action: str
    drift: DriftDecision | None = None
    planner: str | None = None
    moves: int = 0
    bytes_moved: float = 0.0
    budget_bytes: float | None = None
    cost_estimate: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready form (floats rounded for byte-stable output)."""
        return {
            "period": self.period,
            "start_s": round(self.start_s, 6),
            "end_s": round(self.end_s, 6),
            "operations": self.operations,
            "tracked_pairs": self.tracked_pairs,
            "action": self.action,
            "drift": None if self.drift is None else self.drift.to_dict(),
            "planner": self.planner,
            "moves": self.moves,
            "bytes_moved": round(self.bytes_moved, 6),
            "budget_bytes": (
                None if self.budget_bytes is None else round(self.budget_bytes, 6)
            ),
            "cost_estimate": round(self.cost_estimate, 9),
        }


@dataclass(frozen=True)
class OnlineReport:
    """The deliverable of one online run — byte-reproducible JSON.

    Derived entirely from the seed, the configuration, and the stream;
    no wall-clock or process state enters, so the same inputs always
    produce identical :meth:`to_json` output.

    Attributes:
        num_nodes: Nodes the run placed onto.
        window_s: Period length.
        seed: Sketch seed of the run.
        memory_cells: Bounded estimator state (sketch cells + tracker
            capacity) — constant for the whole run.
        periods: Per-period decisions, in order.
        final_placement: Object id (stringified) -> node index.
        final_cost_estimate: Final placement cost under the final
            estimate.
    """

    num_nodes: int
    window_s: float
    seed: int
    memory_cells: int
    periods: tuple[PeriodDecision, ...]
    final_placement: dict[str, int]
    final_cost_estimate: float

    @property
    def replans(self) -> int:
        """Drift-triggered replans across the run."""
        return sum(1 for p in self.periods if p.action == "replan")

    @property
    def total_operations(self) -> int:
        """Operations ingested across the run."""
        return sum(p.operations for p in self.periods)

    @property
    def total_bytes_moved(self) -> float:
        """Migration traffic across the run (bootstrap excluded)."""
        return sum(
            p.bytes_moved
            for p in self.periods
            if p.action in ("replan", "migrate")
        )

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "schema": ONLINE_REPORT_SCHEMA,
            "num_nodes": self.num_nodes,
            "window_s": round(self.window_s, 6),
            "seed": self.seed,
            "memory_cells": self.memory_cells,
            "replans": self.replans,
            "total_operations": self.total_operations,
            "total_bytes_moved": round(self.total_bytes_moved, 6),
            "final_cost_estimate": round(self.final_cost_estimate, 9),
            "final_placement": dict(sorted(self.final_placement.items())),
            "periods": [p.to_dict() for p in self.periods],
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys) — byte-identical per seed."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        """Human-readable period-by-period summary."""
        lines = [
            f"online run: {len(self.periods)} periods x {self.window_s:g}s, "
            f"{self.total_operations} operations, {self.num_nodes} nodes",
            f"estimator memory: {self.memory_cells} cells (bounded)",
            f"replans: {self.replans}, migrated {self.total_bytes_moved:g} bytes",
            "",
            f"{'period':>6} {'ops':>6} {'pairs':>6} {'action':<10} "
            f"{'churn':>7} {'moves':>6} {'bytes':>10} {'est.cost':>10}",
        ]
        for p in self.periods:
            churn = "-" if p.drift is None else f"{p.drift.churn:.3f}"
            lines.append(
                f"{p.period:>6} {p.operations:>6} {p.tracked_pairs:>6} "
                f"{p.action:<10} {churn:>7} {p.moves:>6} "
                f"{p.bytes_moved:>10.1f} {p.cost_estimate:>10.4f}"
            )
        lines.append("")
        lines.append(f"final estimated cost: {self.final_cost_estimate:.6g}")
        return "\n".join(lines)


class OnlinePlanner:
    """Continuous placement maintenance over a timestamped stream.

    Args:
        sizes: Object id -> size; the placement universe is fixed for
            the run.  Objects outside it are dropped from incoming
            operations before estimation, so out-of-universe traffic
            is ignored, not fatal.
        config: The control-loop configuration; its sketch knobs build
            the :class:`SketchCorrelationEstimator`.

    Example:
        >>> planner = OnlinePlanner({"a": 1.0, "b": 1.0}, OnlineConfig(
        ...     num_nodes=2, window_s=10.0,
        ... ))
        >>> report = planner.run([TimedOperation(0.0, ("a", "b"))] * 30)
        >>> report.periods[0].action
        'bootstrap'
    """

    def __init__(self, sizes: Mapping[ObjectId, float], config: OnlineConfig):
        self.sizes = dict(sizes)
        if not self.sizes:
            raise ValueError("sizes must cover at least one object")
        self.config = config
        self.estimator = SketchCorrelationEstimator(
            width=config.sketch_width,
            depth=config.sketch_depth,
            heavy_hitters=config.heavy_hitters,
            seed=config.seed,
        )
        self._detector = DriftDetector(config.thresholds)
        self._assignment: dict[ObjectId, int] | None = None
        self._pending_target: dict[ObjectId, int] | None = None
        self._total_size = float(sum(self.sizes.values()))

    # ------------------------------------------------------------------
    # State views
    # ------------------------------------------------------------------
    @property
    def placement_mapping(self) -> dict[ObjectId, int]:
        """The current object -> node-index assignment.

        Raises:
            RuntimeError: Before the bootstrap plan has run.
        """
        if self._assignment is None:
            raise RuntimeError("no placement yet: the loop has not bootstrapped")
        return dict(self._assignment)

    @property
    def memory_cells(self) -> int:
        """Bounded estimator state: sketch cells plus tracker capacity."""
        return self.estimator.memory_cells

    def _problem(self, correlations: Mapping) -> PlacementProblem:
        return PlacementProblem.build(
            self.sizes, self.config.num_nodes, correlations
        )

    def _placement_on(self, problem: PlacementProblem) -> Placement:
        assert self._assignment is not None
        return Placement.from_mapping(
            problem, {obj: self._assignment[obj] for obj in problem.object_ids}
        )

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def run(self, stream: Iterable) -> OnlineReport:
        """Drive the loop over a whole stream and report every decision.

        Args:
            stream: Timestamped queries
                (:class:`~repro.workloads.stream.TimedQuery`) or
                operations
                (:class:`~repro.online.windows.TimedOperation`) in
                non-decreasing time order.

        Returns:
            The run's byte-reproducible :class:`OnlineReport`.
        """
        window = self.config.window_s
        decisions: list[PeriodDecision] = []
        with obs.span("online.run", nodes=self.config.num_nodes):
            obs.record(
                "online.run.start",
                nodes=self.config.num_nodes,
                window_s=round(window, 6),
                seed=self.config.seed,
                thresholds=self.config.thresholds.to_dict(),
                budget_fraction=self.config.budget_fraction,
                memory_cells=self.memory_cells,
            )
            for period in tumbling_periods(stream, window):
                decisions.append(self.observe_period(period))
            obs.record(
                "online.run.end",
                periods=len(decisions),
                replans=sum(1 for d in decisions if d.action == "replan"),
                total_operations=sum(d.operations for d in decisions),
                total_bytes_moved=round(
                    sum(
                        d.bytes_moved
                        for d in decisions
                        if d.action in ("replan", "migrate")
                    ),
                    6,
                ),
            )
        final_cost = decisions[-1].cost_estimate if decisions else 0.0
        final_mapping = (
            {} if self._assignment is None
            else {str(obj): int(node) for obj, node in self._assignment.items()}
        )
        return OnlineReport(
            num_nodes=self.config.num_nodes,
            window_s=window,
            seed=self.config.seed,
            memory_cells=self.memory_cells,
            periods=tuple(decisions),
            final_placement=final_mapping,
            final_cost_estimate=final_cost,
        )

    def observe_period(self, period: StreamPeriod) -> PeriodDecision:
        """Ingest one period and decide: observe, bootstrap, or replan."""
        config = self.config
        with obs.span(
            "online.period", index=period.index, operations=period.num_operations
        ) as span:
            # Out-of-universe objects cannot be placed; drop them here
            # so they neither crash problem construction nor waste
            # heavy-hitter capacity.  A period with none ingests as it
            # is, and either way through the batched trace path in one
            # call.
            operations = period.operations
            if not self.sizes.keys() >= set(chain.from_iterable(operations)):
                operations = [
                    tuple(obj for obj in operation if obj in self.sizes)
                    for operation in operations
                ]
            self.estimator.observe_trace(operations)
            obs.counter("online.periods").inc()
            obs.counter("online.operations").inc(period.num_operations)
            obs.gauge("online.sketch_cells").set(self.memory_cells)

            correlations = self.estimator.correlations(config.min_support)
            if self._assignment is None:
                decision = self._maybe_bootstrap(period, correlations)
            else:
                decision = self._maybe_replan(period, correlations)
            span.set(action=decision.action)
            # The full decision — drift verdict, chosen planner, budget,
            # bytes moved — is the flight-recorder record for this
            # period, keyed to virtual stream time.  ``period`` is in
            # the payload already, and the rounded to_dict() is exactly
            # what the report serializes, so the journal stays as
            # byte-reproducible as the report itself.
            obs.record(
                "online.period", t=round(period.start_s, 6), **decision.to_dict()
            )
            if config.decay < 1.0:
                self.estimator.decay(config.decay)
        return decision

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _maybe_bootstrap(
        self, period: StreamPeriod, correlations: Mapping
    ) -> PeriodDecision:
        if self.estimator.num_operations < 1 or not correlations:
            return PeriodDecision(
                period=period.index,
                start_s=period.start_s,
                end_s=period.end_s,
                operations=period.num_operations,
                tracked_pairs=len(correlations),
                action="observe",
            )
        problem = self._problem(correlations)
        result = heavy_hitter_plan(problem, config=self.config.planning)
        self._assignment = {
            obj: int(node)
            for obj, node in zip(problem.object_ids, result.placement.assignment)
        }
        cost = result.placement.communication_cost()
        self._detector.rebase(correlations, cost)
        return PeriodDecision(
            period=period.index,
            start_s=period.start_s,
            end_s=period.end_s,
            operations=period.num_operations,
            tracked_pairs=len(correlations),
            action="bootstrap",
            planner=result.diagnostics.get("delegate", result.planner),
            cost_estimate=cost,
        )

    def _maybe_replan(
        self, period: StreamPeriod, correlations: Mapping
    ) -> PeriodDecision:
        config = self.config
        problem = self._problem(correlations)
        current = self._placement_on(problem)
        cost_now = current.communication_cost()
        drift = self._detector.assess(
            correlations, cost_now, period.num_operations
        )
        # An empty estimate can register maximal churn, but there is
        # nothing to plan toward — stay put until pairs reappear.
        if not drift.replan or not correlations:
            if self._pending_target is not None and correlations:
                return self._continue_migration(period, problem, current, drift)
            return PeriodDecision(
                period=period.index,
                start_s=period.start_s,
                end_s=period.end_s,
                operations=period.num_operations,
                tracked_pairs=len(correlations),
                action="observe",
                drift=drift,
                cost_estimate=cost_now,
            )

        with obs.span("online.replan", period=period.index) as span:
            result, target_assignment = _replan_target(
                problem, current.assignment, self.config.planning
            )
            target = Placement(problem, target_assignment)

            budget = config.budget_fraction * self._total_size
            migration = select_migrations(current, target, budget_bytes=budget)
            applied = migration.apply(current)
            self._assignment = {
                obj: int(node)
                for obj, node in zip(problem.object_ids, applied.assignment)
            }
            # A truncated migration leaves profitable moves on the
            # table; remember the full target so stable periods keep
            # converging toward it, one budget's worth at a time.
            if np.array_equal(applied.assignment, target.assignment):
                self._pending_target = None
            else:
                self._pending_target = {
                    obj: int(target_assignment[local_i])
                    for local_i, obj in enumerate(problem.object_ids)
                }
            cost_after = applied.communication_cost()
            self._detector.rebase(correlations, cost_after)
            obs.counter("online.replans").inc()
            obs.counter("online.migrated_bytes").inc(migration.bytes_moved)
            span.set(moves=migration.num_moves, bytes=migration.bytes_moved)

        return PeriodDecision(
            period=period.index,
            start_s=period.start_s,
            end_s=period.end_s,
            operations=period.num_operations,
            tracked_pairs=len(correlations),
            action="replan",
            drift=drift,
            planner=result.diagnostics.get("delegate", result.planner),
            moves=migration.num_moves,
            bytes_moved=migration.bytes_moved,
            budget_bytes=budget,
            cost_estimate=cost_after,
        )

    def _continue_migration(
        self,
        period: StreamPeriod,
        problem: PlacementProblem,
        current: Placement,
        drift: DriftDecision,
    ) -> PeriodDecision:
        """Resume a budget-truncated migration during a stable period.

        Spends this period's budget on the most profitable remaining
        moves toward the pending target (re-ranked under the fresh
        estimate).  If no remaining move is both affordable and
        profitable, the stale target is abandoned rather than chased.
        """
        assert self._pending_target is not None
        config = self.config
        target = Placement.from_mapping(
            problem,
            {obj: self._pending_target[obj] for obj in problem.object_ids},
        )
        budget = config.budget_fraction * self._total_size
        migration = select_migrations(current, target, budget_bytes=budget)
        if migration.num_moves == 0:
            self._pending_target = None
            return PeriodDecision(
                period=period.index,
                start_s=period.start_s,
                end_s=period.end_s,
                operations=period.num_operations,
                tracked_pairs=problem.num_pairs,
                action="observe",
                drift=drift,
                cost_estimate=current.communication_cost(),
            )
        with obs.span("online.migrate", period=period.index) as span:
            applied = migration.apply(current)
            self._assignment = {
                obj: int(node)
                for obj, node in zip(problem.object_ids, applied.assignment)
            }
            if np.array_equal(applied.assignment, target.assignment):
                self._pending_target = None
            cost_after = applied.communication_cost()
            self._detector.rebase_cost(cost_after)
            obs.counter("online.migrated_bytes").inc(migration.bytes_moved)
            span.set(moves=migration.num_moves, bytes=migration.bytes_moved)
        return PeriodDecision(
            period=period.index,
            start_s=period.start_s,
            end_s=period.end_s,
            operations=period.num_operations,
            tracked_pairs=problem.num_pairs,
            action="migrate",
            drift=drift,
            moves=migration.num_moves,
            bytes_moved=migration.bytes_moved,
            budget_bytes=budget,
            cost_estimate=cost_after,
        )
