"""The Planner API: configurable planners returning rich results.

This module is the registry of placement planners and the home of the
unified planning surface:

* :class:`PlanConfig` — every knob a planning run can carry (scope,
  seed, rounding trials, capacities, replicas), in one frozen
  dataclass.
* :class:`PlanResult` — what a planning run returns: the placement plus
  cost, wall-clock, diagnostics, and (for LPRR) the full
  :class:`~repro.core.lprr.LPRRResult`.
* :class:`Planner` — the protocol every planner satisfies:
  ``planner(problem, *, config) -> PlanResult``.

The registry holds the paper's three strategies (random hashing,
greedy, LPRR), the streaming greedy tier that serving hot-swaps with,
LPRR at placement-group granularity, the replica-aware planners and the
``resilient`` fallback chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Protocol

from repro import obs
from repro.core.greedy import greedy_placement
from repro.core.hashing import random_hash_placement
from repro.core.partial import scoped_placement
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem


# ----------------------------------------------------------------------
# Configuration and results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanScope:
    """What part of the problem a planner optimizes exactly.

    Two kinds, built with the classmethod constructors:

    * ``PlanScope.exact(top)`` — the pre-1.6 integer scope: optimize the
      ``top`` most important objects (``None`` = all of them).  A bare
      ``int`` or ``None`` in :attr:`PlanConfig.scope` normalizes to
      this kind, so existing configs keep byte-identical behavior.
    * ``PlanScope.pg(groups, important)`` — placement-group indirection
      (``docs/SCALE.md``): keep the top-``important`` objects exact,
      hash the tail into ``groups`` placement groups, and plan at PG
      granularity.  Routes planning through the ``"lprr:pg"`` planner.

    Attributes:
        kind: ``"exact"`` or ``"pg"``.
        top: Object-count cap for ``exact`` scopes.
        groups: Placement-group count (``pg`` only).
        important: Exact-object count (``pg`` only).
    """

    kind: str = "exact"
    top: int | None = None
    groups: int = 0
    important: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "pg"):
            raise ValueError(f"unknown scope kind {self.kind!r}")
        if self.top is not None and self.top < 0:
            raise ValueError("scope top must be nonnegative")
        if self.kind == "pg":
            if self.groups < 1:
                raise ValueError("pg scope needs at least one group")
            if self.important < 0:
                raise ValueError("important count must be nonnegative")
        elif self.groups or self.important:
            raise ValueError("groups/important apply only to pg scopes")

    @classmethod
    def exact(cls, top: int | None = None) -> "PlanScope":
        """Optimize the ``top`` most important objects (None = all)."""
        return cls(kind="exact", top=None if top is None else int(top))

    @classmethod
    def pg(cls, groups: int, important: int = 0) -> "PlanScope":
        """Plan through ``groups`` placement groups plus ``important``
        exact objects (see ``docs/SCALE.md``)."""
        return cls(kind="pg", groups=int(groups), important=int(important))

    def limit(self) -> int | None:
        """The resolved integer object scope.

        ``None`` means "no per-object cap" — all objects for ``exact``
        scopes without a ``top``, and always for ``pg`` scopes (the pg
        planner scopes by grouping, not by truncation).
        """
        return self.top if self.kind == "exact" else None


@dataclass(frozen=True)
class PlanConfig:
    """Everything a planning run can be told, in one value.

    The defaults reproduce the paper's evaluation setup (conservative
    2x-average capacities, 10 rounding trials, 5% capacity tolerance).
    Planners ignore knobs they have no use for — ``hash`` reads
    nothing — so one config can drive a whole strategy comparison.

    Attributes:
        scope: What to optimize exactly: an ``int`` (the top-``scope``
            most important objects, Section 3.1), ``None`` (all of
            them), or a :class:`PlanScope` — including
            ``PlanScope.pg(K, M)`` for placement-group planning.
            Integers and ``None`` normalize to ``PlanScope.exact``, so
            pre-1.6 configs behave identically.
        seed: Root seed for every stochastic choice the planner makes.
        rounding_trials: Best-of-``k`` randomized-rounding repetitions.
            On LPRR's packed vertex every draw costs exactly 0; trials
            differ only in which node each split component lands on,
            so the first capacity-respecting draw is kept.  When no
            draw fits (20 of the 24 ``offline_lprr`` benchmark plans
            at seed 1), repair decides the plan.
        capacity_factor: Conservative per-node capacity as a multiple
            of the scoped objects' average per-node load (the paper
            uses 2.0); ``None`` keeps the problem's own capacities.
        capacity_tolerance: Relative slack when judging feasibility;
            must be finite and nonnegative (``ValueError`` otherwise).
        replicas: Copies per object for replication-aware planners
            (``lprr:rep`` and friends); ``1`` keeps the single-copy
            behavior everywhere, including the resilient fallback
            chain.
        topology: Failure-domain membership
            (:class:`~repro.cluster.topology.Topology`) the replica
            spread constraints are enforced against; ``None`` means the
            flat every-node-its-own-domain model.
    """

    scope: int | PlanScope | None = None
    seed: int = 0
    rounding_trials: int = 10
    capacity_factor: float | None = 2.0
    capacity_tolerance: float = 0.05
    replicas: int = 1
    topology: Any | None = None

    def __post_init__(self) -> None:
        # The resilient chain falls through on any planning error, so a
        # bad tolerance must fail here, before planning starts.
        if not 0.0 <= self.capacity_tolerance < math.inf:
            raise ValueError(
                f"capacity_tolerance must be finite and nonnegative, "
                f"got {self.capacity_tolerance!r}"
            )

    def with_options(self, **changes: Any) -> "PlanConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    @property
    def scope_spec(self) -> PlanScope:
        """The scope as a :class:`PlanScope` (ints/None normalize to
        ``exact``)."""
        if isinstance(self.scope, PlanScope):
            return self.scope
        return PlanScope(
            kind="exact", top=None if self.scope is None else int(self.scope)
        )

    def scope_limit(self) -> int | None:
        """Resolved integer object scope (see :meth:`PlanScope.limit`)."""
        return self.scope_spec.limit()


@dataclass(frozen=True)
class PlanResult:
    """What a planning run produced, beyond the bare placement.

    Attributes:
        placement: The total placement over the full problem.
        cost: Its communication cost (objective (1)).
        planner: Registry name of the planner that produced it.
        elapsed_seconds: Wall-clock of the planning run.
        diagnostics: Planner-specific facts worth reporting — e.g. for
            LPRR: ``lp_lower_bound``, ``scope``, ``rounding_trials``,
            ``repaired``.
        details: The planner's full native result when it has one
            (:class:`~repro.core.lprr.LPRRResult` for ``lprr``),
            else ``None``.
    """

    placement: Placement
    cost: float
    planner: str
    elapsed_seconds: float
    diagnostics: dict[str, Any] = field(default_factory=dict)
    details: Any | None = None


class Planner(Protocol):
    """Anything that plans a placement under a :class:`PlanConfig`."""

    def __call__(
        self, problem: PlacementProblem, *, config: PlanConfig
    ) -> PlanResult: ...


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_PLANNERS: dict[str, Planner] = {}


def register_planner(name: str) -> Callable[[Planner], Planner]:
    """Decorator registering a planner under ``name``."""

    def decorator(func: Planner) -> Planner:
        if name in _PLANNERS:
            raise ValueError(f"planner {name!r} already registered")
        _PLANNERS[name] = func
        return func

    return decorator


def get_planner(name: str) -> Planner:
    """Look up a registered planner by name."""
    try:
        return _PLANNERS[name]
    except KeyError:
        raise KeyError(
            f"unknown planner {name!r}; available: {sorted(_PLANNERS)}"
        ) from None


def available_planners() -> list[str]:
    """Names of all registered planners."""
    return sorted(_PLANNERS)


def plan(
    problem: PlacementProblem,
    planner: str = "lprr",
    config: PlanConfig | None = None,
) -> PlanResult:
    """One-call convenience: plan ``problem`` with a named planner."""
    return get_planner(planner)(problem, config=config or PlanConfig())


def _finish(
    name: str,
    placement: Placement,
    elapsed: float,
    diagnostics: dict[str, Any] | None = None,
    details: Any | None = None,
) -> PlanResult:
    cost = placement.communication_cost()
    feasible = placement.is_feasible()
    obs.counter("planner.plans").inc()
    obs.histogram("planner.plan_seconds").observe(elapsed)
    # Journaled without ``elapsed`` — wall-clock would break the
    # byte-reproducibility the journal guarantees (see obs/journal.py).
    obs.record(
        "plan.result", planner=name, cost=round(cost, 9), feasible=feasible
    )
    return PlanResult(
        placement=placement,
        cost=cost,
        planner=name,
        elapsed_seconds=elapsed,
        diagnostics={"feasible": feasible, **(diagnostics or {})},
        details=details,
    )


def _simple_planner(name: str, place: Callable[[PlacementProblem, PlanConfig], Placement]):
    """Register a planner around a config-aware placement function."""

    @register_planner(name)
    def planner(
        problem: PlacementProblem, *, config: PlanConfig = PlanConfig()
    ) -> PlanResult:
        with obs.timed("plan", planner=name) as span:
            placement = place(problem, config)
        return _finish(name, placement, span.duration)

    return planner


# ----------------------------------------------------------------------
# Built-in planners
# ----------------------------------------------------------------------
_simple_planner("hash", lambda problem, config: random_hash_placement(problem))

_simple_planner(
    "greedy",
    lambda problem, config: scoped_placement(
        problem,
        config.scope_limit(),
        greedy_placement,
        capacity_factor=config.capacity_factor,
    ),
)


def _stream_greedy(problem: PlacementProblem, config: PlanConfig) -> Placement:
    # Imported lazily: the streaming tier is only needed when serving.
    from repro.core.streampart import streaming_greedy_placement

    return scoped_placement(
        problem,
        config.scope_limit(),
        streaming_greedy_placement,
        capacity_factor=config.capacity_factor,
    )


_simple_planner("stream:greedy", _stream_greedy)


@register_planner("lprr")
def _lprr_planner(
    problem: PlacementProblem, *, config: PlanConfig = PlanConfig()
) -> PlanResult:
    # Imported lazily to avoid a cycle (lprr composes other strategies).
    from repro.core.lprr import LPRRPlanner

    if config.scope_spec.kind == "pg":
        # Placement-group scopes route to the pg planner so one config
        # shape drives both granularities (see docs/SCALE.md).
        from repro.pg.planner import plan_with_groups

        return plan_with_groups(problem, config=config)

    planner = LPRRPlanner(
        scope=config.scope_limit(),
        capacity_factor=config.capacity_factor,
        rounding_trials=config.rounding_trials,
        capacity_tolerance=config.capacity_tolerance,
        seed=config.seed,
    )
    with obs.timed("plan", planner="lprr") as span:
        result = planner.plan(problem)
    diagnostics = {
        "lp_lower_bound": float(result.lp_lower_bound),
        "scope": len(result.scope_objects),
        "rounding_trials": result.rounding.trials,
        "repaired": result.repaired,
    }
    return _finish("lprr", result.placement, span.duration, diagnostics, result)


@register_planner("lprr:pg")
def _lprr_pg_planner(
    problem: PlacementProblem, *, config: PlanConfig = PlanConfig()
) -> PlanResult:
    # Imported lazily to avoid a cycle (the pg layer plans through this
    # registry's LPRR planner).
    from repro.pg.planner import plan_with_groups

    return plan_with_groups(problem, config=config)


def _finish_replicated(
    name: str,
    replicated,
    elapsed: float,
    diagnostics: dict[str, Any] | None = None,
) -> PlanResult:
    """Like :func:`_finish` but for replica-producing planners.

    The :class:`PlanResult`'s placement is the primary copy (so every
    single-copy consumer keeps working) while ``details`` carries the
    full :class:`~repro.core.replication.ReplicatedPlacement` and
    ``cost`` is the replicated any-copy cost.
    """
    cost = replicated.communication_cost()
    feasible = replicated.is_feasible()
    obs.counter("planner.plans").inc()
    obs.histogram("planner.plan_seconds").observe(elapsed)
    obs.record(
        "plan.result", planner=name, cost=round(cost, 9), feasible=feasible
    )
    obs.record(
        "rep.plan",
        planner=name,
        replicas=replicated.replication_factor,
        spread=replicated.spread,
        cost=round(cost, 9),
        feasible=feasible,
    )
    return PlanResult(
        placement=replicated.primary(),
        cost=cost,
        planner=name,
        elapsed_seconds=elapsed,
        diagnostics={
            "feasible": feasible,
            "replicas": replicated.replication_factor,
            "spread": replicated.spread,
            **(diagnostics or {}),
        },
        details=replicated,
    )


def _rep_topology(problem: PlacementProblem, config: PlanConfig):
    from repro.cluster.topology import Topology

    topology = config.topology
    if topology is None:
        return Topology.flat(problem.num_nodes)
    if not isinstance(topology, Topology):
        raise TypeError("config.topology must be a cluster.Topology")
    return topology


@register_planner("lprr:rep")
def _lprr_rep_planner(
    problem: PlacementProblem, *, config: PlanConfig = PlanConfig()
) -> PlanResult:
    """LPRR primaries + spread-constrained correlation-aware replicas.

    The first copy of every object comes from the full LPRR pipeline;
    each further copy is placed in a fresh failure domain, preferring
    nodes where the object's correlated partners already sit — so every
    pair stays co-resident on at least one common node whenever the
    spread constraint allows it.
    """
    # Imported lazily to avoid a cycle (replication composes greedy).
    from repro.core.replication import spread_replicated_placement

    topology = _rep_topology(problem, config)
    replicas = max(1, int(config.replicas))
    inner_config = config.with_options(replicas=1, topology=None)
    with obs.timed("plan", planner="lprr:rep") as span:
        inner = plan(problem, "lprr", inner_config)
        replicated = spread_replicated_placement(
            problem,
            topology,
            replicas=replicas,
            primary_strategy=lambda p: inner.placement,
        )
    diagnostics = {
        "primary_planner": "lprr",
        "primary_cost": float(inner.cost),
        "lp_lower_bound": inner.diagnostics.get("lp_lower_bound"),
        "zones": topology.num_zones,
        "racks": topology.num_racks,
    }
    return _finish_replicated("lprr:rep", replicated, span.duration, diagnostics)


@register_planner("rep:greedy")
def _rep_greedy_planner(
    problem: PlacementProblem, *, config: PlanConfig = PlanConfig()
) -> PlanResult:
    """Spread-greedy fallback: greedy primaries, spread-aware replicas."""
    from repro.core.replication import spread_replicated_placement

    topology = _rep_topology(problem, config)
    replicas = max(1, int(config.replicas))
    with obs.timed("plan", planner="rep:greedy") as span:
        replicated = spread_replicated_placement(
            problem,
            topology,
            replicas=replicas,
            primary_strategy=lambda p: scoped_placement(
                p,
                config.scope_limit(),
                greedy_placement,
                capacity_factor=config.capacity_factor,
            ),
        )
    return _finish_replicated("rep:greedy", replicated, span.duration)


@register_planner("rep:hash")
def _rep_hash_planner(
    problem: PlacementProblem, *, config: PlanConfig = PlanConfig()
) -> PlanResult:
    """Domain-aware replicated hash: the correlation-oblivious baseline."""
    from repro.core.replication import replicate_hash

    topology = _rep_topology(problem, config)
    replicas = max(1, int(config.replicas))
    with obs.timed("plan", planner="rep:hash") as span:
        replicated = replicate_hash(problem, topology, replicas=replicas)
    return _finish_replicated("rep:hash", replicated, span.duration)


@register_planner("resilient")
def _resilient_planner(
    problem: PlacementProblem, *, config: PlanConfig = PlanConfig()
) -> PlanResult:
    # Imported lazily to avoid a cycle (healing plans via this registry).
    from repro.resilience.healing import plan_with_fallbacks

    return plan_with_fallbacks(problem, config=config)
