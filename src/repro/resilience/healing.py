"""Self-healing planning: the ``"resilient"`` fallback chain.

:func:`plan_with_fallbacks` tries LPRR, then the one-pass streaming
partitioner (``stream:greedy``), then greedy, then hash.  The first
success wins; every attempt — successes and failures — is recorded in
``PlanResult.diagnostics["fallback_chain"]`` so a degraded plan is
never silent about how it was produced.

Metrics: ``planner.fallbacks`` and ``planner.fallback.exhausted``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro import obs
from repro.core.problem import PlacementProblem
from repro.core.strategies import PlanConfig, PlanResult, plan

# Chain heads: a plan from one of these is not degraded.
_CORRELATION_AWARE = ("lprr", "lprr:pg", "lprr:rep")


@dataclass(frozen=True)
class FallbackStep:
    """One attempt in the fallback chain.

    Attributes:
        step: Chain label, e.g. ``"lprr"`` or ``"greedy"``.
        outcome: ``"ok"``, ``"failed"``, or ``"skipped"``.
        detail: Error message for failures, reason for skips, empty for
            successes.
    """

    step: str
    outcome: str
    detail: str = ""

    def to_dict(self) -> dict:
        """JSON-ready form for ``PlanResult.diagnostics``."""
        return {"step": self.step, "outcome": self.outcome, "detail": self.detail}


def plan_with_fallbacks(
    problem: PlacementProblem, *, config: PlanConfig | None = None
) -> PlanResult:
    """Plan with graceful degradation instead of failure.

    The chain, in order: ``lprr``, ``stream:greedy``, ``greedy``,
    ``hash``.  Placement-group scopes (``PlanScope.pg``) start with
    ``lprr:pg`` instead.  Replicated configs (``config.replicas > 1``)
    plan through the failure-domain-aware chain ``lprr:rep`` →
    ``rep:greedy`` (spread-greedy) → ``rep:hash`` (spread-hash) —
    every step honors the domain spread constraints, so even the
    deepest fallback never stacks two copies in one rack.  The first
    planner to succeed supplies the placement; the full attempt log
    lands in ``diagnostics["fallback_chain"]`` and the winning
    planner's name in ``diagnostics["delegate"]``.

    Raises:
        ReproError: Only if *every* step in the chain fails, which
            requires even ``hash`` placement to fail.
    """
    config = config or PlanConfig()
    if config.replicas > 1:
        names = ["lprr:rep", "rep:greedy", "rep:hash"]
    else:
        head = "lprr:pg" if config.scope_spec.kind == "pg" else "lprr"
        names = [head, "stream:greedy", "greedy", "hash"]
    chain: list[FallbackStep] = []
    result: PlanResult | None = None
    with obs.span("plan.resilient", objects=problem.num_objects) as span:
        for name in names:
            if result is not None:
                chain.append(FallbackStep(name, "skipped", "already planned"))
                continue
            try:
                result = plan(problem, name, config)
            except Exception as exc:  # noqa: BLE001 — the chain is the handler
                detail = f"{type(exc).__name__}: {exc}"
                chain.append(FallbackStep(name, "failed", detail))
                obs.counter("planner.fallbacks").inc()
                obs.record("plan.attempt", step=name, outcome="failed", detail=detail)
                continue
            chain.append(FallbackStep(name, "ok"))
            obs.record("plan.attempt", step=name, outcome="ok", detail="")
        if result is None:
            obs.counter("planner.fallback.exhausted").inc()
            obs.record(
                "plan.fallback",
                delegate=None,
                degraded=True,
                chain=[s.to_dict() for s in chain],
            )
            raise chain_error(chain)
        degraded = result.planner not in _CORRELATION_AWARE
        span.set(delegate=result.planner, attempts=len(chain))
        obs.record(
            "plan.fallback",
            delegate=result.planner,
            degraded=degraded,
            chain=[s.to_dict() for s in chain],
        )

    diagnostics: dict[str, Any] = {
        **result.diagnostics,
        "delegate": result.planner,
        "fallback_chain": [s.to_dict() for s in chain],
        "degraded": degraded,
    }
    return replace(result, planner="resilient", diagnostics=diagnostics)


def chain_error(chain: list[FallbackStep]) -> Exception:
    """The terminal error when every fallback step failed."""
    from repro.exceptions import ReproError

    summary = "; ".join(
        f"{s.step}: {s.outcome}" + (f" ({s.detail})" if s.detail else "")
        for s in chain
    )
    return ReproError(f"every planner in the fallback chain failed — {summary}")
