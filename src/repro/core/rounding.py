"""Randomized rounding of fractional placements (Algorithm 2.1).

Each round draws a node ``k`` uniformly and a threshold ``r`` uniformly
from ``[0, 1]``, then places every not-yet-placed object ``i`` with
``x[i,k] >= r`` on node ``k``.  Lemma 1 shows each object lands on node
``k`` with probability exactly ``x[i,k]``; Lemma 2 shows a pair
separates with probability at most ``z[i,j]``, so the expected rounded
cost equals the LP optimum (Theorem 2).

Because the guarantee is in expectation, :func:`round_best_of` repeats
the rounding and keeps the cheapest feasible draw, as Section 2.3
recommends.  On LPRR's packed vertex
(:func:`~repro.core.lp.pack_components`) every object of a component
shares one row, so a draw keeps each component whole and costs
exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.lp import FractionalPlacement
from repro.core.placement import Placement
from repro.exceptions import SolverError


@dataclass(frozen=True)
class RoundingResult:
    """Outcome of one or more randomized-rounding trials.

    Attributes:
        placement: The selected (cheapest) rounded placement.
        cost: Its communication cost.
        trials: Number of rounding trials performed.
        trial_costs: Cost of every trial, in order.
        rounds: Threshold rounds used by the selected trial.
        best_trial: Index into ``trial_costs`` of the selected trial
            (0 for aggregated results that kept no per-trial detail).
    """

    placement: Placement
    cost: float
    trials: int
    trial_costs: tuple[float, ...]
    rounds: int
    best_trial: int = 0

    @property
    def cost_std(self) -> float:
        """Standard deviation of the trial costs (0 for one trial)."""
        return float(np.std(self.trial_costs))

    def to_dict(self) -> dict:
        """JSON-ready form (see :mod:`repro.core.serialization`)."""
        from repro.core.serialization import rounding_result_to_dict

        return rounding_result_to_dict(self)


def round_fractional(
    fractional: FractionalPlacement,
    rng: np.random.Generator | np.random.SeedSequence | int | None = None,
    max_rounds: int | None = None,
) -> tuple[Placement, int]:
    """Run Algorithm 2.1 once.

    Args:
        fractional: The LP solution to round.
        rng: Seed, :class:`~numpy.random.SeedSequence`, or generator
            for reproducibility.
        max_rounds: Safety cap on threshold rounds; defaults to
            ``4 * n * (ln t + 10)`` which the coupon-collector argument
            makes astronomically safe.

    Returns:
        ``(placement, rounds_used)``.

    Raises:
        SolverError: If the cap is hit (indicates degenerate input,
            e.g. rows that sum to far less than 1).
    """
    rng = np.random.default_rng(rng)
    fractions = fractional.fractions
    t, n = fractions.shape
    if max_rounds is None:
        max_rounds = int(4 * n * (np.log(max(t, 2)) + 10))

    assignment = -np.ones(t, dtype=np.int64)
    unplaced = np.ones(t, dtype=bool)
    rounds = 0
    while unplaced.any():
        if rounds >= max_rounds:
            raise SolverError(
                f"rounding did not converge in {max_rounds} rounds; "
                "check that fractional rows sum to 1"
            )
        rounds += 1
        k = int(rng.integers(n))
        threshold = rng.random()
        hit = unplaced & (fractions[:, k] >= threshold)
        assignment[hit] = k
        unplaced[hit] = False
    return Placement(fractional.problem, assignment), rounds


def round_best_of(
    fractional: FractionalPlacement,
    trials: int = 10,
    rng: np.random.Generator | np.random.SeedSequence | int | None = None,
    capacity_tolerance: float | None = None,
) -> RoundingResult:
    """Repeat the rounding and keep the cheapest acceptable placement.

    All trials consume one sequential random stream, so the result
    depends on trial order; ties keep the earliest trial.  On the
    packed vertex of :func:`~repro.core.lp.pack_components` every draw
    costs exactly 0 and trials differ only in which node each split
    component lands on, so this keeps the first capacity-respecting
    draw.  When no draw fits (20 of the 24 ``offline_lprr`` benchmark
    plans at seed 1), the planner's repair decides the plan.

    Args:
        fractional: The LP solution to round.
        trials: Number of independent rounding trials (``>= 1``).
        rng: Seed, :class:`~numpy.random.SeedSequence`, or generator.
        capacity_tolerance: When given, a trial is only eligible if its
            placement satisfies capacities within this relative
            tolerance; if no trial qualifies, the overall cheapest is
            returned (matching the paper's soft treatment of
            Theorem 3's in-expectation capacity guarantee).

    Returns:
        A :class:`RoundingResult` describing the selected trial.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(rng)

    best: Placement | None = None
    best_cost = np.inf
    best_rounds = 0
    best_index = 0
    fallback: Placement | None = None
    fallback_cost = np.inf
    fallback_rounds = 0
    fallback_index = 0
    costs: list[float] = []
    cost_hist = obs.histogram("rounding.trial_cost")
    rounds_hist = obs.histogram("rounding.trial_rounds")

    with obs.span("rounding", trials=trials) as rounding_span:
        for index in range(trials):
            placement, rounds = round_fractional(fractional, rng)
            cost = placement.communication_cost()
            costs.append(cost)
            cost_hist.observe(cost)
            rounds_hist.observe(rounds)
            if cost < fallback_cost:
                fallback, fallback_cost = placement, cost
                fallback_rounds, fallback_index = rounds, index
            if capacity_tolerance is not None and not placement.is_feasible(
                capacity_tolerance
            ):
                continue
            if cost < best_cost:
                best, best_cost = placement, cost
                best_rounds, best_index = rounds, index

        feasible = best is not None
        if best is None:
            best, best_cost = fallback, fallback_cost
            best_rounds, best_index = fallback_rounds, fallback_index
        assert best is not None  # trials >= 1 guarantees a fallback
        rounding_span.set(
            best_trial=best_index, best_cost=float(best_cost), feasible=feasible
        )
    obs.counter("rounding.trials").inc(trials)
    return RoundingResult(
        placement=best,
        cost=float(best_cost),
        trials=trials,
        trial_costs=tuple(costs),
        rounds=best_rounds,
        best_trial=best_index,
    )
