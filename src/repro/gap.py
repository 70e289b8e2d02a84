"""The optimality-gap harness: exact vs LPRR.

The paper evaluates LPRR only against baselines it dominates (hash,
greedy), so its distance from the true optimum is an article of faith.
This module measures it: :func:`run_gap` draws a batch of seeded small
instances, solves each with a proven-optimal reference — the
dependency-free branch-and-bound in :mod:`repro.core.exact` by
default, or CP-SAT (``--reference cpsat``, needs the ``repro[exact]``
extra) — and plans the same instance with LPRR.  The per-instance cost
ratio ``lprr/exact`` is the optimality gap.

Instances are clustered (topic-style co-access groups plus a sprinkle
of cross-cluster pairs) because that is the workload shape the paper's
Section 4 mines from real query logs; ``objects`` stays small enough
for the exact reference (default 12 <= the branch-and-bound's
18-object guard).

Determinism: every instance is a pure function of ``(seed, index)``,
planners run with fixed seeds, and the report rounds every float and
sorts every key — same-seed runs are byte-identical, which the CI
``gap-smoke`` job enforces with a literal byte compare.  A cost of 0
(everything colocatable) makes a ratio meaningless; those instances
report ``ratio = 1.0`` when the planner also reached 0, else the
absolute cost is surfaced in ``lprr_cost`` for inspection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.problem import PlacementProblem
from repro.core.strategies import PlanConfig, plan

GAP_REPORT_SCHEMA = "repro.gap.report/v2"


@dataclass(frozen=True)
class GapCase:
    """One instance's exact/LPRR comparison.

    Attributes:
        index: Instance number within the batch.
        objects: Objects in the instance.
        nodes: Nodes in the instance.
        pairs: Correlated pairs in the instance.
        exact_cost: The proven-optimal communication cost.
        lprr_cost: LPRR's cost on the same instance.
        lprr_ratio: ``lprr_cost / exact_cost`` (1.0 when both are 0).
            Near-zero optima inflate this wildly; read it together
            with the excess.
        lprr_excess: ``(lprr_cost - exact_cost) / total_weight`` — the
            fraction of all correlated traffic LPRR leaves
            un-colocated beyond what is unavoidable.  Stable even when
            ``exact_cost`` is (near) zero.
    """

    index: int
    objects: int
    nodes: int
    pairs: int
    exact_cost: float
    lprr_cost: float
    lprr_ratio: float
    lprr_excess: float

    def to_dict(self) -> dict:
        """JSON-ready form (floats rounded for byte stability)."""
        return {
            "index": self.index,
            "objects": self.objects,
            "nodes": self.nodes,
            "pairs": self.pairs,
            "exact_cost": round(self.exact_cost, 9),
            "lprr_cost": round(self.lprr_cost, 9),
            "lprr_ratio": round(self.lprr_ratio, 9),
            "lprr_excess": round(self.lprr_excess, 9),
        }


@dataclass(frozen=True)
class GapReport:
    """A full gap run: per-instance cases plus aggregate ratios.

    Attributes:
        seed: Root seed of the batch.
        reference: ``"exact"`` (branch and bound) or ``"cpsat"``.
        cases: Per-instance comparisons.
    """

    seed: int
    reference: str
    cases: tuple[GapCase, ...]

    @property
    def mean_lprr_ratio(self) -> float:
        """Mean LPRR optimality gap across the batch."""
        return float(np.mean([c.lprr_ratio for c in self.cases]))

    @property
    def max_lprr_ratio(self) -> float:
        """Worst LPRR gap in the batch."""
        return float(max(c.lprr_ratio for c in self.cases))

    @property
    def mean_lprr_excess(self) -> float:
        """Mean LPRR excess-cost fraction across the batch."""
        return float(np.mean([c.lprr_excess for c in self.cases]))

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "schema": GAP_REPORT_SCHEMA,
            "seed": self.seed,
            "reference": self.reference,
            "instances": len(self.cases),
            "mean_lprr_ratio": round(self.mean_lprr_ratio, 9),
            "max_lprr_ratio": round(self.max_lprr_ratio, 9),
            "mean_lprr_excess": round(self.mean_lprr_excess, 9),
            "cases": [c.to_dict() for c in self.cases],
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys) — byte-identical per seed."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        """Human-readable per-instance table."""
        lines = [
            f"optimality gap: {len(self.cases)} seeded instances vs "
            f"{self.reference} reference (seed {self.seed})",
            "",
            f"{'inst':>4} {'objs':>5} {'pairs':>6} {'exact':>10} "
            f"{'lprr':>10} {'lprr/opt':>9}",
        ]
        for c in self.cases:
            lines.append(
                f"{c.index:>4} {c.objects:>5} {c.pairs:>6} "
                f"{c.exact_cost:>10.4f} {c.lprr_cost:>10.4f} "
                f"{c.lprr_ratio:>9.4f}"
            )
        lines.append("")
        lines.append(
            f"mean gap: lprr {self.mean_lprr_ratio:.4f}x | "
            f"max gap: lprr {self.max_lprr_ratio:.4f}x"
        )
        lines.append(
            f"mean excess (fraction of total pair weight): "
            f"lprr {self.mean_lprr_excess:.4f}"
        )
        return "\n".join(lines)


def gap_instance(
    seed: int, index: int, objects: int = 12, nodes: int = 3
) -> PlacementProblem:
    """One seeded small instance for the gap harness.

    Objects come in co-access clusters of 3-4 with dense intra-cluster
    pairs, a few cross-cluster pairs, heterogeneous sizes, and tight
    capacities (1.4x average load) so colocating a whole cluster is
    usually — but not always — possible.  Pure function of
    ``(seed, index, objects, nodes)``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    sizes = {f"o{i}": float(rng.uniform(0.5, 2.0)) for i in range(objects)}
    cluster_size = int(rng.integers(3, 5))
    pairs: dict[tuple[str, str], float] = {}
    for start in range(0, objects, cluster_size):
        members = [f"o{i}" for i in range(start, min(start + cluster_size, objects))]
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                pairs[(members[a], members[b])] = float(rng.uniform(0.5, 1.0))
    # Cross-cluster noise: weak pairs that make the optimum nontrivial.
    for _ in range(objects // 3):
        i, j = rng.choice(objects, size=2, replace=False)
        key = (f"o{min(i, j)}", f"o{max(i, j)}")
        pairs.setdefault(key, float(rng.uniform(0.05, 0.2)))
    total = sum(sizes.values())
    capacity = 1.4 * total / nodes
    return PlacementProblem.build(
        sizes, {f"n{k}": capacity for k in range(nodes)}, pairs
    )


def _ratio(cost: float, exact: float) -> float:
    """Planner-to-optimal cost ratio, defined even at a 0 optimum."""
    if exact <= 1e-12:
        return 1.0 if cost <= 1e-9 else float("inf")
    return cost / exact


def run_gap(
    *,
    seed: int = 0,
    instances: int = 8,
    objects: int = 12,
    nodes: int = 3,
    reference: str = "exact",
) -> GapReport:
    """Measure LPRR's optimality gap.

    Args:
        seed: Root seed; the whole report is a pure function of it.
        instances: Seeded instances to draw.
        objects: Objects per instance (keep <= 18 for the
            branch-and-bound reference).
        nodes: Nodes per instance.
        reference: ``"exact"`` for the dependency-free branch and
            bound, ``"cpsat"`` for the ortools backend (raises
            :class:`~repro.exceptions.SolverError` when ortools is
            absent).

    Returns:
        The byte-reproducible :class:`GapReport`.
    """
    if reference not in ("exact", "cpsat"):
        raise ValueError(f"unknown reference {reference!r} (exact or cpsat)")
    if instances < 1:
        raise ValueError("instances must be at least 1")

    cases = []
    with obs.span("gap.run", instances=instances, reference=reference):
        for index in range(instances):
            problem = gap_instance(seed, index, objects=objects, nodes=nodes)
            if reference == "cpsat":
                from repro.lpsolve.cpsat_backend import solve_placement_cpsat

                exact_cost = solve_placement_cpsat(problem, seed=seed).cost
            else:
                from repro.core.exact import solve_exact

                exact_cost = solve_exact(problem).cost
            # capacity_factor=None keeps the instance's own (tight)
            # capacities, and zero tolerance keeps every placement
            # strictly feasible — otherwise the 5% default slack lets a
            # planner "beat" the optimum and the ratio dips below 1.
            config = PlanConfig(
                seed=seed, capacity_factor=None, capacity_tolerance=0.0
            )
            lprr_cost = plan(problem, "lprr", config).cost
            total_weight = float(np.sum(problem.pair_weights))
            case = GapCase(
                index=index,
                objects=problem.num_objects,
                nodes=problem.num_nodes,
                pairs=problem.num_pairs,
                exact_cost=exact_cost,
                lprr_cost=lprr_cost,
                lprr_ratio=_ratio(lprr_cost, exact_cost),
                lprr_excess=(lprr_cost - exact_cost) / max(total_weight, 1e-12),
            )
            cases.append(case)
            obs.record("gap.case", **case.to_dict())
    return GapReport(seed=seed, reference=reference, cases=tuple(cases))
