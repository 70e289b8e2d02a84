"""JSON persistence for problems, placements, and result objects.

Offline optimization (the paper's model: planning happens out of band)
needs durable artifacts: the problem snapshot the optimizer saw
and the placement it produced.  Both serialize to a stable JSON schema
with embedded schema-version tags for forward compatibility.

Beyond problems and placements, this module is the single source of
truth for the ``to_dict()`` forms of the pipeline's result dataclasses
— :class:`~repro.core.rounding.RoundingResult`,
:class:`~repro.core.lprr.LPRRResult`, and
:class:`~repro.search.engine.EvaluationSummary` — so the CLI's JSON
output and experiment reports speak one schema.  Result documents that
embed a placement store it as an ``assignment`` array aligned with the
problem's object order plus the stringified object ids.  Of the
three, only the evaluation summary reads back (``from_dict``); the
planning results are written, never loaded.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.exceptions import TraceFormatError

if TYPE_CHECKING:  # imported lazily at runtime to avoid cycles
    from repro.core.lprr import LPRRResult
    from repro.core.rounding import RoundingResult
    from repro.search.engine import EvaluationSummary

PROBLEM_SCHEMA = "repro/problem/v1"
PLACEMENT_SCHEMA = "repro/placement/v1"
PG_MAP_SCHEMA = "repro/pg-map/v1"
ROUNDING_RESULT_SCHEMA = "repro/rounding-result/v1"
LPRR_RESULT_SCHEMA = "repro/lprr-result/v1"
EVALUATION_SUMMARY_SCHEMA = "repro/evaluation-summary/v1"
PLAN_RESULT_SCHEMA = "repro/plan-result/v1"


def _encode_capacity(value: float) -> float | None:
    return None if np.isinf(value) else float(value)


def _decode_capacity(value: float | None) -> float:
    return np.inf if value is None else float(value)


def problem_to_dict(problem: PlacementProblem) -> dict:
    """The problem as a JSON-ready dict (object ids become strings)."""
    return {
        "schema": PROBLEM_SCHEMA,
        "objects": {
            str(obj): float(size)
            for obj, size in zip(problem.object_ids, problem.sizes)
        },
        "nodes": [
            {"id": str(node), "capacity": _encode_capacity(cap)}
            for node, cap in zip(problem.node_ids, problem.capacities)
        ],
        "pairs": [
            {
                "i": str(problem.object_ids[i]),
                "j": str(problem.object_ids[j]),
                "correlation": float(r),
                "cost": float(w),
            }
            for (i, j), r, w in zip(
                problem.pair_index, problem.correlations, problem.pair_costs
            )
        ],
        "resources": [
            {
                "name": spec.name,
                "loads": {
                    str(obj): float(load)
                    for obj, load in zip(problem.object_ids, spec.loads)
                    if load > 0
                },
                "budgets": [float(b) for b in spec.budgets],
            }
            for spec in problem.resources
        ],
    }


def problem_from_dict(data: dict) -> PlacementProblem:
    """Rebuild a problem from :func:`problem_to_dict` output.

    Note that object and node ids come back as strings regardless of
    their original type.

    Raises:
        TraceFormatError: On schema mismatch or missing fields.
    """
    if data.get("schema") != PROBLEM_SCHEMA:
        raise TraceFormatError(
            f"expected schema {PROBLEM_SCHEMA!r}, got {data.get('schema')!r}"
        )
    try:
        objects = {str(k): float(v) for k, v in data["objects"].items()}
        nodes = {
            str(entry["id"]): _decode_capacity(entry["capacity"])
            for entry in data["nodes"]
        }
        correlations = {
            (entry["i"], entry["j"]): float(entry["correlation"])
            for entry in data["pairs"]
        }
        pair_costs = {
            (entry["i"], entry["j"]): float(entry["cost"])
            for entry in data["pairs"]
        }
        resources = {
            entry["name"]: (
                {str(k): float(v) for k, v in entry["loads"].items()},
                {
                    node: float(budget)
                    for node, budget in zip(nodes, entry["budgets"])
                },
            )
            for entry in data.get("resources", [])
        }
    except (KeyError, TypeError) as exc:
        raise TraceFormatError(f"malformed problem document: {exc}") from exc
    return PlacementProblem.build(
        objects,
        nodes,
        correlations,
        pair_cost=pair_costs if pair_costs else None,
        resources=resources or None,
    )


def save_problem(problem: PlacementProblem, path: str | Path) -> None:
    """Write a problem snapshot to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(problem), fh, indent=1, sort_keys=True)


def load_problem(path: str | Path) -> PlacementProblem:
    """Read a problem snapshot written by :func:`save_problem`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return problem_from_dict(json.load(fh))
    except OSError as exc:
        raise TraceFormatError(f"cannot read problem {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"invalid JSON in {path}: {exc}") from exc


def save_placement(placement: Placement, path: str | Path) -> None:
    """Write a placement to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(placement.to_dict(), fh, indent=1, sort_keys=True)


def load_placement(path: str | Path, problem: PlacementProblem) -> Placement:
    """Read a placement written by :func:`save_placement`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return Placement.from_dict(json.load(fh), problem)
    except OSError as exc:
        raise TraceFormatError(f"cannot read placement {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"invalid JSON in {path}: {exc}") from exc


# ----------------------------------------------------------------------
# Result dataclasses: the shared to_dict() schema
# ----------------------------------------------------------------------
def _assignment_fields(placement: Placement) -> dict:
    return {
        "objects": [str(obj) for obj in placement.problem.object_ids],
        "assignment": [int(k) for k in placement.assignment],
    }


def lp_stats_to_dict(stats: "LPStats") -> dict:  # noqa: F821 - lazy type
    """An :class:`~repro.core.lp.LPStats` as a JSON-ready dict."""
    return {
        "num_variables": stats.num_variables,
        "num_constraints": stats.num_constraints,
        "num_nonzeros": stats.num_nonzeros,
        "solve_seconds": stats.solve_seconds,
        "iterations": stats.iterations,
    }


def rounding_result_to_dict(result: "RoundingResult") -> dict:
    """A :class:`~repro.core.rounding.RoundingResult` as a dict."""
    return {
        "schema": ROUNDING_RESULT_SCHEMA,
        "cost": float(result.cost),
        "trials": int(result.trials),
        "trial_costs": [float(c) for c in result.trial_costs],
        "rounds": int(result.rounds),
        "best_trial": int(result.best_trial),
        **_assignment_fields(result.placement),
    }


def lprr_result_to_dict(result: "LPRRResult") -> dict:
    """An :class:`~repro.core.lprr.LPRRResult` as a dict.

    The scoped subproblem is stored by object indices plus the
    effective capacities.
    """
    problem = result.placement.problem
    doc = {
        "schema": LPRR_RESULT_SCHEMA,
        "scope_indices": [
            problem.object_index(obj) for obj in result.scope_objects
        ],
        "lp_lower_bound": float(result.lp_lower_bound),
        "lp_stats": lp_stats_to_dict(result.lp_stats),
        "effective_capacities": [
            _encode_capacity(c) for c in result.effective_capacities
        ],
        "repaired": bool(result.repaired),
        "rounding": rounding_result_to_dict(result.rounding),
        **_assignment_fields(result.placement),
    }
    return doc


def evaluation_summary_to_dict(summary: "EvaluationSummary") -> dict:
    """An :class:`~repro.search.engine.EvaluationSummary` as a dict."""
    return {
        "schema": EVALUATION_SUMMARY_SCHEMA,
        "queries": int(summary.queries),
        "total_bytes": int(summary.total_bytes),
        "total_hops": int(summary.total_hops),
        "local_fraction": float(summary.local_fraction),
        "mean_bytes_per_query": float(summary.mean_bytes_per_query),
    }


def evaluation_summary_from_dict(data: dict) -> "EvaluationSummary":
    """Rebuild an evaluation summary from its dict form."""
    from repro.search.engine import EvaluationSummary

    if data.get("schema") != EVALUATION_SUMMARY_SCHEMA:
        raise TraceFormatError(
            f"expected schema {EVALUATION_SUMMARY_SCHEMA!r}, "
            f"got {data.get('schema')!r}"
        )
    try:
        return EvaluationSummary(
            queries=int(data["queries"]),
            total_bytes=int(data["total_bytes"]),
            total_hops=int(data["total_hops"]),
            local_fraction=float(data["local_fraction"]),
            mean_bytes_per_query=float(data["mean_bytes_per_query"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"malformed evaluation summary: {exc}") from exc
