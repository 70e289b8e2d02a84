"""Placements and their evaluation.

A :class:`Placement` is a total assignment ``f: T -> N`` for a
:class:`~repro.core.problem.PlacementProblem`.  It evaluates the
paper's objective (1) — the total communication cost over pairs split
across nodes — and the capacity constraint (2), both vectorized.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.core.problem import NodeId, ObjectId, PlacementProblem
from repro.exceptions import PlacementError


def check_tolerance(tolerance: float) -> None:
    """Reject a NaN or infinite relative capacity slack."""
    if not math.isfinite(tolerance):
        raise ValueError(f"tolerance must be finite, got {tolerance!r}")


class Placement:
    """An assignment of every object to exactly one node.

    Attributes:
        problem: The problem this placement solves.
        assignment: ``(t,)`` int array; ``assignment[i]`` is the node
            index hosting object ``i``.
    """

    def __init__(self, problem: PlacementProblem, assignment: np.ndarray):
        self.problem = problem
        self.assignment = np.asarray(assignment, dtype=np.int64)
        if self.assignment.shape != (problem.num_objects,):
            raise PlacementError(
                f"assignment has shape {self.assignment.shape}, "
                f"expected ({problem.num_objects},)"
            )
        if problem.num_objects and (
            self.assignment.min() < 0 or self.assignment.max() >= problem.num_nodes
        ):
            raise PlacementError("assignment contains out-of-range node indices")

    @classmethod
    def from_mapping(
        cls, problem: PlacementProblem, mapping: Mapping[ObjectId, NodeId]
    ) -> "Placement":
        """Build a placement from an object-id -> node-id mapping."""
        assignment = np.empty(problem.num_objects, dtype=np.int64)
        seen = 0
        for obj, node in mapping.items():
            assignment[problem.object_index(obj)] = problem.node_index(node)
            seen += 1
        if seen != problem.num_objects:
            raise PlacementError(
                f"mapping covers {seen} of {problem.num_objects} objects"
            )
        return cls(problem, assignment)

    # ------------------------------------------------------------------
    # Objective and constraints
    # ------------------------------------------------------------------
    def communication_cost(self) -> float:
        """Objective (1): ``sum r(i,j) * w(i,j)`` over split pairs."""
        p = self.problem
        if not p.num_pairs:
            return 0.0
        split = (
            self.assignment[p.pair_index[:, 0]] != self.assignment[p.pair_index[:, 1]]
        )
        return float(p.pair_weights[split].sum())

    def colocated_weight(self) -> float:
        """Pair weight saved by co-location (complement of the cost)."""
        return self.problem.total_pair_weight - self.communication_cost()

    def node_loads(self) -> np.ndarray:
        """Total object size placed on each node."""
        return np.bincount(
            self.assignment,
            weights=self.problem.sizes,
            minlength=self.problem.num_nodes,
        )

    def node_object_counts(self) -> np.ndarray:
        """Number of objects placed on each node."""
        return np.bincount(self.assignment, minlength=self.problem.num_nodes)

    def capacity_violations(self, tolerance: float = 0.0) -> dict[NodeId, float]:
        """Nodes whose load exceeds capacity, mapped to the excess.

        Args:
            tolerance: Relative slack: a node only counts as violated
                when its load exceeds ``capacity * (1 + tolerance)``.

        Raises:
            ValueError: If ``tolerance`` is NaN or infinite (a NaN
                limit would pass every node).
        """
        check_tolerance(tolerance)
        loads = self.node_loads()
        limits = self.problem.capacities * (1.0 + tolerance)
        violated = np.where(loads > limits + 1e-9)[0]
        return {
            self.problem.node_ids[k]: float(loads[k] - self.problem.capacities[k])
            for k in violated
        }

    def resource_loads(self, name: str) -> np.ndarray:
        """Per-node total demand for one extra resource (Section 3.3)."""
        spec = self.problem.resource(name)
        return np.bincount(
            self.assignment, weights=spec.loads, minlength=self.problem.num_nodes
        )

    def resource_violations(self, tolerance: float = 0.0) -> dict[str, dict[NodeId, float]]:
        """Per-resource nodes whose demand exceeds the budget.

        Raises:
            ValueError: If ``tolerance`` is NaN or infinite.
        """
        check_tolerance(tolerance)
        result: dict[str, dict[NodeId, float]] = {}
        for spec in self.problem.resources:
            loads = np.bincount(
                self.assignment, weights=spec.loads, minlength=self.problem.num_nodes
            )
            limits = spec.budgets * (1.0 + tolerance)
            violated = np.where(loads > limits + 1e-9)[0]
            if violated.size:
                result[spec.name] = {
                    self.problem.node_ids[k]: float(loads[k] - spec.budgets[k])
                    for k in violated
                }
        return result

    def is_feasible(self, tolerance: float = 0.0, include_resources: bool = True) -> bool:
        """Whether constraint (2) — and, by default, every Section 3.3
        resource budget — holds up to a relative tolerance."""
        if self.capacity_violations(tolerance):
            return False
        return not (include_resources and self.resource_violations(tolerance))

    def load_imbalance(self) -> float:
        """Max node load divided by mean node load (1.0 = perfectly even)."""
        loads = self.node_loads()
        mean = loads.mean()
        return float(loads.max() / mean) if mean > 0 else 0.0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def node_of(self, obj: ObjectId) -> NodeId:
        """The node id hosting ``obj``."""
        return self.problem.node_ids[self.assignment[self.problem.object_index(obj)]]

    def to_mapping(self) -> dict[ObjectId, NodeId]:
        """The placement as an object-id -> node-id dict."""
        return {
            obj: self.problem.node_ids[k]
            for obj, k in zip(self.problem.object_ids, self.assignment)
        }

    def objects_on(self, node: NodeId) -> list[ObjectId]:
        """Object ids placed on ``node``."""
        k = self.problem.node_index(node)
        return [
            self.problem.object_ids[i]
            for i in np.where(self.assignment == k)[0]
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return self.problem is other.problem and np.array_equal(
            self.assignment, other.assignment
        )

    def __repr__(self) -> str:
        return (
            f"Placement(cost={self.communication_cost():.6g}, "
            f"feasible={self.is_feasible()})"
        )
