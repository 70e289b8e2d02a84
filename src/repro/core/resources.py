"""Additional node-capacity constraints (Section 3.3).

Beyond storage, the paper notes that "other node capacity constraints
such as network bandwidth and CPU processing capability may also be
present.  In principle, we can address these problems by introducing
more capacity constraints into our linear programming problem in a way
similar to (9)."

A :class:`ResourceSpec` is exactly that: a named per-object load vector
(e.g. expected queries/second served by each object's index) and a
per-node budget vector.  Problems carry any number of specs; the LP adds
one row per (resource, node), and the capacity-aware strategies (greedy,
best-fit, exact, repair) treat every resource like storage.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.exceptions import ProblemDefinitionError


class ResourceSpec:
    """One extra node-capacity dimension.

    Attributes:
        name: Resource name (e.g. ``"bandwidth"``, ``"cpu"``).
        loads: Per-object demand, aligned with the problem's object
            order.
        budgets: Per-node budget, aligned with the problem's node
            order.
    """

    def __init__(self, name: str, loads: np.ndarray, budgets: np.ndarray):
        self.name = str(name)
        self.loads = np.asarray(loads, dtype=float)
        self.budgets = np.asarray(budgets, dtype=float)
        if not self.name:
            raise ProblemDefinitionError("resource name must be non-empty")
        if np.any(self.loads < 0) or not np.all(np.isfinite(self.loads)):
            raise ProblemDefinitionError(
                f"resource {self.name!r}: loads must be finite and nonnegative"
            )
        if not np.all(self.budgets >= 0):  # NaN compares false too
            raise ProblemDefinitionError(
                f"resource {self.name!r}: budgets must be nonnegative, not NaN"
            )

    @classmethod
    def from_mappings(
        cls,
        name: str,
        loads: Mapping[Hashable, float],
        budgets: Mapping[Hashable, float] | float,
        object_ids: Sequence[Hashable],
        node_ids: Sequence[Hashable],
    ) -> "ResourceSpec":
        """Build a spec from id-keyed mappings.

        Args:
            name: Resource name.
            loads: Object id -> demand; missing objects default to 0.
            budgets: Node id -> budget, or a scalar applied to every
                node.
            object_ids: The problem's object order.
            node_ids: The problem's node order.
        """
        load_vec = np.asarray([float(loads.get(o, 0.0)) for o in object_ids])
        if isinstance(budgets, (int, float)):
            budget_vec = np.full(len(node_ids), float(budgets))
        else:
            try:
                budget_vec = np.asarray([float(budgets[k]) for k in node_ids])
            except KeyError as exc:
                raise ProblemDefinitionError(
                    f"resource {name!r}: missing budget for node {exc}"
                ) from exc
        return cls(name, load_vec, budget_vec)

    @property
    def total_load(self) -> float:
        """Aggregate demand over all objects."""
        return float(self.loads.sum())

    @property
    def total_budget(self) -> float:
        """Aggregate budget over all nodes."""
        return float(self.budgets.sum())

    def is_trivially_infeasible(self) -> bool:
        """True when total demand exceeds total budget."""
        return self.total_load > self.total_budget + 1e-9

    def subset(self, indices: np.ndarray) -> "ResourceSpec":
        """Spec restricted to a subset of objects (budgets unchanged)."""
        return ResourceSpec(self.name, self.loads[indices], self.budgets)

    def __repr__(self) -> str:
        return (
            f"ResourceSpec({self.name!r}, total_load={self.total_load:.6g}, "
            f"total_budget={self.total_budget:.6g})"
        )
