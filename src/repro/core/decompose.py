"""Connected components of the correlation graph.

Two objects interact in the CCA objective only through correlated-pair
chains, so the correlation graph's connected components are independent
*except* for the shared capacity constraint.  That is why the relaxed
LP's optimum is a packing of whole components into node capacity
(DESIGN.md §5.1, :func:`repro.core.lp.pack_components`).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.problem import ObjectId, PlacementProblem


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("size must be nonnegative")
        # Plain lists: scalar access is the whole workload.
        self._parent = list(range(size))
        self._size = [1] * size

    def find(self, x: int) -> int:
        """Representative of ``x``'s set."""
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True

    def groups(self) -> list[list[int]]:
        """All sets, each as a sorted list of members."""
        by_root: dict[int, list[int]] = {}
        for x in range(len(self._parent)):
            by_root.setdefault(self.find(x), []).append(x)
        return sorted(by_root.values(), key=lambda g: g[0])


def component_groups(problem: PlacementProblem) -> list[np.ndarray]:
    """Connected components of the correlation graph, as index arrays.

    Only pairs with positive objective weight connect objects (zero-
    weight pairs cannot affect any placement's cost).  Components are
    ordered by total byte size, largest first, ties broken by their
    smallest object index — the order
    :func:`~repro.core.lp.pack_components` fills nodes in.
    """
    t = problem.num_objects
    with obs.span("decompose", objects=t) as span:
        dsu = UnionFind(t)
        for i, j in problem.pair_index[problem.pair_weights > 0].tolist():
            dsu.union(i, j)
        roots = np.fromiter((dsu.find(x) for x in range(t)), np.int64, t)
        _, first, labels = np.unique(roots, return_index=True, return_inverse=True)
        nbytes = np.bincount(labels, weights=problem.sizes, minlength=first.size)
        rank = np.empty(first.size, dtype=np.int64)
        rank[np.lexsort((first, -nbytes))] = np.arange(first.size)
        order = np.argsort(rank[labels], kind="stable")
        counts = np.bincount(rank[labels], minlength=first.size)
        groups = np.split(order, np.cumsum(counts)[:-1]) if t else []
        span.set(components=len(groups))
    obs.gauge("decompose.components").set(len(groups))
    if groups:
        obs.gauge("decompose.largest_component").set(len(groups[0]))
    return groups


def correlation_components(problem: PlacementProblem) -> list[list[ObjectId]]:
    """:func:`component_groups` as lists of object ids."""
    return [
        [problem.object_ids[i] for i in group] for group in component_groups(problem)
    ]
