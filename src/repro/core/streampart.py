"""One-pass streaming graph partitioner — the serving loop's replan tier.

LPRR solves the CCA relaxation well but is far too slow to run inside a
serving latency budget.  Streaming partitioners (Fennel, LDG; see
PAPERS.md "Distributed Data Placement via Graph Partitioning") place
each vertex exactly once with a greedy score that trades neighbor
affinity against a capacity penalty, touching every edge once.  That
makes replanning cost linear in the trace instead of cubic-ish in the
LP, which is what the online router needs between hot-swaps.

The scoring rule here is the weighted-LDG form: a node's score for
vertex ``v`` is the total correlation weight of ``v``'s already-placed
neighbors on that node, discounted by the node's load fraction
(``1 - load/capacity``).  Vertices whose neighbors are all unplaced (or
absent) fall back to the least-loaded feasible node, which doubles as
the balanced completion pass.

The pass is sequential by nature, so it runs on Python lists and
floats: per vertex that is a handful of list operations over the ``n``
nodes instead of a dozen small numpy calls.  The arithmetic is the
same IEEE double arithmetic in the same order as the array form, and
ties and NaN scores resolve as ``np.argmax``/``np.argmin`` resolve
them, so the placement is bit-for-bit the array form's.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.placement import Placement
from repro.core.problem import PlacementProblem

__all__ = ["streaming_greedy_placement"]


def streaming_greedy_placement(problem: PlacementProblem) -> Placement:
    """Place every object in one streaming pass (weighted LDG).

    Vertices stream by descending weighted degree (stable on ties), so
    hubs anchor their communities early.

    Returns:
        A total placement.  Capacities are respected while any node
        still fits the vertex; an overflowing vertex goes to the node
        with the most free space, mirroring the greedy baseline's
        tolerance of slight overruns.
    """
    t = problem.num_objects
    degree = np.zeros(t)
    if problem.num_pairs:
        np.add.at(degree, problem.pair_index[:, 0], problem.pair_weights)
        np.add.at(degree, problem.pair_index[:, 1], problem.pair_weights)
    stream = np.argsort(-degree, kind="stable").tolist()

    offsets, neighbor, weight = (a.tolist() for a in _adjacency(problem))
    sizes = problem.sizes.tolist()
    capacities = problem.capacities.tolist()
    free = list(capacities)
    budgets = [
        (spec.loads.tolist(), spec.budgets.tolist()) for spec in problem.resources
    ]
    # ``1 - load/capacity`` with degenerate capacities treated as full.
    safe_cap = [c if c > 0 else 1.0 for c in capacities]
    assignment = [-1] * t

    for v in stream:
        size = sizes[v]
        feasible = [f >= size for f in free]
        for loads, left in budgets:
            load = loads[v]
            feasible = [ok and r >= load for ok, r in zip(feasible, left)]
        if not any(feasible):
            k = _argmax(free)
        else:
            gains = [0.0] * len(free)
            lo, hi = offsets[v], offsets[v + 1]
            for u, w in zip(neighbor[lo:hi], weight[lo:hi]):
                home = assignment[u]
                if home >= 0:
                    gains[home] += w
            # A feasible node's free space is at least the (positive)
            # size, so ``max(free, 0)`` is the free space itself.
            k = _argmax([
                g * f / c if ok else -math.inf
                for g, f, c, ok in zip(gains, free, safe_cap, feasible)
            ])
            if gains[k] <= 0.0:
                # No placed neighbors anywhere feasible: balance instead
                # (least loaded fraction, lowest index on ties).
                k = _argmin([
                    (cap - f) / c if ok else math.inf
                    for cap, f, c, ok in zip(capacities, free, safe_cap, feasible)
                ])
        assignment[v] = k
        free[k] -= size
        for loads, left in budgets:
            left[k] -= loads[v]

    return Placement(problem, np.asarray(assignment, dtype=np.int64))


def _argmax(values: list[float]) -> int:
    """``np.argmax`` on floats: the first maximum, or the first NaN."""
    best, k = values[0], 0
    for i, x in enumerate(values):
        if not x <= best:
            best, k = x, i
            if x != x:
                break
    return k


def _argmin(values: list[float]) -> int:
    """``np.argmin`` on floats: the first minimum, or the first NaN."""
    best, k = values[0], 0
    for i, x in enumerate(values):
        if not x >= best:
            best, k = x, i
            if x != x:
                break
    return k


def _adjacency(
    problem: PlacementProblem,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR adjacency (offsets, neighbors, weights) over the pair list."""
    t = problem.num_objects
    if problem.num_pairs == 0:
        offsets = np.zeros(t + 1, dtype=np.int64)
        return offsets, np.empty(0, dtype=np.int64), np.empty(0)
    src = np.concatenate([problem.pair_index[:, 0], problem.pair_index[:, 1]])
    dst = np.concatenate([problem.pair_index[:, 1], problem.pair_index[:, 0]])
    w = np.concatenate([problem.pair_weights, problem.pair_weights])
    order = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=t)
    offsets = np.zeros(t + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, dst[order], w[order]
