"""Object-importance ranking for partial optimization.

Section 4.2's ranking scheme: rank all object pairs by their
inter-object communication cost ``r(i,j) * w(i,j)`` descending; an
object's importance is its first appearance in that pair ranking.
Objects that never appear in a correlated pair are ranked last
(largest sizes first among those, so the capacity-heavy objects still
tend to enter the optimization scope).
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import ObjectId, PlacementProblem


def importance_ranking(problem: PlacementProblem) -> list[ObjectId]:
    """All object ids ordered from most to least important."""
    order = _importance_order(problem)
    return [problem.object_ids[i] for i in order]


def importance_scores(problem: PlacementProblem) -> np.ndarray:
    """Ranks (0 = most important) aligned with ``problem.object_ids``."""
    order = _importance_order(problem)
    scores = np.empty(problem.num_objects, dtype=np.int64)
    scores[order] = np.arange(problem.num_objects)
    return scores


def top_important(problem: PlacementProblem, scope: int) -> list[ObjectId]:
    """The ``scope`` most important object ids.

    Args:
        problem: The CCA instance.
        scope: Number of objects to keep; clipped to ``|T|``.
    """
    if scope < 0:
        raise ValueError("scope must be nonnegative")
    return importance_ranking(problem)[:scope]


def _importance_order(problem: PlacementProblem) -> np.ndarray:
    by_size = np.argsort(-problem.sizes, kind="stable")
    if problem.num_pairs == 0:
        return by_size

    # Pairs by descending weight, ties in (i, j) order: the pairs are
    # distinct, so any sort of their keys is the (i, j) order, and a
    # stable weight sort on top of it is the three-key lexsort.
    t = problem.num_objects
    pair_index = problem.pair_index
    by_key = np.argsort(pair_index[:, 0] * t + pair_index[:, 1])
    pair_order = by_key[np.argsort(-problem.pair_weights[by_key], kind="stable")]
    # Each ranked pair's endpoints, i then j; an object's importance is
    # the position of its first appearance in that stream.
    ends = pair_index[pair_order].ravel()
    first = np.full(t, ends.size)
    np.minimum.at(first, ends, np.arange(ends.size))
    paired = np.argsort(first, kind="stable")[: np.count_nonzero(first < ends.size)]

    # Never-paired objects last, ordered by size descending (stable).
    return np.concatenate([paired, by_size[first[by_size] == ends.size]])
