"""Random hash-based placement — the paper's primary baseline.

Section 4.1: "the inverted index of each keyword is placed at a node
based on its MD5 hash code ... divide the hash code by the number of
nodes and use the remainder as the ID of the placed node."
"""

from __future__ import annotations

import hashlib
from typing import Hashable

import numpy as np

from repro.core.placement import Placement
from repro.core.problem import PlacementProblem


def hash_node(obj: Hashable, num_nodes: int, salt: str = "") -> int:
    """Node index for ``obj`` under MD5-mod-n hashing.

    Args:
        obj: Object id; hashed via ``repr`` for non-string ids.
        num_nodes: Number of nodes (``n >= 1``).
        salt: Prefix of the hashed text; replicated hashing gives
            each replica its own (see
            :func:`~repro.core.replication.replicate_hash`).

    Returns:
        An integer in ``[0, num_nodes)``.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be at least 1")
    text = obj if isinstance(obj, str) else repr(obj)
    digest = hashlib.md5((salt + text).encode("utf-8")).digest()
    return int.from_bytes(digest, "big") % num_nodes


def random_hash_placement(problem: PlacementProblem) -> Placement:
    """Place every object by MD5-mod-n hashing (correlation-oblivious).

    Note that hash placement ignores capacities entirely; with enough
    objects the loads concentrate near the mean, which is why it is the
    practical default the paper compares against.
    """
    n = problem.num_nodes
    assignment = np.fromiter(
        (hash_node(obj, n) for obj in problem.object_ids),
        dtype=np.int64,
        count=problem.num_objects,
    )
    return Placement(problem, assignment)
