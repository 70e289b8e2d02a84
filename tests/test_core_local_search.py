"""Tests for local-search placement (repro.core.local_search)."""

import numpy as np
import pytest

from repro.core.greedy import greedy_placement
from repro.core.local_search import local_search_placement
from repro.core.problem import PlacementProblem


@pytest.fixture
def clustered():
    return PlacementProblem.build(
        objects={f"o{i}": 1.0 for i in range(8)},
        nodes={k: 4.0 for k in range(2)},
        correlations={
            ("o0", "o1"): 0.9,
            ("o2", "o3"): 0.8,
            ("o4", "o5"): 0.7,
            ("o6", "o7"): 0.6,
            ("o0", "o2"): 0.05,
        },
    )


class TestLocalSearch:
    def test_respects_capacity(self, clustered):
        improved = local_search_placement(clustered)
        assert improved.is_feasible()

    def test_default_start_is_greedy(self, clustered):
        improved = local_search_placement(clustered, rng=1)
        greedy_cost = greedy_placement(clustered).communication_cost()
        assert improved.communication_cost() <= greedy_cost + 1e-12

    def test_swaps_escape_capacity_lock(self):
        """Full nodes block single moves; only a swap can fix the split."""
        p = PlacementProblem.build(
            {"a": 2.0, "b": 2.0, "c": 2.0, "d": 2.0},
            {0: 4.0, 1: 4.0},
            {("a", "c"): 0.5, ("a", "b"): 0.4, ("c", "d"): 0.4, ("b", "d"): 0.1},
        )
        # Greedy fills node 0 with a,c and node 1 with b,d, splitting
        # (a,b) and (c,d): with w = min(sizes) = 2 the cost is 1.6, and
        # both nodes are full.  Swapping c and b splits (a,c) and (b,d).
        assert greedy_placement(p).communication_cost() == pytest.approx(1.6)
        improved = local_search_placement(p, rng=0)
        assert improved.communication_cost() == pytest.approx(1.2)

    def test_deterministic_under_seed(self, clustered):
        a = local_search_placement(clustered, rng=42)
        b = local_search_placement(clustered, rng=42)
        assert np.array_equal(a.assignment, b.assignment)

    def test_no_pairs_noop(self):
        p = PlacementProblem.build({"a": 1.0, "b": 1.0}, 2, {})
        result = local_search_placement(p)
        assert np.array_equal(result.assignment, greedy_placement(p).assignment)
