"""Tests for component decomposition (repro.core.decompose)."""

import numpy as np
import pytest

from repro.core.decompose import UnionFind, correlation_components
from repro.core.lp import solve_placement_lp
from repro.core.lprr import LPRRPlanner
from repro.core.problem import PlacementProblem
from repro.core.rounding import round_best_of


class TestUnionFind:
    def test_initial_singletons(self):
        dsu = UnionFind(3)
        assert dsu.groups() == [[0], [1], [2]]

    def test_union_merges(self):
        dsu = UnionFind(4)
        assert dsu.union(0, 1)
        assert dsu.union(2, 3)
        assert dsu.groups() == [[0, 1], [2, 3]]

    def test_union_idempotent(self):
        dsu = UnionFind(2)
        assert dsu.union(0, 1)
        assert not dsu.union(1, 0)

    def test_transitive_chain(self):
        dsu = UnionFind(5)
        for a, b in ((0, 1), (1, 2), (3, 4)):
            dsu.union(a, b)
        assert dsu.find(0) == dsu.find(2)
        assert dsu.find(3) != dsu.find(0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    def test_empty(self):
        assert UnionFind(0).groups() == []


@pytest.fixture
def problem():
    # Components: {a, b, c} (chain), {d, e}, singleton {f}; g has a
    # zero-weight pair with f (must NOT connect them).
    return PlacementProblem.build(
        objects={"a": 1.0, "b": 1.0, "c": 1.0, "d": 5.0, "e": 5.0, "f": 2.0, "g": 1.0},
        nodes=3,
        correlations={
            ("a", "b"): 0.5,
            ("b", "c"): 0.5,
            ("d", "e"): 0.9,
            ("f", "g"): 0.0,
        },
    )


class TestComponents:
    def test_structure(self, problem):
        components = correlation_components(problem)
        as_sets = [set(c) for c in components]
        assert {"a", "b", "c"} in as_sets
        assert {"d", "e"} in as_sets
        assert {"f"} in as_sets
        assert {"g"} in as_sets

    def test_ordered_by_bytes_descending(self, problem):
        components = correlation_components(problem)
        sizes = [sum(problem.size_of(o) for o in c) for c in components]
        assert sizes == sorted(sizes, reverse=True)

    def test_zero_weight_pairs_do_not_connect(self, problem):
        components = correlation_components(problem)
        for component in components:
            assert not {"f", "g"} <= set(component)

    def test_no_pairs_all_singletons(self):
        p = PlacementProblem.build({"a": 1.0, "b": 2.0}, 2, {})
        assert [set(c) for c in correlation_components(p)] == [{"b"}, {"a"}]


class TestDecomposedPlanner:
    def test_matches_monolithic_quality(self):
        rng = np.random.default_rng(0)
        objects = {f"o{i}": float(rng.uniform(1, 2)) for i in range(24)}
        correlations = {}
        for c in range(6):  # six 4-cliques
            members = [f"o{4*c + k}" for k in range(4)]
            for i in range(4):
                for j in range(i + 1, 4):
                    correlations[(members[i], members[j])] = 0.5
        total = sum(objects.values())
        problem = PlacementProblem.build(
            objects, {k: total for k in range(6)}, correlations
        )

        # LPRR packs the LP per component; the monolithic HiGHS solve
        # of the same relaxation is the oracle it must match.
        oracle = solve_placement_lp(problem)
        mono = round_best_of(oracle, trials=10, rng=0)
        deco = LPRRPlanner(
            seed=0, rounding_trials=10, capacity_factor=None
        ).plan(problem)
        # Both colocate every clique: zero cost.
        assert mono.cost == pytest.approx(0.0)
        assert deco.cost == pytest.approx(0.0)
        assert deco.lp_lower_bound == pytest.approx(oracle.lower_bound, abs=1e-6)

    def test_decomposed_respects_capacity_via_repair(self):
        objects = {f"o{i}": 1.0 for i in range(12)}
        correlations = {
            (f"o{3*c}", f"o{3*c + k}"): 0.5 for c in range(4) for k in (1, 2)
        }
        problem = PlacementProblem.build(objects, 4, correlations)
        result = LPRRPlanner(
            seed=1, capacity_factor=1.1, rounding_trials=10
        ).plan(problem)
        loads = result.placement.node_loads()
        assert loads.max() <= 1.1 * problem.total_size / 4 * 1.1 + 1e-9
