"""Second tranche of cross-cutting property tests (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decompose import correlation_components
from repro.core.greedy import greedy_placement
from repro.core.local_search import local_search_placement
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.core.replication import greedy_replicated_placement

from tests.helpers import flat_hash


@st.composite
def problems(draw, max_objects=12, max_nodes=5):
    t = draw(st.integers(2, max_objects))
    n = draw(st.integers(2, max_nodes))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    sizes = rng.uniform(0.5, 2.0, t)
    objects = {f"o{i}": float(sizes[i]) for i in range(t)}
    capacity = float(sizes.sum() / n * 2.0 + sizes.max())
    correlations = {}
    for i in range(t):
        for j in range(i + 1, t):
            if rng.random() < 0.4:
                correlations[(f"o{i}", f"o{j}")] = float(rng.uniform(0.01, 1.0))
    return PlacementProblem.build(
        objects, {k: capacity for k in range(n)}, correlations
    )


class TestReplicationProperties:
    @settings(max_examples=25, deadline=None)
    @given(problem=problems(), replicas=st.integers(1, 2))
    def test_hash_replication_valid_and_deterministic(self, problem, replicas):
        a = flat_hash(problem, replicas)
        b = flat_hash(problem, replicas)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.replication_factor == replicas
        # Any-copy cost never exceeds the primary's single-copy cost.
        assert a.communication_cost() <= a.primary().communication_cost() + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(problem=problems())
    def test_greedy_replication_never_worse_than_primary(self, problem):
        replicated = greedy_replicated_placement(problem, replicas=2)
        assert (
            replicated.communication_cost()
            <= replicated.primary().communication_cost() + 1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(problem=problems())
    def test_replica_loads_sum_to_copies_times_size(self, problem):
        replicated = flat_hash(problem, 2)
        assert replicated.node_loads().sum() == pytest.approx(
            2 * problem.total_size
        )


class TestLocalSearchProperties:
    @settings(max_examples=20, deadline=None)
    @given(problem=problems(max_objects=8, max_nodes=3), seed=st.integers(0, 500))
    def test_monotone_improvement(self, problem, seed):
        start = greedy_placement(problem)
        improved = local_search_placement(problem, rng=seed)
        assert (
            improved.communication_cost() <= start.communication_cost() + 1e-12
        )

    @settings(max_examples=20, deadline=None)
    @given(problem=problems(max_objects=8, max_nodes=3))
    def test_local_optimum_fixed_point(self, problem):
        # No capacity-feasible single move lowers the cost any further.
        placement = local_search_placement(problem, rng=0)
        cost = placement.communication_cost()
        loads = placement.node_loads()
        for i in range(problem.num_objects):
            src = int(placement.assignment[i])
            for dst in range(problem.num_nodes):
                size = problem.sizes[i]
                if dst == src or loads[dst] + size > problem.capacities[dst] + 1e-9:
                    continue
                moved = placement.assignment.copy()
                moved[i] = dst
                assert Placement(problem, moved).communication_cost() >= cost - 1e-9


class TestDecomposeProperties:
    @settings(max_examples=30, deadline=None)
    @given(problem=problems())
    def test_components_partition_objects(self, problem):
        components = correlation_components(problem)
        flattened = [obj for comp in components for obj in comp]
        assert sorted(map(str, flattened)) == sorted(map(str, problem.object_ids))

    @settings(max_examples=30, deadline=None)
    @given(problem=problems())
    def test_no_positive_pair_crosses_components(self, problem):
        components = correlation_components(problem)
        index_of = {}
        for c, comp in enumerate(components):
            for obj in comp:
                index_of[obj] = c
        for pair in problem.pairs():
            if pair.weight > 0:
                a = problem.object_ids[pair.i]
                b = problem.object_ids[pair.j]
                assert index_of[a] == index_of[b]
