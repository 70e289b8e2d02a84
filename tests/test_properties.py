"""Cross-cutting property-based tests (hypothesis).

Each property here spans modules: random problems flow through
strategies, rounding, repair, and migration, and structural invariants
must hold for every generated instance.  The paper's Theorems 2 and 3
run on both relaxation optima: the closed-form packing LPRR plans
from, and the HiGHS oracle.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.greedy import greedy_placement
from repro.core.hashing import random_hash_placement
from repro.core.decompose import component_groups
from repro.core.importance import importance_ranking, top_important
from repro.core.lp import pack_components, solve_placement_lp
from repro.core.migration import diff_placements, select_migrations
from repro.core.partial import scoped_placement
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.core.repair import repair_capacity
from repro.core.rounding import round_fractional


@st.composite
def problems(draw, max_objects=10, max_nodes=4, capacitated=True):
    """Random CCA instances with feasible capacities."""
    t = draw(st.integers(2, max_objects))
    n = draw(st.integers(2, max_nodes))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    sizes = rng.uniform(0.5, 3.0, t)
    objects = {f"o{i}": float(sizes[i]) for i in range(t)}
    if capacitated:
        slack = draw(st.floats(1.3, 3.0))
        capacity = float(sizes.sum() / n * slack + sizes.max())
        nodes = {k: capacity for k in range(n)}
    else:
        nodes = n
    correlations = {}
    for i in range(t):
        for j in range(i + 1, t):
            if rng.random() < 0.5:
                correlations[(f"o{i}", f"o{j}")] = float(rng.uniform(0.01, 1.0))
    return PlacementProblem.build(objects, nodes, correlations)


class TestStrategyInvariants:
    @settings(max_examples=30, deadline=None)
    @given(problem=problems())
    def test_every_strategy_is_total(self, problem):
        for placement in (
            random_hash_placement(problem),
            greedy_placement(problem),
        ):
            assert placement.assignment.shape == (problem.num_objects,)
            assert np.all(placement.assignment >= 0)
            assert np.all(placement.assignment < problem.num_nodes)

    @settings(max_examples=30, deadline=None)
    @given(problem=problems())
    def test_cost_bounded_by_total_weight(self, problem):
        for placement in (
            random_hash_placement(problem),
            greedy_placement(problem),
        ):
            cost = placement.communication_cost()
            assert -1e-12 <= cost <= problem.total_pair_weight + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(problem=problems(), scope=st.integers(0, 10))
    def test_scoped_placement_total_and_deterministic(self, problem, scope):
        a = scoped_placement(problem, scope, greedy_placement)
        b = scoped_placement(problem, scope, greedy_placement)
        assert np.array_equal(a.assignment, b.assignment)

    @settings(max_examples=30, deadline=None)
    @given(problem=problems())
    def test_importance_ranking_is_permutation(self, problem):
        ranking = importance_ranking(problem)
        assert sorted(map(str, ranking)) == sorted(map(str, problem.object_ids))
        assert top_important(problem, 3) == ranking[:3]


@st.composite
def packable_problems(draw, max_objects=12, max_nodes=5):
    """One-resource instances whose total capacity covers total size.

    Correlations come in clusters so components of every size occur,
    including ones larger than a node; node capacities are uneven.
    """
    t = draw(st.integers(1, max_objects))
    n = draw(st.integers(1, max_nodes))
    seed = draw(st.integers(0, 2**31 - 1))
    slack = draw(st.floats(1.0, 2.0))
    rng = np.random.default_rng(seed)
    sizes = rng.uniform(0.1, 3.0, t)
    shares = rng.uniform(0.2, 1.0, n)
    capacities = shares / shares.sum() * sizes.sum() * slack
    labels = rng.integers(0, max(1, t // 3), t)
    correlations = {}
    for i in range(t):
        for j in range(i + 1, t):
            if labels[i] == labels[j] and rng.random() < 0.7:
                correlations[(f"o{i}", f"o{j}")] = float(rng.uniform(0.01, 1.0))
    return PlacementProblem.build(
        {f"o{i}": float(sizes[i]) for i in range(t)},
        {k: float(capacities[k]) for k in range(n)},
        correlations,
    )


class TestClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(problem=packable_problems())
    def test_packed_vertex_is_an_lp_optimum(self, problem):
        packed = pack_components(problem)
        x = packed.fractions
        # Rows on the simplex.
        assert np.all(x >= 0.0)
        np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-12)
        # One row per component, and at most n - 1 of them fractional.
        fractional = 0
        for members in component_groups(problem):
            rows = x[members]
            assert np.array_equal(rows, np.broadcast_to(rows[0], rows.shape))
            fractional += bool(np.count_nonzero(rows[0]) > 1)
        assert fractional <= problem.num_nodes - 1
        # Expected loads within the capacities (Theorem 3's premise).
        scale = problem.total_capacity
        assert np.all(
            packed.expected_node_loads() <= problem.capacities + 1e-9 * scale
        )
        # Objective 0, which is the HiGHS oracle's optimum too.
        assert packed.lower_bound == 0.0
        oracle = solve_placement_lp(problem)
        assert oracle.lower_bound == pytest.approx(0.0, abs=1e-7)


RELAXATIONS = {"closed_form": pack_components, "oracle": solve_placement_lp}


class TestLPAndRounding:
    @settings(max_examples=20, deadline=None)
    @given(problem=problems(max_objects=7, max_nodes=3))
    def test_lp_bound_sound_and_rounding_total(self, problem):
        fractional = solve_placement_lp(problem)
        assert fractional.lower_bound >= -1e-9
        assert np.allclose(fractional.fractions.sum(axis=1), 1.0, atol=1e-6)
        placement, _ = round_fractional(fractional, rng=0)
        assert placement.assignment.shape == (problem.num_objects,)
        # Any rounded placement costs at least the LP bound.
        assert placement.communication_cost() >= fractional.lower_bound - 1e-6

    @pytest.mark.parametrize("relax", RELAXATIONS.values(), ids=RELAXATIONS)
    @settings(max_examples=20, deadline=None)
    @given(problem=problems(max_objects=7, max_nodes=3), seed=st.integers(0, 1000))
    def test_theorem2_rounding_cost_is_zero(self, relax, problem, seed):
        # Theorem 2: the expected rounded cost equals the LP optimum,
        # which is 0 here, so every draw colocates every pair.
        fractional = relax(problem)
        assert fractional.lower_bound == pytest.approx(0.0, abs=1e-7)
        placement, _ = round_fractional(fractional, rng=seed)
        assert placement.communication_cost() == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(problem=problems(max_objects=6, max_nodes=3))
    def test_expected_loads_within_capacity(self, problem):
        fractional = solve_placement_lp(problem)
        assert np.all(
            fractional.expected_node_loads() <= problem.capacities + 1e-6
        )

    @settings(max_examples=15, deadline=None)
    @given(problem=problems(max_objects=6, max_nodes=3))
    def test_expected_loads_within_capacity_closed_form(self, problem):
        # Theorem 3 on the packed vertex LPRR actually rounds.
        fractional = pack_components(problem)
        assert np.all(
            fractional.expected_node_loads() <= problem.capacities + 1e-6
        )


class TestRepairProperties:
    @settings(max_examples=30, deadline=None)
    @given(problem=problems(), seed=st.integers(0, 1000))
    def test_repair_yields_feasible_or_noop(self, problem, seed):
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, problem.num_nodes, problem.num_objects)
        placement = Placement(problem, assignment)
        repaired = repair_capacity(placement, tolerance=0.0)
        assert not repaired.capacity_violations()

    @settings(max_examples=30, deadline=None)
    @given(problem=problems(), seed=st.integers(0, 1000))
    def test_repair_idempotent(self, problem, seed):
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, problem.num_nodes, problem.num_objects)
        repaired = repair_capacity(Placement(problem, assignment))
        again = repair_capacity(repaired)
        assert again is repaired


class TestMigrationProperties:
    @settings(max_examples=30, deadline=None)
    @given(problem=problems(capacitated=False), seed=st.integers(0, 1000))
    def test_diff_apply_reaches_target(self, problem, seed):
        rng = np.random.default_rng(seed)
        current = Placement(
            problem, rng.integers(0, problem.num_nodes, problem.num_objects)
        )
        target = Placement(
            problem, rng.integers(0, problem.num_nodes, problem.num_objects)
        )
        plan = diff_placements(current, target)
        assert plan.apply(current) == target
        assert plan.bytes_moved == pytest.approx(
            sum(m.size for m in plan.migrations)
        )

    @settings(max_examples=30, deadline=None)
    @given(
        problem=problems(capacitated=False),
        seed=st.integers(0, 1000),
        budget_factor=st.floats(0.0, 1.0),
    )
    def test_selection_never_increases_cost(self, problem, seed, budget_factor):
        rng = np.random.default_rng(seed)
        current = Placement(
            problem, rng.integers(0, problem.num_nodes, problem.num_objects)
        )
        target = Placement(
            problem, rng.integers(0, problem.num_nodes, problem.num_objects)
        )
        budget = problem.total_size * budget_factor
        plan = select_migrations(current, target, budget_bytes=budget)
        assert plan.bytes_moved <= budget + 1e-9
        assert plan.cost_after <= plan.cost_before + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(problem=problems(capacitated=False), seed=st.integers(0, 1000))
    def test_unbudgeted_selection_at_most_full_plan_bytes(self, problem, seed):
        rng = np.random.default_rng(seed)
        current = Placement(
            problem, rng.integers(0, problem.num_nodes, problem.num_objects)
        )
        target = Placement(
            problem, rng.integers(0, problem.num_nodes, problem.num_objects)
        )
        full = diff_placements(current, target)
        selected = select_migrations(current, target)
        assert selected.bytes_moved <= full.bytes_moved + 1e-9
        # Selection skips harmful moves, so it ends at least as cheap
        # as the better of (stay, go fully).
        assert selected.cost_after <= max(full.cost_after, full.cost_before) + 1e-9
