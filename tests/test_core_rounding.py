"""Tests for randomized rounding (repro.core.rounding) including the
paper's Lemma 1 / Theorem 2 guarantees checked empirically."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lp import FractionalPlacement, LPStats, solve_placement_lp
from repro.core.problem import PlacementProblem
from repro.core.rounding import round_best_of, round_fractional
from repro.exceptions import SolverError

DUMMY_STATS = LPStats(0, 0, 0, 0.0, 0)


def make_fractional(problem, fractions, bound=0.0):
    return FractionalPlacement(problem, np.asarray(fractions, float), bound, DUMMY_STATS)


@pytest.fixture
def uniform_fractional():
    p = PlacementProblem.build(
        {"a": 1.0, "b": 1.0}, 2, {("a", "b"): 1.0}
    )
    return p, make_fractional(p, [[0.5, 0.5], [0.5, 0.5]])


@pytest.fixture
def split_fractional():
    """Distinct rows, so trials split pairs differently and costs vary."""
    p = PlacementProblem.build(
        {"a": 1.0, "b": 1.0, "c": 1.0}, 2, {("a", "b"): 1.0, ("b", "c"): 0.5}
    )
    return make_fractional(p, [[0.7, 0.3], [0.4, 0.6], [0.2, 0.8]])


class TestRoundFractional:
    def test_places_every_object(self, uniform_fractional):
        _, frac = uniform_fractional
        placement, rounds = round_fractional(frac, rng=0)
        assert np.all(placement.assignment >= 0)
        assert rounds >= 1

    def test_integral_input_is_respected(self):
        p = PlacementProblem.build({"a": 1.0, "b": 1.0}, 2, {})
        frac = make_fractional(p, [[1.0, 0.0], [0.0, 1.0]])
        placement, _ = round_fractional(frac, rng=1)
        assert placement.assignment.tolist() == [0, 1]

    def test_deterministic_under_seed(self, uniform_fractional):
        _, frac = uniform_fractional
        p1, _ = round_fractional(frac, rng=42)
        p2, _ = round_fractional(frac, rng=42)
        assert np.array_equal(p1.assignment, p2.assignment)

    def test_lemma1_marginals(self):
        """Lemma 1: object i lands on node k with probability x[i,k]."""
        p = PlacementProblem.build({"a": 1.0, "b": 1.0}, 3, {})
        target = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        frac = make_fractional(p, target)
        rng = np.random.default_rng(0)
        counts = np.zeros((2, 3))
        trials = 4000
        for _ in range(trials):
            placement, _ = round_fractional(frac, rng)
            counts[0, placement.assignment[0]] += 1
            counts[1, placement.assignment[1]] += 1
        assert np.allclose(counts / trials, target, atol=0.03)

    def test_identical_rows_usually_colocate(self):
        """Correlated rounding: objects with identical fractions are
        placed together (Lemma 2 with z=0 -> separation probability 0)."""
        p = PlacementProblem.build(
            {"a": 1.0, "b": 1.0}, 4, {("a", "b"): 1.0}
        )
        frac = make_fractional(p, [[0.25] * 4, [0.25] * 4])
        rng = np.random.default_rng(1)
        for _ in range(200):
            placement, _ = round_fractional(frac, rng)
            assert placement.assignment[0] == placement.assignment[1]

    def test_theorem2_expected_cost_matches_lp(self):
        """Theorem 2: E[rounded cost] == LP optimum (within CI)."""
        p = PlacementProblem.build(
            {"a": 2.0, "b": 2.0, "c": 2.0},
            {0: 3.0, 1: 3.0},
            {("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 1.0},
        )
        frac = solve_placement_lp(p)
        rng = np.random.default_rng(5)
        costs = [round_fractional(frac, rng)[0].communication_cost() for _ in range(3000)]
        mean = float(np.mean(costs))
        sem = float(np.std(costs) / np.sqrt(len(costs)))
        assert abs(mean - frac.lower_bound) < 5 * sem + 1e-6

    def test_nonconvergence_guard(self):
        p = PlacementProblem.build({"a": 1.0}, 2, {})
        # Degenerate row summing to ~0 can never be hit by a threshold > 0.
        frac = make_fractional(p, [[0.0, 0.0]])
        with pytest.raises(SolverError, match="did not converge"):
            round_fractional(frac, rng=0, max_rounds=50)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), t=st.integers(1, 8), n=st.integers(1, 5))
    def test_property_always_total_assignment(self, seed, t, n):
        rng = np.random.default_rng(seed)
        fractions = rng.dirichlet(np.ones(n), size=t)
        p = PlacementProblem.build({f"o{i}": 1.0 for i in range(t)}, n, {})
        frac = make_fractional(p, fractions)
        placement, _ = round_fractional(frac, rng=seed)
        assert placement.assignment.shape == (t,)
        assert np.all((0 <= placement.assignment) & (placement.assignment < n))


class TestRoundBestOf:
    def test_best_never_worse_than_mean(self, uniform_fractional):
        _, frac = uniform_fractional
        result = round_best_of(frac, trials=20, rng=0)
        assert result.cost <= np.mean(result.trial_costs) + 1e-12
        assert result.trials == 20
        assert len(result.trial_costs) == 20

    def test_single_trial(self, uniform_fractional):
        _, frac = uniform_fractional
        result = round_best_of(frac, trials=1, rng=0)
        assert result.cost_std == 0.0

    def test_cost_is_the_best_trials_cost(self, split_fractional):
        result = round_best_of(split_fractional, trials=8, rng=7)
        assert len(set(result.trial_costs)) > 1  # trials genuinely differ
        assert result.cost == result.trial_costs[result.best_trial]

    def test_without_tolerance_winner_is_earliest_minimum(self, split_fractional):
        result = round_best_of(split_fractional, trials=8, rng=6)
        cheapest = min(result.trial_costs)
        # At this seed the first trial is not the cheapest and the
        # cheapest cost is tied across later trials.
        assert result.trial_costs[0] > cheapest
        assert result.trial_costs.count(cheapest) > 1
        assert result.cost == cheapest
        assert result.best_trial == result.trial_costs.index(cheapest)

    def test_zero_trials_rejected(self, uniform_fractional):
        _, frac = uniform_fractional
        with pytest.raises(ValueError):
            round_best_of(frac, trials=0)

    def test_capacity_filter_prefers_feasible(self):
        """With capacity-2 nodes and size-2 objects, co-located trials
        (cost 0) are infeasible and split trials (cost 2) are feasible;
        the filter must pick the more expensive feasible one."""
        p = PlacementProblem.build(
            {"a": 2.0, "b": 2.0}, {0: 2.0, 1: 2.0}, {("a", "b"): 1.0}
        )
        frac = make_fractional(p, [[0.6, 0.4], [0.4, 0.6]])
        result = round_best_of(frac, trials=50, rng=0, capacity_tolerance=0.0)
        assert result.placement.is_feasible()
        assert result.cost == pytest.approx(2.0)
        assert min(result.trial_costs) == pytest.approx(0.0)  # cheaper but infeasible

    def test_falls_back_to_cheapest_when_nothing_feasible(self):
        p = PlacementProblem.build({"a": 2.0, "b": 2.0}, 2, {("a", "b"): 1.0})
        frac = make_fractional(p, [[0.5, 0.5], [0.5, 0.5]])
        # Impossible tolerance: no placement fits zero-capacity nodes.
        tight = PlacementProblem.build(
            {"a": 2.0, "b": 2.0}, {0: 0.1, 1: 0.1}, {("a", "b"): 1.0}
        )
        frac_tight = make_fractional(tight, [[0.5, 0.5], [0.5, 0.5]])
        result = round_best_of(frac_tight, trials=5, rng=0, capacity_tolerance=0.0)
        assert result.cost == min(result.trial_costs)

    def test_more_trials_never_hurt(self, uniform_fractional):
        _, frac = uniform_fractional
        few = round_best_of(frac, trials=2, rng=7)
        many = round_best_of(frac, trials=50, rng=7)
        assert many.cost <= few.cost + 1e-12
