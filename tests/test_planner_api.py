"""Tests for the Planner API."""

import dataclasses

import numpy as np
import pytest

from repro.core.problem import PlacementProblem
from repro.core.strategies import (
    PlanConfig,
    PlanResult,
    available_planners,
    get_planner,
    plan,
    register_planner,
)


@pytest.fixture
def problem():
    return PlacementProblem.build(
        objects={"a": 2.0, "b": 2.0, "c": 2.0, "d": 2.0},
        nodes={0: 5.0, 1: 5.0},
        correlations={("a", "b"): 0.4, ("c", "d"): 0.4, ("a", "c"): 0.01},
    )


class TestPlanConfig:
    def test_defaults_select_legacy_engine(self):
        config = PlanConfig()
        assert config.cache_dir is None
        assert config.make_cache() is None

    def test_with_options(self):
        config = PlanConfig().with_options(scope=10, rounding_trials=3)
        assert config.scope == 10
        assert config.rounding_trials == 3
        assert config.seed == 0  # untouched

    def test_frozen(self):
        with pytest.raises(Exception):
            PlanConfig().seed = 5

    def test_fields(self):
        # 2.0 dropped the solver knobs (backend, lp_time_limit,
        # lp_iteration_limit, decompose, warm_start) and 3.0 dropped
        # jobs; neither added any.
        assert [f.name for f in dataclasses.fields(PlanConfig)] == [
            "scope",
            "seed",
            "rounding_trials",
            "capacity_factor",
            "capacity_tolerance",
            "hash_salt",
            "repair",
            "cache_dir",
            "use_cache",
            "replicas",
            "topology",
        ]

    @pytest.mark.parametrize("tolerance", [-0.01, float("nan"), float("inf")])
    def test_bad_capacity_tolerance_rejected(self, tolerance):
        # The resilient chain would swallow the error mid-plan, and a NaN
        # tolerance used to pass every capacity check.
        with pytest.raises(ValueError, match="capacity_tolerance"):
            PlanConfig(capacity_tolerance=tolerance)
        with pytest.raises(ValueError, match="capacity_tolerance"):
            PlanConfig().with_options(capacity_tolerance=tolerance)

    def test_make_cache(self, tmp_path):
        config = PlanConfig(cache_dir=tmp_path)
        cache = config.make_cache()
        assert cache is not None
        assert config.with_options(use_cache=False).make_cache() is None


class TestRegistry:
    def test_builtins_registered(self):
        names = available_planners()
        assert {
            "hash",
            "greedy",
            "lprr",
            "round_robin",
            "best_fit_decreasing",
            "spectral",
            "local_search",
        } <= set(names)
        assert names == sorted(names)
        assert "lprr:fo" not in names

    def test_unknown_planner(self):
        with pytest.raises(KeyError, match="unknown planner"):
            get_planner("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_planner("lprr")(lambda problem, *, config: None)


class TestPlanResults:
    def test_every_planner_returns_plan_result(self, problem):
        for name in available_planners():
            result = plan(problem, name)
            assert isinstance(result, PlanResult)
            assert result.planner == name
            assert result.cost == pytest.approx(
                result.placement.communication_cost()
            )
            assert result.elapsed_seconds >= 0
            assert "feasible" in result.diagnostics

    def test_lprr_diagnostics(self, problem):
        result = plan(problem, "lprr", PlanConfig(seed=0))
        assert result.diagnostics["cache"] == "off"
        assert "jobs" not in result.diagnostics
        assert "lp_lower_bound" in result.diagnostics
        assert result.details is not None
        assert result.details.rounding.trials == 10

    def test_config_threads_through(self, problem):
        result = plan(problem, "lprr", PlanConfig(seed=0, rounding_trials=3))
        assert result.details.rounding.trials == 3

    def test_to_dict(self, problem):
        doc = plan(problem, "lprr", PlanConfig(seed=0)).to_dict()
        assert doc["schema"] == "repro/plan-result/v1"
        assert doc["planner"] == "lprr"
        assert len(doc["assignment"]) == problem.num_objects
        assert doc["objects"] == [str(o) for o in problem.object_ids]
        assert "details" in doc

    def test_cache_diagnostics(self, problem, tmp_path):
        config = PlanConfig(seed=0, cache_dir=tmp_path)
        assert plan(problem, "lprr", config).diagnostics["cache"] == "miss"
        assert plan(problem, "lprr", config).diagnostics["cache"] == "hit"


class TestSerializationUnification:
    def test_rounding_result_round_trip(self, problem):
        from repro.core.lp import solve_placement_lp
        from repro.core.rounding import RoundingResult, round_best_of

        result = round_best_of(solve_placement_lp(problem), trials=3, rng=0)
        restored = RoundingResult.from_dict(result.to_dict(), problem)
        assert restored.cost == pytest.approx(result.cost)
        assert restored.trial_costs == result.trial_costs
        assert np.array_equal(
            restored.placement.assignment, result.placement.assignment
        )

    def test_lprr_result_round_trip(self, problem):
        from repro.core.lprr import LPRRPlanner, LPRRResult

        result = LPRRPlanner(seed=0).plan(problem)
        restored = LPRRResult.from_dict(result.to_dict(), problem)
        assert restored.cost == pytest.approx(result.cost)
        assert restored.scope_objects == result.scope_objects
        assert restored.lp_lower_bound == pytest.approx(result.lp_lower_bound)
        assert np.array_equal(
            restored.placement.assignment, result.placement.assignment
        )

    def test_evaluation_summary_round_trip(self):
        from repro.search.engine import EvaluationSummary

        summary = EvaluationSummary(
            queries=10,
            total_bytes=1234,
            total_hops=7,
            local_fraction=0.4,
            mean_bytes_per_query=123.4,
        )
        assert EvaluationSummary.from_dict(summary.to_dict()) == summary

    def test_wrong_problem_rejected(self, problem):
        from repro.core.lprr import LPRRPlanner, LPRRResult
        from repro.exceptions import TraceFormatError

        doc = LPRRPlanner(seed=0).plan(problem).to_dict()
        other = PlacementProblem.build(
            {"x": 1.0, "y": 1.0}, 2, {("x", "y"): 0.5}
        )
        with pytest.raises(TraceFormatError):
            LPRRResult.from_dict(doc, other)
