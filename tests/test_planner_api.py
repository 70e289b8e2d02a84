"""Tests for the Planner API."""

import dataclasses
import json

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
        # lp_iteration_limit, decompose, warm_start), 3.0 dropped jobs
        # and 10.0 the plan cache's two fields; none added any.
        assert [f.name for f in dataclasses.fields(PlanConfig)] == [
            "scope",
            "seed",
            "rounding_trials",
            "capacity_factor",
            "capacity_tolerance",
            "hash_salt",
            "repair",
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
        assert "cache" not in result.diagnostics
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


class TestSerializationUnification:
    def test_rounding_result_round_trip(self, problem):
        from repro.core.lp import solve_placement_lp
        from repro.core.rounding import round_best_of

        result = round_best_of(solve_placement_lp(problem), trials=3, rng=0)
        doc = json.loads(json.dumps(result.to_dict()))
        assert doc["schema"] == "repro/rounding-result/v1"
        assert doc["cost"] == pytest.approx(result.cost)
        assert tuple(doc["trial_costs"]) == result.trial_costs
        assert doc["objects"] == [str(o) for o in problem.object_ids]
        assert doc["assignment"] == result.placement.assignment.tolist()

    def test_lprr_result_round_trip(self, problem):
        from repro.core.lprr import LPRRPlanner

        result = LPRRPlanner(seed=0).plan(problem)
        doc = json.loads(json.dumps(result.to_dict()))
        assert doc["schema"] == "repro/lprr-result/v1"
        assert tuple(
            problem.object_ids[i] for i in doc["scope_indices"]
        ) == result.scope_objects
        assert doc["lp_lower_bound"] == pytest.approx(result.lp_lower_bound)
        assert doc["assignment"] == result.placement.assignment.tolist()
        assert doc["rounding"] == result.rounding.to_dict()

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
