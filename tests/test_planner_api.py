"""Tests for the Planner API."""

import dataclasses

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
        # lp_iteration_limit, decompose, warm_start), 3.0 dropped jobs,
        # 10.0 the plan cache's two fields and 11.0 repair, which no
        # caller set; none added any.
        assert [f.name for f in dataclasses.fields(PlanConfig)] == [
            "scope",
            "seed",
            "rounding_trials",
            "capacity_factor",
            "capacity_tolerance",
            "hash_salt",
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
