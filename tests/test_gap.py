"""Tests for the optimality-gap harness (repro.gap)."""

import json

import numpy as np
import pytest

from repro.gap import (
    GAP_REPORT_SCHEMA,
    _ratio,
    gap_instance,
    run_gap,
)


class TestGapInstance:
    def test_pure_function_of_seed_and_index(self):
        a = gap_instance(3, 1)
        b = gap_instance(3, 1)
        assert np.array_equal(a.sizes, b.sizes)
        assert np.array_equal(a.capacities, b.capacities)
        assert np.array_equal(a.pair_index, b.pair_index)
        assert np.array_equal(a.pair_weights, b.pair_weights)

    def test_distinct_indices_differ(self):
        a = gap_instance(3, 1)
        b = gap_instance(3, 2)
        assert (
            a.pair_weights.shape != b.pair_weights.shape
            or not np.array_equal(a.pair_weights, b.pair_weights)
        )

    def test_shape_and_headroom(self):
        problem = gap_instance(0, 0, objects=12, nodes=3)
        assert problem.num_objects == 12
        assert problem.num_nodes == 3
        # 1.4x average load: feasible but tight enough to force splits.
        assert problem.capacities.sum() >= problem.sizes.sum()


class TestRatio:
    def test_zero_optimum_zero_cost(self):
        assert _ratio(0.0, 0.0) == 1.0

    def test_zero_optimum_positive_cost(self):
        assert _ratio(0.5, 0.0) == float("inf")

    def test_ordinary(self):
        assert _ratio(3.0, 2.0) == pytest.approx(1.5)


class TestRunGap:
    @pytest.fixture(scope="class")
    def report(self):
        return run_gap(seed=0, instances=3, objects=10, nodes=3)

    def test_schema_and_fields(self, report):
        payload = report.to_dict()
        assert payload["schema"] == GAP_REPORT_SCHEMA
        assert payload["seed"] == 0
        assert payload["reference"] == "exact"
        assert len(payload["cases"]) == 3
        case = payload["cases"][0]
        for key in (
            "index",
            "objects",
            "nodes",
            "pairs",
            "exact_cost",
            "lprr_cost",
            "lprr_ratio",
            "lprr_excess",
        ):
            assert key in case

    def test_gaps_are_bounded_below_by_optimal(self, report):
        # The reference is a certified optimum under zero tolerance, so
        # no planner can beat it.
        for case in report.cases:
            assert case.lprr_ratio >= 1.0 - 1e-9
            assert case.lprr_excess >= -1e-9

    def test_byte_reproducible(self, report):
        again = run_gap(seed=0, instances=3, objects=10, nodes=3)
        assert report.to_json() == again.to_json()
        # And the canonical form round-trips through json.
        assert json.loads(report.to_json())["cases"] == [
            c.to_dict() for c in report.cases
        ]

    def test_render_mentions_aggregates(self, report):
        text = report.render()
        assert "optimality gap" in text
        assert "mean excess" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            run_gap(instances=0)
        with pytest.raises(ValueError, match="objects"):
            run_gap(objects=0)
        with pytest.raises(ValueError, match="nodes"):
            run_gap(nodes=0)
        with pytest.raises(ValueError, match="objects must be at most 64"):
            run_gap(objects=65)

    def test_smoke_reference_costs(self):
        # The optima of the 12 x 3 gap smoke, as an independent branch
        # and bound proved them, and the HiGHS MILP optima of the 24 x 4
        # smoke, which the CI smoke only compares across hash seeds.
        smoke_optima = {
            (8, 12, 3): [
                0.24710826,
                0.104911681,
                0.313831863,
                0.452976468,
                0.202168024,
                0.20342917,
                0.374108779,
                0.181447794,
            ],
            (4, 24, 4): [0.398509446, 0.516270079, 0.373009108, 0.33068588],
        }
        for (instances, objects, nodes), optima in smoke_optima.items():
            report = run_gap(
                seed=0, instances=instances, objects=objects, nodes=nodes
            )
            assert [round(c.exact_cost, 9) for c in report.cases] == optima
