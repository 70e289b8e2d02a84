"""Tests for the optimality-gap harness (repro.gap)."""

import json

import numpy as np
import pytest

from repro.gap import (
    GAP_REPORT_SCHEMA,
    GapReport,
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
        with pytest.raises(ValueError):
            run_gap(reference="nope")


class TestCpsatReference:
    def test_cpsat_reference_needs_ortools(self):
        pytest.importorskip("ortools")
        report = run_gap(seed=0, instances=2, objects=8, reference="cpsat")
        assert report.reference == "cpsat"
        assert isinstance(report, GapReport)
