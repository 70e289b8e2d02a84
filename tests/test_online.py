"""Streaming correlation mining and the online control loop."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlation import cooccurrence_correlations
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.core.strategies import PlanConfig, plan
from repro.online import (
    CountMinSketch,
    DriftDetector,
    DriftThresholds,
    OnlineConfig,
    OnlinePlanner,
    SketchCorrelationEstimator,
    SpaceSavingPairs,
    StreamPeriod,
    TimedOperation,
    as_timed_operation,
    heavy_hitter_plan,
    pair_churn,
    tumbling_periods,
)

from tests.helpers import sketch_state, tracker_state


class TestCountMinSketch:
    def test_never_undercounts(self):
        sketch = CountMinSketch(width=16, depth=3, seed=1)
        truth = {}
        rng = np.random.default_rng(0)
        for _ in range(500):
            key = f"k{int(rng.integers(40))}"
            truth[key] = truth.get(key, 0) + 1
            sketch.add(key)
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_exact_when_sparse(self):
        sketch = CountMinSketch(width=1024, depth=4, seed=0)
        sketch.add("a", 3.0)
        sketch.add("b", 2.0)
        assert sketch.estimate("a") == 3.0
        assert sketch.estimate("b") == 2.0
        assert sketch.total == 5.0

    def test_deterministic_across_instances(self):
        a = CountMinSketch(width=64, depth=4, seed=7)
        b = CountMinSketch(width=64, depth=4, seed=7)
        for key in ("x", ("p", "q"), 42):
            a.add(key)
            b.add(key)
            assert sketch_state(a) == sketch_state(b)

    def test_seed_changes_hashing(self):
        a = CountMinSketch(width=4096, depth=4, seed=0)
        b = CountMinSketch(width=4096, depth=4, seed=1)
        a.add("x")
        b.add("x")
        assert sketch_state(a)[-1] != sketch_state(b)[-1]

    def test_scale_and_bounds(self):
        sketch = CountMinSketch(width=32, depth=2, seed=0)
        sketch.add("a", 4.0)
        sketch.scale(0.5)
        assert sketch.estimate("a") == 2.0
        assert sketch.total == 2.0
        assert sketch.num_cells == 64
        assert 0 < sketch.epsilon < 1
        assert 0 < sketch.delta < 1

    def test_negative_count_raises(self):
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="nonnegative"):
                CountMinSketch().add("a", bad)
            with pytest.raises(ValueError, match="nonnegative"):
                CountMinSketch().update_many(["a", "b"], [1.0, bad])

    def test_update_many_matches_add_for_equal_keys_with_other_reprs(self):
        # (0, 1) == (0, True) == (0, 1.0), but each hashes its own repr.
        keys = [(0, 1), (0, True), (0, 1.0), (0.0, 1), (-0.0, 1), (0, 1)]
        batched = CountMinSketch(width=64, depth=3, seed=2)
        batched.update_many(keys)
        one_by_one = CountMinSketch(width=64, depth=3, seed=2)
        for key in keys:
            one_by_one.add(key)
        assert sketch_state(batched) == sketch_state(one_by_one)


_BOUND_KEYS = [1, True, 0.0, -0.0, "a", ("a", "b"), ("a", True), ("a", 1)]


@st.composite
def _cm_steps(draw):
    """add / update_many / scale, with counts."""
    batch = st.lists(
        st.tuples(st.sampled_from(_BOUND_KEYS), st.sampled_from([0.0, 0.1, 1.0, 3.7])),
        max_size=8,
    )
    kind = draw(st.sampled_from(["add", "update_many", "scale"]))
    if kind == "scale":
        return kind, draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    return kind, draw(batch)


class TestCountMinBound:
    @settings(max_examples=150, deadline=None)
    @given(
        width=st.sampled_from([1, 3, 7, 61]),
        depth=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
        steps=st.lists(_cm_steps(), max_size=25),
    )
    def test_estimate_never_undercounts(self, width, depth, seed, steps):
        # The true count follows each key's repr (1 and True apart), with
        # the sketch's own float operations in the same order per key.
        sketch = CountMinSketch(width, depth, seed)
        truth: dict[str, float] = {}
        for kind, arg in steps:
            if kind == "add":
                for key, count in arg:
                    sketch.add(key, count)
                    truth[repr(key)] = truth.get(repr(key), 0.0) + count
            elif kind == "update_many":
                sketch.update_many([key for key, _ in arg], [count for _, count in arg])
                for key, count in arg:
                    truth[repr(key)] = truth.get(repr(key), 0.0) + count
            else:
                sketch.scale(arg)
                truth = {key: count * arg for key, count in truth.items()}
            for key in _BOUND_KEYS:
                assert sketch.estimate(key) >= truth.get(repr(key), 0.0)

    @pytest.mark.parametrize("width, depth", [(61, 1), (61, 3), (512, 4), (1000, 2)])
    def test_zipf_stream_meets_the_overcount_bound(self, width, depth):
        # With probability >= 1 - e^-depth per key, an estimate
        # overcounts by at most (e / width) * N.
        rng = np.random.default_rng(3)
        keys = [f"k{rank}" for rank in rng.zipf(1.2, size=20_000) % 5_000]
        sketch = CountMinSketch(width, depth, seed=9)
        sketch.update_many(keys)
        truth = Counter(keys)
        bound = sketch.epsilon * sketch.total
        estimates = sketch.estimate_many(truth)
        within = sum(est - truth[key] <= bound for key, est in zip(truth, estimates))
        assert min(est - count for est, count in zip(estimates, truth.values())) >= 0
        assert within / len(truth) >= 1 - sketch.delta


class TestSpaceSavingPairs:
    def test_exact_below_capacity(self):
        tracker = SpaceSavingPairs(capacity=8)
        for _ in range(3):
            tracker.add(("a", "b"))
        tracker.add(("c", "d"))
        assert tracker.count(("a", "b")) == 3.0
        assert tracker.error(("a", "b")) == 0.0
        assert tracker.count(("x", "y")) == 0.0

    def test_memory_bounded(self):
        tracker = SpaceSavingPairs(capacity=4)
        for i in range(100):
            tracker.add((f"a{i}", f"b{i}"))
        assert len(tracker) <= 4
        assert tracker.max_tracked <= 4
        assert tracker.evictions == 96

    def test_heavy_hitter_guarantee(self):
        # A pair with true count > total/capacity must be tracked, and
        # count - error <= true <= count.
        tracker = SpaceSavingPairs(capacity=4)
        rng = np.random.default_rng(1)
        true = {}
        for _ in range(400):
            if rng.random() < 0.5:
                pair = ("hot", "pair")
            else:
                i = int(rng.integers(50))
                pair = (f"c{i}", f"d{i}")
            true[pair] = true.get(pair, 0) + 1
            tracker.add(pair)
        assert true[("hot", "pair")] > tracker.total / tracker.capacity
        count = tracker.count(("hot", "pair"))
        error = tracker.error(("hot", "pair"))
        assert count >= true[("hot", "pair")] >= count - error

    def test_items_order_deterministic(self):
        tracker = SpaceSavingPairs(capacity=8)
        tracker.add(("b", "c"))
        tracker.add(("a", "b"))
        tracker.add(("a", "b"))
        rows = tracker.items()
        assert rows[0][0] == ("a", "b")
        assert rows[1][0] == ("b", "c")

    def test_negative_count_raises(self):
        tracker = SpaceSavingPairs(capacity=2)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="nonnegative"):
                tracker.add(("a", "b"), bad)
        assert len(tracker) == 0
        assert tracker.total == 0.0

    def test_scale_zero_clears(self):
        tracker = SpaceSavingPairs(capacity=4)
        tracker.add(("a", "b"))
        tracker.scale(0.0)
        assert len(tracker) == 0
        assert tracker.total == 0.0


class TestSketchCorrelationEstimator:
    def test_matches_exact_on_sparse_stream(self):
        trace = [("a", "b"), ("a", "b", "c"), ("b", "c"), ("a", "b")]
        sketched = SketchCorrelationEstimator(width=1024, depth=4)
        sketched.observe_trace(trace)
        assert sketched.correlations() == cooccurrence_correlations(trace)

    def test_size_aware_mode(self):
        sizes = {"a": 1.0, "b": 2.0, "c": 3.0}
        sketched = SketchCorrelationEstimator(mode="two_smallest", sizes=sizes)
        sketched.observe_trace([("a", "b", "c")])
        assert sketched.correlations() == {("a", "b"): 1.0}

    def test_mode_requires_sizes(self):
        with pytest.raises(ValueError, match="requires object sizes"):
            SketchCorrelationEstimator(mode="two_smallest")

    def test_memory_cells(self):
        est = SketchCorrelationEstimator(width=128, depth=3, heavy_hitters=16)
        est.observe_trace([(f"x{i}", f"y{i}") for i in range(1000)])
        assert est.memory_cells == 128 * 3 + 16
        assert len(est.heavy) <= 16

    def test_decay(self):
        est = SketchCorrelationEstimator(width=64, depth=2)
        est.observe_trace([("a", "b"), ("a", "b")])
        est.decay(0.5)
        # Probabilities survive decay; support shrinks below min_support.
        assert est.correlations()[("a", "b")] == pytest.approx(1.0)
        assert est.correlations(min_support=2) == {}


class TestEstimatorIngest:
    def test_decaying_estimator_delegates(self):
        # OnlinePlanner owns the per-period decay: it hands a period to
        # its estimator in one batch, then decays it, which leaves the
        # estimator where one observe_trace followed by decay does.
        rng = np.random.default_rng(1)
        words = [f"w{i}" for i in range(30)]
        trace = [
            tuple(rng.choice(words, size=rng.integers(1, 5)))
            for _ in range(400)
        ]
        config = OnlineConfig(num_nodes=2, window_s=10.0, decay=0.5)
        planner = OnlinePlanner({obj: 1.0 for op in trace for obj in op}, config)
        planner.observe_period(StreamPeriod(0, 0.0, 10.0, tuple(trace)))
        standalone = SketchCorrelationEstimator(
            width=config.sketch_width,
            depth=config.sketch_depth,
            heavy_hitters=config.heavy_hitters,
            seed=config.seed,
        )
        assert standalone.observe_trace(trace) == len(trace)
        standalone.decay(0.5)
        assert sketch_state(planner.estimator.sketch) == sketch_state(standalone.sketch)
        assert tracker_state(planner.estimator.heavy) == tracker_state(standalone.heavy)
        assert planner.estimator._total_ops == standalone._total_ops


class TestWindows:
    def test_tumbling_slicing(self):
        stream = [
            TimedOperation(0.0, ("a", "b")),
            TimedOperation(5.0, ("b", "c")),
            TimedOperation(10.0, ("c", "d")),  # exactly on the boundary
            TimedOperation(25.0, ("d", "e")),
        ]
        periods = list(tumbling_periods(stream, 10.0))
        assert [p.num_operations for p in periods] == [2, 1, 1]
        assert periods[1].operations == (("c", "d"),)
        assert periods[0].start_s == 0.0 and periods[0].end_s == 10.0

    def test_empty_middle_periods_emitted(self):
        stream = [TimedOperation(1.0, ("a", "b")), TimedOperation(35.0, ("c", "d"))]
        periods = list(tumbling_periods(stream, 10.0))
        assert [p.num_operations for p in periods] == [1, 0, 0, 1]

    def test_non_monotonic_raises(self):
        stream = [TimedOperation(5.0, ("a", "b")), TimedOperation(4.0, ("c", "d"))]
        with pytest.raises(ValueError, match="non-decreasing"):
            list(tumbling_periods(stream, 10.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("position", [0, 1])
    def test_non_finite_timestamp_raises(self, bad, position):
        stream = [TimedOperation(5.0, ("a", "b")), TimedOperation(6.0, ("c", "d"))]
        stream[position] = TimedOperation(bad, ("x", "y"))
        with pytest.raises(ValueError, match=f"timestamp {bad!r} is not finite"):
            list(tumbling_periods(stream, 10.0))

    def test_epoch_timestamps_anchor_first_window(self):
        # A real query log carries absolute epoch times; period 0 must
        # be the first operation's window, not ~470k empty periods in.
        base = 1.7e9
        stream = [
            TimedOperation(base + 10.0, ("a", "b")),
            TimedOperation(base + 3650.0, ("b", "c")),
        ]
        periods = list(tumbling_periods(stream, 3600.0))
        assert [p.num_operations for p in periods] == [1, 1]
        assert periods[0].index == 0
        assert periods[0].start_s == (base // 3600.0) * 3600.0
        assert periods[0].start_s <= base + 10.0 < periods[0].end_s

    @pytest.mark.parametrize("window", [float("inf"), float("nan")])
    def test_non_finite_window_raises(self, window):
        stream = [TimedOperation(1.0, ("a", "b"))]
        with pytest.raises(ValueError, match="window_s must be positive and finite"):
            list(tumbling_periods(stream, window))

    def test_empty_stream_no_periods(self):
        assert list(tumbling_periods([], 10.0)) == []

    def test_accepts_timed_queries(self):
        from repro.search.query import Query
        from repro.workloads.stream import TimedQuery

        stream = [TimedQuery(1.0, Query(("a", "b")))]
        periods = list(tumbling_periods(stream, 10.0))
        assert periods[0].operations == (("a", "b"),)

    def test_as_timed_operation_rejects_junk(self):
        with pytest.raises(TypeError, match="expected TimedQuery or TimedOperation"):
            as_timed_operation(("a", "b"))

    def test_decaying_estimator(self):
        # The controller decays its estimator by config.decay after
        # every period, and never when decay is 1: the first (a, b)
        # weighs `decay` next to the second, and both decay once more.
        stream = [TimedOperation(0.0, ("a", "b")), TimedOperation(10.0, ("a", "b"))]
        for decay, count in ((0.5, 0.75), (1.0, 2.0)):
            planner = OnlinePlanner(
                {"a": 1.0, "b": 1.0},
                OnlineConfig(num_nodes=2, window_s=10.0, decay=decay),
            )
            planner.run(stream)
            assert planner.estimator.heavy.count(("a", "b")) == pytest.approx(count)
            assert planner.estimator.num_operations == int(count)
            # Probabilities survive the decay; only support shrinks.
            assert planner.estimator.correlations(0)[("a", "b")] == pytest.approx(1.0)


class TestDrift:
    def test_pair_churn(self):
        assert pair_churn([], []) == 0.0
        assert pair_churn([("a", "b")], [("a", "b")]) == 0.0
        assert pair_churn([("a", "b")], [("c", "d")]) == 1.0
        assert pair_churn(
            [("a", "b"), ("c", "d")], [("a", "b"), ("e", "f")]
        ) == pytest.approx(2 / 3)

    def test_unjudged_below_min_operations(self):
        detector = DriftDetector(DriftThresholds(min_operations=50))
        detector.rebase({("a", "b"): 0.5}, 1.0)
        decision = detector.assess({("c", "d"): 0.5}, 9.0, period_operations=10)
        assert not decision.judged
        assert not decision.replan

    def test_churn_trigger(self):
        detector = DriftDetector(DriftThresholds(churn=0.4, min_operations=0))
        detector.rebase({("a", "b"): 0.5}, 1.0)
        decision = detector.assess({("c", "d"): 0.5}, 1.0, period_operations=100)
        assert decision.replan
        assert decision.reasons == ("churn",)
        assert decision.churn == 1.0

    def test_inflation_trigger(self):
        detector = DriftDetector(
            DriftThresholds(churn=1.0, inflation=1.5, min_operations=0)
        )
        detector.rebase({("a", "b"): 0.5}, 1.0)
        decision = detector.assess({("a", "b"): 0.5}, 2.0, period_operations=100)
        assert decision.replan
        assert decision.reasons == ("inflation",)
        assert decision.inflation == pytest.approx(2.0)

    def test_stable_no_trigger(self):
        detector = DriftDetector(DriftThresholds(min_operations=0))
        detector.rebase({("a", "b"): 0.5}, 1.0)
        decision = detector.assess({("a", "b"): 0.5}, 1.0, period_operations=100)
        assert not decision.replan
        assert decision.reasons == ()

    def test_decision_to_dict_handles_zero_reference(self):
        detector = DriftDetector(DriftThresholds(min_operations=0))
        detector.rebase({}, 0.0)
        decision = detector.assess({("a", "b"): 0.5}, 1.0, period_operations=100)
        doc = decision.to_dict()
        assert doc["inflation"] is None
        json.dumps(doc)  # JSON-serializable despite the zero reference

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DriftThresholds(churn=1.5)
        with pytest.raises(ValueError):
            DriftThresholds(inflation=0.9)


# ----------------------------------------------------------------------
# The acceptance scenario: a seeded stream whose correlation structure
# shifts mid-stream.
# ----------------------------------------------------------------------
SIZES = {f"o{i}": 1.0 for i in range(12)}
PRE_PAIRS = [
    ("o0", "o1"), ("o2", "o3"), ("o4", "o5"),
    ("o6", "o7"), ("o8", "o9"), ("o10", "o11"),
]
POST_PAIRS = [
    ("o0", "o2"), ("o1", "o3"), ("o4", "o6"),
    ("o5", "o7"), ("o8", "o10"), ("o9", "o11"),
]
WINDOW_S = 60.0
OPS_PER_PERIOD = 60
SHIFT_PERIOD = 3
NUM_PERIODS = 8


def shifting_stream(seed=7):
    rng = np.random.default_rng(seed)
    stream = []
    for period in range(NUM_PERIODS):
        pairs = PRE_PAIRS if period < SHIFT_PERIOD else POST_PAIRS
        for i in range(OPS_PER_PERIOD):
            time_s = period * WINDOW_S + i * WINDOW_S / OPS_PER_PERIOD
            pair = pairs[int(rng.integers(len(pairs)))]
            stream.append(TimedOperation(time_s, pair))
    return stream


def online_config():
    return OnlineConfig(
        num_nodes=4,
        window_s=WINDOW_S,
        sketch_width=256,
        sketch_depth=4,
        heavy_hitters=8,
        decay=0.5,
        thresholds=DriftThresholds(churn=0.3, top_k=8, min_operations=20),
        budget_fraction=1.0,
        planning=PlanConfig(seed=0),
    )


class TestOnlinePlanner:
    @pytest.fixture(scope="class")
    def report(self):
        return OnlinePlanner(SIZES, online_config()).run(shifting_stream())

    def test_bootstraps_then_detects_drift(self, report):
        assert report.periods[0].action == "bootstrap"
        # The shift period must be judged drifting and replanned.
        shift = report.periods[SHIFT_PERIOD]
        assert shift.action == "replan"
        assert shift.drift.replan
        assert shift.drift.churn > 0.3
        assert report.replans >= 1

    def test_replans_respect_budget(self, report):
        for period in report.periods:
            if period.action == "replan":
                assert period.budget_bytes is not None
                assert period.bytes_moved <= period.budget_bytes + 1e-9

    def test_final_cost_matches_offline_plan(self, report):
        # Offline reference: exact correlations of the post-shift trace.
        post_trace = [
            op.objects for op in shifting_stream()
            if op.time_s >= SHIFT_PERIOD * WINDOW_S
        ]
        problem = PlacementProblem.build(
            SIZES, 4, cooccurrence_correlations(post_trace)
        )
        offline = plan(problem, "lprr", PlanConfig(seed=0))
        online_placement = Placement.from_mapping(
            problem, {obj: report.final_placement[obj] for obj in problem.object_ids}
        )
        online_cost = online_placement.communication_cost()
        assert online_cost <= 1.10 * offline.cost + 1e-9

    def test_memory_is_bounded(self, report):
        config = online_config()
        assert report.memory_cells == (
            config.sketch_width * config.sketch_depth + config.heavy_hitters
        )
        planner = OnlinePlanner(SIZES, config)
        planner.run(shifting_stream())
        assert planner.estimator.heavy.max_tracked <= config.heavy_hitters

    def test_reports_byte_identical(self, report):
        again = OnlinePlanner(SIZES, online_config()).run(shifting_stream())
        assert again.to_json() == report.to_json()

    def test_report_json_schema(self, report):
        doc = json.loads(report.to_json())
        assert doc["schema"] == "repro.online.report/v1"
        assert doc["replans"] == report.replans
        assert doc["total_operations"] == NUM_PERIODS * OPS_PER_PERIOD
        assert len(doc["periods"]) == NUM_PERIODS
        assert set(doc["final_placement"]) == set(SIZES)

    def test_render_mentions_replans(self, report):
        text = report.render()
        assert "replan" in text
        assert "bounded" in text

    def test_placement_mapping_before_bootstrap_raises(self):
        planner = OnlinePlanner(SIZES, online_config())
        with pytest.raises(RuntimeError, match="not bootstrapped"):
            planner.placement_mapping

    def test_out_of_universe_objects_are_ignored(self):
        # Objects missing from `sizes` must never crash the loop; a
        # stream of entirely unknown partners just keeps observing.
        planner = OnlinePlanner(
            {"a": 1.0, "b": 1.0}, OnlineConfig(num_nodes=2, window_s=10.0)
        )
        report = planner.run([TimedOperation(0.0, ("a", "x"))] * 30)
        assert [p.action for p in report.periods] == ["observe"]
        assert report.final_placement == {}

    def test_out_of_universe_objects_do_not_pollute_placement(self):
        # Mixed traffic: in-universe pairs drive the placement, unknown
        # objects are dropped before estimation.
        planner = OnlinePlanner(
            {"a": 1.0, "b": 1.0}, OnlineConfig(num_nodes=2, window_s=10.0)
        )
        stream = [
            TimedOperation(float(i), ("a", "b", f"junk{i}")) for i in range(8)
        ]
        report = planner.run(stream)
        assert report.periods[0].action == "bootstrap"
        assert set(report.final_placement) == {"a", "b"}
        # The colocatable pair ends up colocated despite the noise.
        assert report.final_cost_estimate == 0.0

    def test_budget_truncated_replan_resumes_in_stable_periods(self):
        # A tight budget truncates the replan's migration; the
        # remainder must drain in following periods as "migrate"
        # decisions instead of stalling on a rebased detector.  Eight
        # nodes: the packed plan then leaves spare nodes, so reaching
        # the post-shift target takes more moves than one budget.
        config = OnlineConfig(
            num_nodes=8,
            window_s=WINDOW_S,
            sketch_width=256,
            sketch_depth=4,
            heavy_hitters=8,
            decay=0.5,
            thresholds=DriftThresholds(churn=0.3, top_k=8, min_operations=20),
            budget_fraction=2 / len(SIZES),  # two unit objects per period
            planning=PlanConfig(seed=0),
        )
        planner = OnlinePlanner(SIZES, config)
        report = planner.run(shifting_stream())
        assert report.periods[SHIFT_PERIOD].action == "replan"
        migrate = [p for p in report.periods if p.action == "migrate"]
        assert migrate, "truncated migration was never resumed"
        for p in report.periods:
            if p.action in ("replan", "migrate"):
                assert p.budget_bytes is not None
                assert p.bytes_moved <= p.budget_bytes + 1e-9
                assert p.moves > 0
        # Convergence completes: the pending target drains to nothing
        # and the post-shift pairs end up colocated.
        assert planner._pending_target is None
        assert report.final_cost_estimate == 0.0
        assert report.total_bytes_moved >= sum(p.bytes_moved for p in migrate)


class TestOnlinePlannerRegistry:
    def test_heavy_hitter_plan_scopes_to_paired_objects(self):
        sizes = {f"o{i}": 1.0 for i in range(8)}
        correlations = {("o0", "o1"): 0.5, ("o2", "o3"): 0.25}
        problem = PlacementProblem.build(sizes, 3, correlations)
        result = heavy_hitter_plan(problem, config=PlanConfig(seed=0))
        assert result.planner == "online"
        assert result.diagnostics["heavy_objects"] == 4
        assert result.placement.assignment.shape == (8,)


class TestOnlineConfigValidation:
    def test_bad_values_raise(self):
        with pytest.raises(ValueError):
            OnlineConfig(num_nodes=0)
        with pytest.raises(ValueError):
            OnlineConfig(num_nodes=2, window_s=0)
        with pytest.raises(ValueError):
            OnlineConfig(num_nodes=2, decay=0.0)
        with pytest.raises(ValueError):
            OnlineConfig(num_nodes=2, budget_fraction=-0.1)

    @pytest.mark.parametrize("window", [float("inf"), float("nan")])
    def test_non_finite_window_raises(self, window):
        with pytest.raises(ValueError, match="window_s must be positive and finite"):
            OnlineConfig(num_nodes=2, window_s=window)

    def test_empty_sizes_raise(self):
        with pytest.raises(ValueError, match="at least one object"):
            OnlinePlanner({}, OnlineConfig(num_nodes=2))
