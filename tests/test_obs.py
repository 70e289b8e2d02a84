"""Tests for the observability subsystem (repro.obs)."""

import json
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LPRRPlanner, PlacementProblem, obs, round_best_of, solve_placement_lp
from repro.obs.export import metrics_to_dict, render_span_tree, to_json
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.span import NULL_SPAN, Tracer


@pytest.fixture(autouse=True)
def _isolated_obs():
    """Every test starts and ends with instrumentation disabled."""
    obs.disable()
    yield
    obs.disable()


def small_problem():
    return PlacementProblem.build(
        {f"o{i}": 1.0 for i in range(12)},
        {k: 4.0 for k in range(4)},
        {(f"o{i}", f"o{i + 1}"): 0.5 for i in range(0, 12, 2)},
    )


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child-a") as a:
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child-b"):
                pass
        assert [s.name for s in tracer.roots] == ["root"]
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert [g.name for g in a.children] == ["grandchild"]

    def test_attributes_from_kwargs_and_set(self):
        tracer = Tracer()
        with tracer.span("s", backend="highs") as sp:
            sp.set(iterations=7)
        assert sp.attributes == {"backend": "highs", "iterations": 7}

    def test_duration_stamped_on_exit(self):
        tracer = Tracer()
        with tracer.span("s") as sp:
            time.sleep(0.001)
        assert sp.end_time is not None
        assert sp.duration >= 0.001
        frozen = sp.duration
        assert sp.duration == frozen  # closed spans stop ticking

    def test_sibling_threads_become_separate_roots(self):
        tracer = Tracer()

        def worker(i):
            with tracer.span(f"thread-{i}"):
                pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(s.name for s in tracer.roots) == [
            "thread-0",
            "thread-1",
            "thread-2",
            "thread-3",
        ]

    def test_find_and_walk(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("b"):
                pass
        assert len(tracer.find("b")) == 2
        assert [s.name for s in tracer.roots[0].walk()] == ["a", "b", "b"]

    def test_disabled_span_is_shared_noop(self):
        assert obs.span("anything") is NULL_SPAN
        with obs.span("x") as sp:
            assert sp.set(a=1) is sp
        assert sp.duration == 0.0

    def test_timed_measures_even_when_disabled(self):
        assert not obs.is_enabled()
        with obs.timed("stopwatch") as sp:
            time.sleep(0.001)
        assert sp.duration >= 0.001

    def test_timed_joins_tree_when_enabled(self):
        inst = obs.enable(obs.Instrumentation())
        with obs.timed("outer"):
            with obs.timed("inner"):
                pass
        assert [s.name for s in inst.tracer.roots] == ["outer"]
        assert [c.name for c in inst.tracer.roots[0].children] == ["inner"]


class TestHistogram:
    def test_percentiles_match_numpy_linear_interpolation(self):
        rng = np.random.default_rng(7)
        values = rng.normal(100.0, 25.0, size=501)
        hist = Histogram("h")
        for v in values:
            hist.observe(float(v))
        for p in (0, 10, 50, 90, 95, 99, 100):
            assert hist.percentile(p) == pytest.approx(
                float(np.percentile(values, p)), rel=1e-12
            )

    def test_summary_fields(self):
        hist = Histogram("h")
        for v in [4.0, 1.0, 3.0, 2.0]:
            hist.observe(v)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == 2.5
        assert summary["p50"] == 2.5

    def test_empty_histogram_is_all_zeros(self):
        hist = Histogram("h")
        assert hist.percentile(99) == 0.0
        assert hist.summary()["count"] == 0

    def test_percentile_range_validated(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(101)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.names() == ["a"]

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("a")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12.0

    def test_registry_is_thread_safe(self):
        registry = MetricsRegistry()
        per_thread, threads = 5000, 8

        def worker():
            counter = registry.counter("hits")
            hist = registry.histogram("obs")
            for i in range(per_thread):
                counter.inc()
                hist.observe(i)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert registry.counter("hits").value == per_thread * threads
        assert registry.histogram("obs").count == per_thread * threads
        assert len(registry) == 2


class TestExporters:
    def _populated(self):
        inst = obs.Instrumentation()
        inst.metrics.counter("engine.queries").inc(3)
        inst.metrics.gauge("lp.num_variables").set(24)
        hist = inst.metrics.histogram("engine.query.bytes")
        for v in (0.0, 100.0, 200.0):
            hist.observe(v)
        with inst.tracer.span("evaluate"):
            with inst.tracer.span("replay", queries=3):
                pass
        return inst

    def test_json_document_shape(self):
        inst = self._populated()
        doc = json.loads(to_json(inst.metrics, inst.tracer))
        assert doc["metrics"]["counters"] == {"engine.queries": 3.0}
        assert doc["metrics"]["gauges"] == {"lp.num_variables": 24.0}
        hist = doc["metrics"]["histograms"]["engine.query.bytes"]
        assert hist["count"] == 3
        assert hist["sum"] == 300.0
        assert set(hist) == {
            "count", "sum", "min", "max", "mean", "p50", "p90", "p95", "p99",
        }
        (root,) = doc["spans"]
        assert root["name"] == "evaluate"
        assert root["children"][0]["name"] == "replay"
        assert root["children"][0]["attributes"] == {"queries": 3}

    def test_metrics_to_dict_groups_by_kind(self):
        grouped = metrics_to_dict(self._populated().metrics)
        assert set(grouped) == {"counters", "gauges", "histograms"}

    def test_console_tree_renders_nesting(self):
        inst = self._populated()
        tree = render_span_tree(inst.tracer)
        lines = tree.splitlines()
        assert lines[0].startswith("evaluate")
        assert "└─ replay" in lines[1]
        assert "queries=3" in lines[1]

    def test_empty_tracer_renders_placeholder(self):
        assert render_span_tree(Tracer()) == "(no spans recorded)"


class TestPipelineIntegration:
    def test_plan_emits_spans_and_metrics(self):
        inst = obs.enable(obs.Instrumentation())
        LPRRPlanner(seed=0).plan(small_problem())
        names = {s.name for s in inst.tracer.all_spans()}
        assert {"lprr.plan", "lprr.scope", "lp.pack", "decompose",
                "rounding"} <= names
        assert not {"lp", "lp.build", "lp.solve"} & names
        assert len(inst.tracer.find("lp.pack")) == 1
        assert inst.metrics.histogram("rounding.trial_cost").count == 10
        assert inst.metrics.counter("lprr.plans").value == 1

    def test_solve_seconds_sourced_from_span(self):
        inst = obs.enable(obs.Instrumentation())
        fractional = solve_placement_lp(small_problem())
        (solve_span,) = inst.tracer.find("lp.solve")
        assert fractional.stats.solve_seconds == pytest.approx(
            solve_span.duration
        )

    def test_best_trial_index_identifies_cheapest(self):
        fractional = solve_placement_lp(small_problem())
        result = round_best_of(fractional, trials=8, rng=3)
        assert 0 <= result.best_trial < 8
        assert result.trial_costs[result.best_trial] == min(result.trial_costs)
        assert result.cost == result.trial_costs[result.best_trial]

    def test_enabled_and_disabled_plans_agree(self):
        baseline = LPRRPlanner(seed=1).plan(small_problem())
        obs.enable(obs.Instrumentation())
        instrumented = LPRRPlanner(seed=1).plan(small_problem())
        obs.disable()
        assert np.array_equal(
            baseline.placement.assignment, instrumented.placement.assignment
        )
        assert baseline.cost == instrumented.cost


class TestDisabledOverhead:
    """The no-op fast path must be free enough to leave in hot loops."""

    def test_disabled_helpers_are_sub_microsecond(self):
        # A small LPRR plan makes a few hundred obs calls; at the bound
        # asserted here (10µs/call, ~100x the observed cost) their total
        # stays thousands of times below the plan's own runtime — i.e.
        # no measurable overhead.
        assert not obs.is_enabled()
        iterations = 20_000
        best = float("inf")
        for _ in range(3):  # best-of-3 shields against scheduler noise
            start = time.perf_counter()
            for _ in range(iterations):
                with obs.span("x"):
                    pass
                obs.counter("c").inc()
                obs.histogram("h").observe(1.0)
            best = min(best, time.perf_counter() - start)
        per_call = best / (iterations * 3)
        assert per_call < 10e-6

    def test_disabled_plan_records_nothing(self):
        assert not obs.is_enabled()
        result = LPRRPlanner(seed=0).plan(small_problem())
        assert result.lp_stats.solve_seconds > 0  # timing still real
        assert obs.current() is None


class TestSpanExceptions:
    """Spans must close and nest correctly when traced blocks raise."""

    def test_span_closes_and_pops_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom") as sp:
                raise RuntimeError("kaboom")
        assert sp.end_time is not None
        assert tracer.current() is None  # stack fully unwound
        assert [s.name for s in tracer.roots] == ["boom"]

    def test_sibling_after_exception_is_not_a_child(self):
        tracer = Tracer()
        with tracer.span("root"):
            with pytest.raises(ValueError):
                with tracer.span("failed"):
                    raise ValueError
            with tracer.span("recovered"):
                pass
        (root,) = tracer.roots
        assert [c.name for c in root.children] == ["failed", "recovered"]
        assert all(not c.children for c in root.children)

    def test_timed_closes_on_exception_enabled_and_disabled(self):
        with pytest.raises(KeyError):
            with obs.timed("detached") as sp:
                raise KeyError
        assert sp.end_time is not None
        inst = obs.enable(obs.Instrumentation())
        with pytest.raises(KeyError):
            with obs.timed("attached") as sp:
                raise KeyError
        assert sp.end_time is not None
        assert inst.tracer.current() is None

    def test_nested_exception_unwinds_whole_stack(self):
        inst = obs.enable(obs.Instrumentation())
        with pytest.raises(RuntimeError):
            with obs.span("a"):
                with obs.span("b"):
                    with obs.span("c"):
                        raise RuntimeError
        assert inst.tracer.current() is None
        (root,) = inst.tracer.roots
        assert all(s.end_time is not None for s in root.walk())


class TestHistogramReservoir:
    """The percentile sample keeps every observation; aggregates are exact."""

    def test_exact_mode_is_default_and_unbounded(self):
        hist = Histogram("h")
        for i in range(5000):
            hist.observe(i)
        assert hist.count == 5000
        assert (hist.percentile(0), hist.percentile(100)) == (0.0, 4999.0)

    def test_aggregates_stay_exact_past_the_cap(self):
        hist = Histogram("h")
        values = [float(i) for i in range(1000)]
        for v in values:
            hist.observe(v)
        assert hist.count == 1000
        assert hist.sum == sum(values)
        assert hist.min == 0.0
        assert hist.max == 999.0
        assert hist.mean == pytest.approx(sum(values) / 1000)

    def test_exact_until_the_cap_is_reached(self):
        hist = Histogram("h")
        values = list(np.random.default_rng(0).normal(size=50))
        for v in values:
            hist.observe(float(v))
        assert hist.percentile(50) == pytest.approx(
            float(np.percentile(values, 50))
        )

    def test_observe_many_matches_repeated_observe(self):
        one = Histogram("h")
        many = Histogram("h")
        for v in (1.0, 2.0, 3.0):
            for _ in range(100):
                one.observe(v)
            many.observe_many(v, 100)
        assert one.summary() == many.summary()

    @settings(max_examples=150, deadline=None)
    @given(
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.floats(-1e15, 1e15),  # sums stay finite
                    st.integers(0, 6),
                ),
                max_size=12,
            ),
            max_size=4,
        ),
    )
    def test_observe_counts_matches_observe_many_loop(self, batches):
        loop = Histogram("h")
        batched = Histogram("h")
        for batch in batches:
            for value, count in batch:
                loop.observe_many(value, count)
            values = [value for value, _ in batch]
            batched.observe_counts(values, [count for _, count in batch])
        # Sum, min and max bit for bit, and the same retained sample in
        # the same order.
        for name in ("count", "sum", "min", "max"):
            assert repr(getattr(batched, name)) == repr(getattr(loop, name)), name
        assert batched._values == loop._values
        assert batched._sorted == loop._sorted
        assert batched.summary() == loop.summary()

    def test_observe_counts_rejects_bad_counts(self):
        hist = Histogram("h")
        with pytest.raises(ValueError, match="nonnegative"):
            hist.observe_counts([1.0, 2.0], [1, -1])
        with pytest.raises(ValueError, match="one length"):
            hist.observe_counts([1.0, 2.0], [1])
        assert hist.count == 0


class TestLabels:
    def test_labelled_instruments_are_distinct(self):
        registry = MetricsRegistry()
        a = registry.counter("runs", labels={"case": "a"})
        b = registry.counter("runs", labels={"case": "b"})
        bare = registry.counter("runs")
        a.inc(1)
        b.inc(2)
        bare.inc(4)
        assert a is registry.counter("runs", labels={"case": "a"})
        assert (a.value, b.value, bare.value) == (1.0, 2.0, 4.0)
        grouped = metrics_to_dict(registry)
        assert grouped["counters"] == {
            "runs": 4.0,
            "runs{case=a}": 1.0,
            "runs{case=b}": 2.0,
        }


class TestSpanPayloads:
    """``Span.to_dict`` -> ``span_from_payload``: the metrics-document path."""

    def test_round_trip_preserves_tree_and_timeline(self):
        from repro.obs.span import span_from_payload

        tracer = Tracer()
        with tracer.span("root", step=0) as root:
            with tracer.span("child", step=1):
                pass
        payload = json.loads(json.dumps(root.to_dict()))
        rebuilt = span_from_payload(payload)
        assert rebuilt.name == "root"
        assert rebuilt.attributes == {"step": 0}
        assert rebuilt.start_time == root.start_time
        assert rebuilt.end_time == root.end_time
        (child,) = rebuilt.children
        assert child.name == "child"
        assert child.start_time >= rebuilt.start_time

    def test_payload_is_json_safe(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            pass
        json.dumps(root.to_dict())  # must not raise

    def test_legacy_payload_without_start_end_loads(self):
        from repro.obs.span import span_from_payload

        span = span_from_payload(
            {"name": "old", "duration_seconds": 1.5, "attributes": {}, "children": []}
        )
        assert span.duration == 1.5


class TestChromeTrace:
    def _forest(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("local"):
                pass
            with tracer.span("rounding", trials=4):
                with tracer.span("inner"):
                    pass
        return tracer

    def test_document_shape(self):
        from repro.obs.export import to_chrome_trace

        doc = json.loads(to_chrome_trace(self._forest()))
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {
            "root", "local", "rounding", "inner",
        }
        for e in complete:
            assert e["ts"] >= 0 and e["dur"] >= 0 and e["pid"] == 0
        assert {e["tid"] for e in complete} == {0}
        tracks = [e["args"]["name"] for e in events if e["name"] == "thread_name"]
        assert tracks == ["main"]

    def test_empty_forest_still_valid(self):
        from repro.obs.export import to_chrome_trace

        doc = json.loads(to_chrome_trace([]))
        assert [e["name"] for e in doc["traceEvents"]] == ["process_name"]
