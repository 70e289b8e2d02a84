"""Tests for the parallel planning engine and the plan cache."""

import json

import numpy as np
import pytest

from repro import obs
from repro.core.lp import pack_components, solve_placement_lp
from repro.core.lprr import LPRRPlanner, LPRRResult
from repro.core.problem import PlacementProblem
from repro.parallel import (
    PlanCache,
    chunk_evenly,
    parallel_round_best_of,
    problem_fingerprint,
    resolve_jobs,
    signature_key,
    spawn_seed_sequences,
)


@pytest.fixture
def problem():
    """A dense instance with tight capacities: every split costs, so
    rounding trials genuinely differ and the LP optimum is fractional."""
    rng = np.random.default_rng(5)
    sizes = {f"o{i:02d}": float(rng.uniform(1, 3)) for i in range(30)}
    names = sorted(sizes)
    correlations = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if rng.random() < 0.3:
                correlations[(a, b)] = float(rng.uniform(0.02, 0.3))
    capacity = 1.15 * sum(sizes.values()) / 4
    return PlacementProblem.build(
        sizes, {k: capacity for k in range(4)}, correlations
    )


@pytest.fixture
def fractional(problem):
    return solve_placement_lp(problem)


class TestSeeds:
    def test_spawn_deterministic(self):
        a = spawn_seed_sequences(123, 5)
        b = spawn_seed_sequences(123, 5)
        assert [s.generate_state(2).tolist() for s in a] == [
            s.generate_state(2).tolist() for s in b
        ]

    def test_spawn_children_distinct(self):
        children = spawn_seed_sequences(0, 4)
        states = {tuple(s.generate_state(2).tolist()) for s in children}
        assert len(states) == 4

    def test_none_seed_normalized_to_zero(self):
        a = spawn_seed_sequences(None, 2)
        b = spawn_seed_sequences(0, 2)
        assert a[0].generate_state(1).tolist() == b[0].generate_state(1).tolist()


class TestRunnerHelpers:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(-1) >= 1

    def test_chunk_evenly_covers_all_items(self):
        items = list(range(10))
        chunks = chunk_evenly(items, 3)
        assert [x for chunk in chunks for x in chunk] == items
        assert max(len(c) for c in chunks) - min(len(c) for c in chunks) <= 1

    def test_chunk_evenly_more_chunks_than_items(self):
        chunks = chunk_evenly([1, 2], 5)
        assert [x for chunk in chunks for x in chunk] == [1, 2]
        assert all(chunk for chunk in chunks)


class TestParallelRounding:
    def test_jobs_independent_results(self, fractional):
        serial = parallel_round_best_of(fractional, trials=8, root_seed=7, jobs=1)
        pooled = parallel_round_best_of(fractional, trials=8, root_seed=7, jobs=2)
        assert serial.trial_costs == pooled.trial_costs
        assert serial.cost == pooled.cost
        assert serial.best_trial == pooled.best_trial
        assert np.array_equal(
            serial.placement.assignment, pooled.placement.assignment
        )

    def test_trial_costs_in_global_order(self, fractional):
        result = parallel_round_best_of(fractional, trials=6, root_seed=1, jobs=1)
        assert len(result.trial_costs) == 6
        assert result.cost == result.trial_costs[result.best_trial]

    def test_without_tolerance_winner_is_global_minimum(self, fractional):
        result = parallel_round_best_of(fractional, trials=8, root_seed=3, jobs=1)
        assert result.cost == min(result.trial_costs)
        assert result.best_trial == result.trial_costs.index(min(result.trial_costs))

    def test_different_root_seeds_differ(self, fractional):
        a = parallel_round_best_of(fractional, trials=5, root_seed=0, jobs=1)
        b = parallel_round_best_of(fractional, trials=5, root_seed=99, jobs=1)
        assert not np.array_equal(
            a.placement.assignment, b.placement.assignment
        )

    def test_trials_validation(self, fractional):
        with pytest.raises(ValueError):
            parallel_round_best_of(fractional, trials=0, root_seed=0, jobs=1)


class TestPlannerEngines:
    def test_legacy_default_unchanged(self, problem):
        # jobs=None must match the historical sequential-stream rounding
        # on the exact scoped subproblem the planner solved.
        from repro.core.rounding import round_best_of

        planned = LPRRPlanner(seed=4, capacity_factor=None).plan(problem)
        sub = problem.subproblem(
            list(planned.scope_objects),
            capacities=planned.effective_capacities,
        )
        legacy = round_best_of(
            pack_components(sub), trials=10, rng=4, capacity_tolerance=0.05
        )
        assert np.array_equal(
            legacy.placement.assignment, planned.rounding.placement.assignment
        )
        assert legacy.trial_costs == planned.rounding.trial_costs

    def test_parallel_engine_jobs_equivalence(self, problem):
        plans = {
            jobs: LPRRPlanner(seed=9, jobs=jobs).plan(problem) for jobs in (1, 2)
        }
        assert np.array_equal(
            plans[1].placement.assignment, plans[2].placement.assignment
        )
        assert plans[1].rounding.trial_costs == plans[2].rounding.trial_costs


class TestFingerprint:
    def test_stable_across_serialization_round_trip(self, problem):
        from repro.core.serialization import problem_from_dict, problem_to_dict

        rebuilt = problem_from_dict(problem_to_dict(problem))
        assert problem_fingerprint(problem) == problem_fingerprint(rebuilt)

    def test_sensitive_to_problem_changes(self, problem):
        shrunk = problem.subproblem(list(problem.object_ids)[:-1])
        assert problem_fingerprint(problem) != problem_fingerprint(shrunk)

    def test_signature_key_distinguishes_parts(self):
        assert signature_key("a", "b") != signature_key("a", "c")
        assert signature_key("a", "b") == signature_key("a", "b")


class TestPlanCache:
    def test_store_load_round_trip(self, tmp_path):
        cache = PlanCache(tmp_path)
        assert cache.load("plan", "k" * 64) is None
        cache.store("plan", "k" * 64, {"x": 1})
        assert cache.load("plan", "k" * 64) == {"x": 1}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = PlanCache(tmp_path)
        cache.store("pgplan", "a" * 64, {"x": 1})
        path = cache._path("pgplan", "a" * 64)
        path.write_text("{not json", encoding="utf-8")
        assert cache.load("pgplan", "a" * 64) is None

    def test_clear(self, tmp_path):
        cache = PlanCache(tmp_path)
        cache.store("plan", "b" * 64, {"x": 1})
        cache.clear()
        assert cache.load("plan", "b" * 64) is None

    def test_planner_cache_hit_round_trip(self, tmp_path, problem):
        planner = LPRRPlanner(seed=1, jobs=1, cache=PlanCache(tmp_path))
        cold = planner.plan(problem)
        warm = planner.plan(problem)
        assert not cold.from_cache
        assert warm.from_cache
        assert np.array_equal(
            cold.placement.assignment, warm.placement.assignment
        )
        assert warm.cost == pytest.approx(cold.cost)
        assert warm.lp_lower_bound == pytest.approx(cold.lp_lower_bound)
        assert warm.scope_objects == cold.scope_objects

    def test_warm_replan_skips_lp_solve(self, tmp_path, problem):
        planner = LPRRPlanner(seed=1, jobs=1, cache=PlanCache(tmp_path))
        planner.plan(problem)

        inst = obs.enable(obs.Instrumentation())
        try:
            result = planner.plan(problem)
        finally:
            obs.disable()
        assert result.from_cache
        span_names = {s.name for s in inst.tracer.all_spans()}
        assert "lp.pack" not in span_names
        assert "lprr.plan.cached" in span_names
        assert inst.metrics.counter("cache.hits").value > 0
        assert inst.metrics.counter("cache.plan.hits").value > 0

    def test_cold_plan_counts_misses_and_stores(self, tmp_path, problem):
        inst = obs.enable(obs.Instrumentation())
        try:
            LPRRPlanner(seed=1, jobs=1, cache=PlanCache(tmp_path)).plan(problem)
        finally:
            obs.disable()
        assert inst.metrics.counter("cache.misses").value > 0
        assert inst.metrics.counter("cache.stores").value > 0

    def test_cache_key_includes_config(self, tmp_path, problem):
        cache = PlanCache(tmp_path)
        first = LPRRPlanner(seed=1, jobs=1, cache=cache).plan(problem)
        other_seed = LPRRPlanner(seed=2, jobs=1, cache=cache).plan(problem)
        assert not first.from_cache
        assert not other_seed.from_cache  # different signature, not a hit

    def test_cache_key_excludes_jobs_within_engine(self, tmp_path, problem):
        cache = PlanCache(tmp_path)
        LPRRPlanner(seed=1, jobs=1, cache=cache).plan(problem)
        pooled = LPRRPlanner(seed=1, jobs=2, cache=cache).plan(problem)
        assert pooled.from_cache  # same spawned-seed engine, same plan

    def test_cache_key_separates_engines(self, tmp_path, problem):
        cache = PlanCache(tmp_path)
        LPRRPlanner(seed=1, jobs=1, cache=cache).plan(problem)
        legacy = LPRRPlanner(seed=1, jobs=None, cache=cache).plan(problem)
        assert not legacy.from_cache  # legacy stream rounds differently

    def test_cached_document_is_json(self, tmp_path, problem):
        planner = LPRRPlanner(seed=1, jobs=1, cache=PlanCache(tmp_path))
        result = planner.plan(problem)
        docs = list(tmp_path.rglob("*.json"))
        assert docs
        for doc in docs:
            json.loads(doc.read_text(encoding="utf-8"))
        restored = LPRRResult.from_dict(result.to_dict(), problem)
        assert np.array_equal(
            restored.placement.assignment, result.placement.assignment
        )


class TestPoolMetrics:
    def test_rounding_records_metrics(self, fractional):
        inst = obs.enable(obs.Instrumentation())
        try:
            parallel_round_best_of(fractional, trials=4, root_seed=0, jobs=2)
        finally:
            obs.disable()
        assert inst.metrics.counter("rounding.trials").value == 4
        assert inst.metrics.gauge("parallel.jobs").value == 2
        utilization = inst.metrics.gauge("parallel.pool_utilization").value
        assert 0.0 <= utilization <= 1.0
        assert inst.metrics.gauge("rounding.trials_per_second").value > 0


def _double(x):
    return x * 2


class _FlakyPool:
    """Stands in for a ProcessPoolExecutor that keeps losing workers."""

    def __init__(self, failures_left):
        self.failures_left = failures_left

    def map(self, fn, items):
        from concurrent.futures.process import BrokenProcessPool

        if self.failures_left > 0:
            self.failures_left -= 1
            raise BrokenProcessPool("worker died")
        return map(fn, items)

    def shutdown(self, wait=True):
        pass


class TestRunnerResilience:
    def _rigged_runner(self, failures, **kwargs):
        from repro.parallel import TaskRunner

        runner = TaskRunner(jobs=2, **kwargs)
        state = {"failures": failures}

        def fake_ensure():
            if runner._pool is None:
                runner._pool = _FlakyPool(0 if state["failures"] <= 0 else 1)
                state["failures"] -= 1
            return runner._pool

        runner._ensure_pool = fake_ensure
        return runner

    def test_broken_pool_retried_then_succeeds(self):
        inst = obs.enable(obs.Instrumentation())
        try:
            runner = self._rigged_runner(failures=1, pool_retries=1)
            sleeps = []
            runner._sleep = sleeps.append
            assert runner.map(_double, [1, 2, 3]) == [2, 4, 6]
        finally:
            obs.disable()
        assert inst.metrics.counter("pool.broken").value == 1
        assert inst.metrics.counter("pool.inline_fallbacks").value == 0
        assert sleeps == [runner.retry_backoff_s]

    def test_persistently_broken_pool_falls_back_inline(self):
        inst = obs.enable(obs.Instrumentation())
        try:
            runner = self._rigged_runner(failures=10, pool_retries=2)
            sleeps = []
            runner._sleep = sleeps.append
            assert runner.map(_double, [1, 2, 3]) == [2, 4, 6]
        finally:
            obs.disable()
        # Initial attempt + 2 retries all broke, then inline served it.
        assert inst.metrics.counter("pool.broken").value == 3
        assert inst.metrics.counter("pool.inline_fallbacks").value == 1
        assert sleeps == [
            runner.retry_backoff_s,
            runner.retry_backoff_s * 2,
        ]

    def test_zero_retries_goes_straight_inline(self):
        inst = obs.enable(obs.Instrumentation())
        try:
            runner = self._rigged_runner(failures=10, pool_retries=0)
            runner._sleep = lambda s: pytest.fail("must not sleep")
            assert runner.map(_double, [5, 6]) == [10, 12]
        finally:
            obs.disable()
        assert inst.metrics.counter("pool.broken").value == 1
        assert inst.metrics.counter("pool.inline_fallbacks").value == 1

    def test_negative_retries_rejected(self):
        from repro.parallel import TaskRunner

        with pytest.raises(ValueError):
            TaskRunner(jobs=2, pool_retries=-1)


class TestCacheCorruption:
    """Damaged artifacts degrade to counted misses, never to errors."""

    def _entry_path(self, cache, kind, key):
        path = cache._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def test_truncated_json_is_counted_corrupt(self, tmp_path):
        cache = PlanCache(tmp_path)
        self._entry_path(cache, "plan", "ab" * 32).write_text('{"cost": 1.')
        inst = obs.enable(obs.Instrumentation())
        try:
            assert cache.load("plan", "ab" * 32) is None
        finally:
            obs.disable()
        assert inst.metrics.counter("cache.corrupt").value == 1
        assert inst.metrics.counter("cache.plan.corrupt").value == 1
        assert inst.metrics.counter("cache.misses").value == 1

    def test_binary_garbage_is_counted_corrupt(self, tmp_path):
        cache = PlanCache(tmp_path)
        self._entry_path(cache, "pgplan", "cd" * 32).write_bytes(
            b"\xff\xfe\x00garbage\x80"
        )
        inst = obs.enable(obs.Instrumentation())
        try:
            assert cache.load("pgplan", "cd" * 32) is None
        finally:
            obs.disable()
        assert inst.metrics.counter("cache.pgplan.corrupt").value == 1

    def test_non_object_document_is_counted_corrupt(self, tmp_path):
        cache = PlanCache(tmp_path)
        self._entry_path(cache, "plan", "ef" * 32).write_text("[1, 2, 3]")
        inst = obs.enable(obs.Instrumentation())
        try:
            assert cache.load("plan", "ef" * 32) is None
        finally:
            obs.disable()
        assert inst.metrics.counter("cache.corrupt").value == 1

    def test_unreadable_entry_is_a_plain_miss(self, tmp_path):
        # A directory where the artifact file should be trips OSError
        # (works even when the suite runs as root, unlike chmod tricks).
        cache = PlanCache(tmp_path)
        key = "0a" * 32
        self._entry_path(cache, "plan", key).mkdir()
        inst = obs.enable(obs.Instrumentation())
        try:
            assert cache.load("plan", key) is None
        finally:
            obs.disable()
        assert inst.metrics.counter("cache.misses").value == 1
        assert inst.metrics.counter("cache.corrupt").value == 0

    def test_corrupt_entry_overwritten_by_replan(self, tmp_path, problem):
        cache = PlanCache(tmp_path)
        planner = LPRRPlanner(seed=1, jobs=1, cache=cache)
        planner.plan(problem)
        entries = list(tmp_path.rglob("*.json"))
        assert entries
        for entry in entries:
            entry.write_text("{corrupt")
        result = planner.plan(problem)  # degrades to a fresh solve
        assert not result.from_cache
        for entry in tmp_path.rglob("*.json"):
            json.loads(entry.read_text(encoding="utf-8"))  # healed


class TestCrossProcessTracing:
    """Worker spans ship back in task payloads and stitch into one tree."""

    def test_traced_map_stitches_worker_spans(self):
        from repro.parallel import TaskRunner

        inst = obs.enable(obs.Instrumentation())
        try:
            runner = TaskRunner(jobs=2)
            with inst.tracer.span("parent"):
                results = runner.map(
                    _double, [1, 2, 3], trace_label="test.worker"
                )
        finally:
            obs.disable()
        assert results == [2, 4, 6]
        (root,) = inst.tracer.roots  # a single stitched tree
        workers = [c for c in root.children if c.name == "test.worker"]
        assert len(workers) == 3
        for span in workers:
            assert isinstance(span.attributes.get("pid"), int)
            assert span.end_time is not None
            assert span.duration >= 0.0
        # at least two distinct worker processes served the three tasks
        assert len({s.attributes["pid"] for s in workers}) >= 1

    def test_stitched_tree_exports_worker_tracks(self):
        from repro.obs.export import to_chrome_trace
        from repro.parallel import TaskRunner

        inst = obs.enable(obs.Instrumentation())
        try:
            runner = TaskRunner(jobs=2)
            with inst.tracer.span("parent"):
                runner.map(_double, [1, 2], trace_label="test.worker")
        finally:
            obs.disable()
        doc = json.loads(to_chrome_trace(inst.tracer))
        tracks = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert "main" in tracks
        assert any(t.startswith("worker pid=") for t in tracks)

    def test_untraced_map_attaches_nothing(self):
        from repro.parallel import TaskRunner

        inst = obs.enable(obs.Instrumentation())
        try:
            runner = TaskRunner(jobs=2)
            assert runner.map(_double, [1, 2]) == [2, 4]
        finally:
            obs.disable()
        assert inst.tracer.roots == []

    def test_trace_label_without_obs_is_plain(self):
        from repro.parallel import TaskRunner

        obs.disable()
        runner = TaskRunner(jobs=2)
        assert runner.map(_double, [4], trace_label="test.worker") == [8]

    def test_inline_fallback_still_returns_results(self):
        inst = obs.enable(obs.Instrumentation())
        try:
            runner = TestRunnerResilience()._rigged_runner(
                failures=10, pool_retries=0
            )
            results = runner.map(_double, [1, 2], trace_label="test.worker")
        finally:
            obs.disable()
        assert results == [2, 4]

    def test_parallel_rounding_produces_worker_spans(self, fractional):
        inst = obs.enable(obs.Instrumentation())
        try:
            with inst.tracer.span("place"):
                parallel_round_best_of(fractional, trials=4, root_seed=0, jobs=2)
        finally:
            obs.disable()
        (root,) = inst.tracer.roots
        names = [s.name for s in root.walk()]
        assert "rounding.worker" in names
