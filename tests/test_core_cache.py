"""Tests for the content-addressed plan cache (repro.core.cache)."""

import json

import numpy as np
import pytest

from repro import obs
from repro.core.cache import PlanCache, problem_fingerprint, signature_key
from repro.core.lp import pack_components
from repro.core.lprr import LPRRPlanner, LPRRResult
from repro.core.problem import PlacementProblem


@pytest.fixture
def problem():
    """A dense instance with tight capacities: every split costs."""
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


class TestPlannerEngines:
    def test_legacy_default_unchanged(self, problem):
        # The planner must match the sequential-stream rounding on the
        # exact scoped subproblem it packed.
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
        planner = LPRRPlanner(seed=1, cache=PlanCache(tmp_path))
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
        planner = LPRRPlanner(seed=1, cache=PlanCache(tmp_path))
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
            LPRRPlanner(seed=1, cache=PlanCache(tmp_path)).plan(problem)
        finally:
            obs.disable()
        assert inst.metrics.counter("cache.misses").value > 0
        assert inst.metrics.counter("cache.stores").value > 0

    def test_cache_key_includes_config(self, tmp_path, problem):
        cache = PlanCache(tmp_path)
        first = LPRRPlanner(seed=1, cache=cache).plan(problem)
        other_seed = LPRRPlanner(seed=2, cache=cache).plan(problem)
        assert not first.from_cache
        assert not other_seed.from_cache  # different signature, not a hit

    def test_cached_document_is_json(self, tmp_path, problem):
        planner = LPRRPlanner(seed=1, cache=PlanCache(tmp_path))
        result = planner.plan(problem)
        docs = list(tmp_path.rglob("*.json"))
        assert docs
        for doc in docs:
            json.loads(doc.read_text(encoding="utf-8"))
        restored = LPRRResult.from_dict(result.to_dict(), problem)
        assert np.array_equal(
            restored.placement.assignment, result.placement.assignment
        )


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
        planner = LPRRPlanner(seed=1, cache=cache)
        planner.plan(problem)
        entries = list(tmp_path.rglob("*.json"))
        assert entries
        for entry in entries:
            entry.write_text("{corrupt")
        result = planner.plan(problem)  # degrades to a fresh solve
        assert not result.from_cache
        for entry in tmp_path.rglob("*.json"):
            json.loads(entry.read_text(encoding="utf-8"))  # healed
