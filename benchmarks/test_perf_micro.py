"""Micro-benchmarks of the hot paths (multi-round timings).

Unlike the figure benches (one-shot regenerations), these measure the
steady-state cost of the operations a deployment calls repeatedly:
cost evaluation, packing and rounding, and query execution.

The ``*_loop`` / ``*_sequential`` / ``*_cold`` variants pin the legacy
implementation next to its vectorized fast path so ``pytest-benchmark``
output shows the speedup directly; ``repro bench`` tracks the same
ratios against a committed baseline (``BENCH_5.json``).
"""

import numpy as np
import pytest

from repro.core.lp import pack_components
from repro.core.hashing import random_hash_placement
from repro.core.importance import top_important
from repro.core.rounding import _round_trials_loop, round_fractional, round_trials_batched
from repro.online.sketch import CountMinSketch
from repro.search.engine import DistributedSearchEngine


@pytest.fixture(scope="module")
def scoped(study):
    problem = study.placement_problem(10)
    ids = top_important(problem, 300)
    caps = np.full(10, 2.0 * sum(problem.size_of(o) for o in ids) / 10)
    return problem.subproblem(ids, capacities=caps)


def test_perf_cost_evaluation(benchmark, study):
    problem = study.placement_problem(10)
    placement = random_hash_placement(problem)
    cost = benchmark(placement.communication_cost)
    assert cost >= 0


def test_perf_importance_ranking(benchmark, study):
    problem = study.placement_problem(10)
    ranking = benchmark(lambda: top_important(problem, 400))
    assert len(ranking) == 400


def test_perf_pack_components(benchmark, scoped):
    fractional = benchmark(lambda: pack_components(scoped))
    assert fractional.lower_bound == 0.0


def test_perf_rounding(benchmark, scoped):
    fractional = pack_components(scoped)
    rng = np.random.default_rng(0)
    placement, _ = benchmark(lambda: round_fractional(fractional, rng))
    assert placement.assignment.shape == (scoped.num_objects,)


def test_perf_parallel_rounding(benchmark, scoped, bench_jobs):
    """Best-of-8 rounding on the engine selected by --jobs.

    Run with ``--jobs 1`` and ``--jobs 2`` to compare inline vs pooled;
    the resulting placement is identical either way (spawned per-trial
    seeds), so this also smoke-tests the determinism contract.
    """
    from repro.parallel import parallel_round_best_of

    fractional = pack_components(scoped)
    result = benchmark(
        lambda: parallel_round_best_of(
            fractional, trials=8, root_seed=0, jobs=bench_jobs
        )
    )
    assert result.trials == 8
    baseline = parallel_round_best_of(fractional, trials=8, root_seed=0, jobs=1)
    assert result.trial_costs == baseline.trial_costs


def test_perf_engine_query(benchmark, study):
    placement = study.place_hash(10)
    engine = DistributedSearchEngine(study.index, placement)
    queries = [q for q in study.log][:50]

    def run_batch():
        return sum(engine.execute(q).bytes_transferred for q in queries)

    total = benchmark(run_batch)
    assert total >= 0


def test_perf_rounding_batched(benchmark, scoped):
    """All 32 trials advanced together as one vectorized sweep."""
    fractional = pack_components(scoped)
    seqs = np.random.SeedSequence(0).spawn(32)
    assignments, _ = benchmark(lambda: round_trials_batched(fractional, seqs))
    assert assignments.shape == (32, scoped.num_objects)


def test_perf_rounding_trial_loop(benchmark, scoped):
    """Same 32 trials, one at a time — baseline for the batched sweep."""
    fractional = pack_components(scoped)
    seqs = np.random.SeedSequence(0).spawn(32)
    assignments, _ = benchmark(lambda: _round_trials_loop(fractional, seqs))
    assert assignments.shape == (32, scoped.num_objects)


def test_perf_log_replay_dedup(benchmark, study):
    """Deduplicating replay: each distinct keyword tuple runs once."""
    engine = DistributedSearchEngine(study.index, study.place_hash(10))
    stats = benchmark(lambda: engine.execute_log(study.log, dedup=True))
    assert stats.queries == len(study.log)


def test_perf_log_replay_sequential(benchmark, study):
    """One-at-a-time replay — baseline for the deduplicating path."""
    engine = DistributedSearchEngine(study.index, study.place_hash(10))
    stats = benchmark(lambda: engine.execute_log(study.log, dedup=False))
    assert stats.queries == len(study.log)


@pytest.fixture(scope="module")
def ingest_pairs(study):
    from repro.core.correlation import operation_pairs

    pairs = []
    for query in study.log:
        pairs.extend(operation_pairs(query.keywords))
    return pairs


def test_perf_cm_ingest_batched(benchmark, ingest_pairs):
    """Vectorized, hash-memoizing Count-Min ingest (update_many)."""
    def run():
        sketch = CountMinSketch(width=2048, depth=4, seed=0)
        sketch.update_many(ingest_pairs)
        return sketch

    sketch = benchmark(run)
    assert sketch.total == len(ingest_pairs)


def test_perf_cm_ingest_loop(benchmark, ingest_pairs):
    """One hash-and-scatter per pair — baseline for update_many."""
    def run():
        sketch = CountMinSketch(width=2048, depth=4, seed=0)
        for pair in ingest_pairs:
            sketch.add(pair)
        return sketch

    sketch = benchmark(run)
    assert sketch.total == len(ingest_pairs)


def test_perf_sort_key_warm_cache(benchmark, study):
    """Query execution with the per-engine sort-key cache warm.

    Together with the ``_cold_cache`` variant this isolates the win
    from caching each word's ``(df, word)`` execution sort key: the
    keys are pure functions of the index, so one engine serving many
    queries pays the tuple construction once per word, not per query.
    """
    engine = DistributedSearchEngine(study.index, study.place_hash(10))
    queries = [q for q in study.log][:200]
    engine.execute_log(queries)  # warm the cache

    def run_batch():
        return sum(engine.execute(q).hops for q in queries)

    total = benchmark(run_batch)
    assert total >= 0


def test_perf_sort_key_cold_cache(benchmark, study):
    """Same batch with the sort-key cache cleared before every pass."""
    engine = DistributedSearchEngine(study.index, study.place_hash(10))
    queries = [q for q in study.log][:200]

    def run_batch():
        engine._sort_key_cache.clear()
        return sum(engine.execute(q).hops for q in queries)

    total = benchmark(run_batch)
    assert total >= 0


def test_perf_disabled_obs_overhead(scoped):
    """Disabled-path obs calls add no measurable cost to the sweep.

    Times ``round_trials_batched`` bare, then the identical sweep
    wrapped in the full set of disabled observability helpers (span,
    counter, histogram, journal record).  When instrumentation is off
    each helper is one global read, so the wrapped sweep must run at
    the bare sweep's speed — the assertion allows 25% plus a fixed
    epsilon purely for scheduler noise at these sub-millisecond
    scales.  Not a ``benchmark`` fixture test: the contract is the
    *ratio* between the two variants, which pytest-benchmark cannot
    assert on.
    """
    import time

    from repro import obs

    previous = obs.current()
    obs.disable()
    try:
        fractional = pack_components(scoped)
        seqs = np.random.SeedSequence(0).spawn(16)

        def plain():
            return round_trials_batched(fractional, seqs)

        def instrumented():
            with obs.span("sweep", trials=16):
                assignments, rounds = round_trials_batched(fractional, seqs)
            obs.counter("sweep.trials").inc(16)
            obs.histogram("sweep.cost").observe(float(assignments[0, 0]))
            obs.record("sweep.done", trials=16)
            return assignments, rounds

        def best_of(fn, repeats=7):
            fn()  # warm-up
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best

        bare = best_of(plain)
        wrapped = best_of(instrumented)
        assert wrapped <= bare * 1.25 + 1e-3, (
            f"disabled obs path added measurable overhead: "
            f"bare {bare * 1e3:.3f}ms vs wrapped {wrapped * 1e3:.3f}ms"
        )
    finally:
        if previous is not None:
            obs.enable(previous)
