"""Micro-benchmarks of the hot paths (multi-round timings).

Unlike the figure benches (one-shot regenerations), these measure the
steady-state cost of the operations a deployment calls repeatedly:
cost evaluation, packing, rounding and repair, and query execution.

The ``*_loop`` variant pins the legacy implementation next to its
vectorized fast path so ``pytest-benchmark`` output shows the speedup
directly.  End-to-end timing is ``perfbench/run.py``.
"""

import asyncio

import numpy as np
import pytest

from repro.core.lp import pack_components
from repro.core.greedy import greedy_placement
from repro.core.hashing import random_hash_placement
from repro.core.importance import top_important
from repro.core.migration import select_migrations
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.core.repair import repair_capacity
from repro.core.rounding import round_best_of, round_fractional
from repro.core.strategies import plan
from repro.online.sketch import (
    CountMinSketch,
    SketchCorrelationEstimator,
    SpaceSavingPairs,
)
from repro.search.engine import (
    DistributedSearchEngine,
    QueryProfile,
    build_placement_problem,
)
from repro.search.index import InvertedIndex
from repro.serve import LoadgenConfig
from repro.serve.snapshot import PlanSnapshot
from repro.serve.vtime import run_virtual
from repro.workloads.corpus_gen import generate_corpus
from repro.workloads.query_gen import QueryWorkloadModel


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


def test_perf_repair_capacity(benchmark, scoped):
    """Repair the first rounding draw that overflows its capacities."""
    fractional = pack_components(scoped)
    for seed in range(100):
        draw, _ = round_fractional(fractional, np.random.default_rng(seed))
        if not draw.is_feasible(0.05):
            break
    assert not draw.is_feasible(0.05)
    repaired = benchmark(lambda: repair_capacity(draw, tolerance=0.05))
    assert repaired.is_feasible(0.05)


def test_perf_engine_query(benchmark, study):
    placement = study.place_hash(10)
    engine = DistributedSearchEngine(study.index, placement)
    queries = [q for q in study.log][:50]

    def run_batch():
        return sum(engine.execute(q).bytes_transferred for q in queries)

    total = benchmark(run_batch)
    assert total >= 0


def test_perf_build_problem(benchmark, study):
    """Mine the study log into a problem: compile, then gather pairs."""
    problem = benchmark(
        lambda: build_placement_problem(
            study.index, study.log, 10, min_support=study.config.min_support
        )
    )
    assert problem.num_pairs == study.placement_problem(10).num_pairs


def test_perf_profile_compile(benchmark, study):
    """Compile the study log: group, sort and intersect once.

    ``shipped`` is lazy; touching it times what a replay pays.
    """
    def compile_log():
        profile = QueryProfile(study.index, study.log)
        profile.shipped
        return profile

    profile = benchmark(compile_log)
    assert len(profile.inverse) == len(study.log)


def test_perf_profile_replay(benchmark, study):
    """Replay a compiled log against one placement: a gather and sums."""
    profile = QueryProfile(study.index, study.log)
    engine = DistributedSearchEngine(study.index, study.place_hash(10))
    stats = benchmark(lambda: engine.replay(profile))
    assert stats.queries == len(study.log)


def test_perf_virtual_loop(benchmark):
    """The serve drive's per-query loop pattern without the engine:
    20,000 tasks sleep to seeded arrival times, then await futures that
    a batch timer resolves every 32 arrivals, or 2 ms after the first."""
    arrivals = np.sort(np.random.default_rng(0).uniform(0.0, 4.0, 20_000)).tolist()

    async def drive():
        loop = asyncio.get_running_loop()
        pending = []
        timer = None

        def resolve(batch):
            for future in batch:
                future.set_result(None)

        def flush():
            nonlocal pending, timer
            if timer is not None:
                timer.cancel()
                timer = None
            batch, pending = pending, []
            loop.call_at(loop.time() + 1e-3, resolve, batch)

        async def one(arrival):
            nonlocal timer
            await asyncio.sleep(arrival - loop.time())
            future = loop.create_future()
            pending.append(future)
            if len(pending) >= 32:
                flush()
            elif timer is None:
                timer = loop.call_at(loop.time() + 2e-3, flush)
            await future

        await asyncio.gather(*(one(arrival) for arrival in arrivals))
        return loop.time()

    end = benchmark(lambda: run_virtual(drive()))
    assert arrivals[-1] < end < arrivals[-1] + 4e-3


@pytest.fixture(scope="module")
def swap_window():
    """A hot swap's replan input: about a second of a 1,000-word loadgen
    stream (4,000 queries) mined by co-occurrence, with the scenario's
    5 nodes at 1.5x even-split capacity (~1,000 objects, ~6.5k pairs)."""
    config = LoadgenConfig(vocabulary=1000, documents=1000)
    index = InvertedIndex.from_corpus(
        generate_corpus(config.documents, config.vocabulary, seed=0)
    )
    model = QueryWorkloadModel(index.vocabulary, num_topics=config.topics, seed=0)
    return build_placement_problem(
        index,
        model.generate(4000, rng=1),
        config.node_capacities(float(index.total_bytes)),
        correlation_mode="cooccurrence",
    )


def test_perf_stream_greedy(benchmark, swap_window):
    """One hot swap's plan step: scope, subproblem and the streaming pass."""
    result = benchmark(lambda: plan(swap_window, "stream:greedy"))
    assert result.placement.assignment.min() >= 0
    assert 0 < result.cost < swap_window.total_pair_weight


def test_perf_replicated_route(benchmark, study):
    """Route the study log one query at a time, as a served batch does."""
    placement = study.place_hash(10)
    problem = placement.problem
    mapping = dict(zip(problem.object_ids, placement.assignment.tolist()))
    engine = PlanSnapshot.from_mapping(study.index, problem, mapping, 1).engine
    queries = list(study.log)
    executions = benchmark(lambda: [engine.execute(q) for q in queries])
    assert len(executions) == len(study.log)


@pytest.fixture(scope="module")
def ingest_pairs(study):
    from repro.core.correlation import operation_pairs

    pairs = []
    for query in study.log:
        pairs.extend(operation_pairs(query.keywords))
    return pairs


def test_perf_cm_ingest_batched(benchmark, ingest_pairs):
    """Vectorized Count-Min ingest (update_many): one digest per distinct key."""
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


def test_perf_space_saving_full(benchmark, ingest_pairs):
    """Space-Saving ingest at a capacity the stream keeps full."""
    def run():
        tracker = SpaceSavingPairs(capacity=128)
        for pair in ingest_pairs:
            tracker.add(pair)
        return tracker

    tracker = benchmark(run)
    assert tracker.total == len(ingest_pairs)
    assert tracker.evictions > 0


def test_perf_sketch_observe_trace(benchmark, study):
    """One online_drift-sized period (~1,650 operations) through the
    sketch estimator: 512 x 4 Count-Min cells, 128 heavy hitters."""
    operations = [query.keywords for query in list(study.log)[:1650]]

    def run():
        estimator = SketchCorrelationEstimator(
            width=512, depth=4, heavy_hitters=128, seed=0
        )
        estimator.observe_trace(operations)
        return estimator

    estimator = benchmark(run)
    assert estimator.num_operations == len(operations)
    assert len(estimator.heavy) == 128


def test_perf_select_migrations(benchmark):
    """One online replan's budgeted selection: 1,000 unit objects on 8
    nodes, 128 heavy pairs among the 200 hottest, a 10% byte budget.
    As in the online controller, only objects in a heavy pair have a
    new target."""
    rng = np.random.default_rng(0)
    ids = [f"w{i:04d}" for i in range(1000)]
    pairs: dict = {}
    while len(pairs) < 128:
        i, j = sorted(rng.choice(200, size=2, replace=False).tolist())
        pairs[(ids[i], ids[j])] = float(rng.uniform(0.001, 0.05))
    problem = PlacementProblem.build(dict.fromkeys(ids, 1.0), 8, pairs)
    current = random_hash_placement(problem)
    heavy = sorted({problem.object_index(obj) for pair in pairs for obj in pair})
    assignment = current.assignment.copy()
    assignment[heavy] = greedy_placement(problem).assignment[heavy]
    target = Placement(problem, assignment)

    migration = benchmark(lambda: select_migrations(current, target, budget_bytes=100.0))
    assert 0 < migration.bytes_moved <= 100.0
    assert migration.cost_after <= migration.cost_before


def test_perf_disabled_obs_overhead(scoped):
    """Disabled-path obs calls add no measurable cost to rounding.

    Times ``round_best_of`` bare, then the identical rounding
    wrapped in the full set of disabled observability helpers (span,
    counter, histogram, journal record).  When instrumentation is off
    each helper is one global read, so the wrapped rounding must run
    at the bare rounding's speed — the assertion allows 25% plus a fixed
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

        def plain():
            return round_best_of(fractional, trials=16, rng=0)

        def instrumented():
            with obs.span("wrapped", trials=16):
                result = round_best_of(fractional, trials=16, rng=0)
            obs.counter("wrapped.trials").inc(16)
            obs.histogram("wrapped.cost").observe(result.cost)
            obs.record("wrapped.done", trials=16)
            return result

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
