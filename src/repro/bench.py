"""Tracked micro-benchmark suite for the vectorized hot paths.

Every scenario here times a **fast path against the legacy loop it
replaced** on a pinned, seeded workload and asserts their outputs are
identical before reporting a speedup.  Because each run measures both
engines on the same machine, the speedup *ratios* are comparable
across machines even though absolute wall times are not — which is
what makes the committed ``BENCH_5.json`` artifact a meaningful CI
baseline: a change that erodes a fast path shows up as a falling
ratio regardless of runner hardware.

Scenarios, by pipeline stage:

* ``plan`` — vectorized correlation mining
  (:func:`~repro.core.correlation.cooccurrence_correlations`).
* ``evaluate`` — deduplicated query-log replay
  (:meth:`~repro.search.engine.DistributedSearchEngine.execute_log`).
* ``online-ingest`` — vectorized Count-Min ingestion
  (:meth:`~repro.online.sketch.CountMinSketch.update_many`) and the
  batched estimator trace path
  (:meth:`~repro.online.sketch.SketchCorrelationEstimator.observe_trace`).
* ``pg`` — placement-group indirection at scale: plans one million
  objects through a small PG map (``lprr:pg``; see ``docs/SCALE.md``)
  and times the vectorized map expansion
  (:func:`~repro.pg.expand_assignment`) against the per-object
  ``assign`` loop.  Not part of the committed baseline — the plan wall
  time is pinned in ``detail`` for the 1M-objects acceptance check.
* ``serve`` — the serving layer: one seeded loadgen scenario replayed
  through the batching :class:`~repro.serve.router.QueryRouter` versus
  per-query dispatch (``max_batch=1``), compared on *service seconds
  per completed query* (virtual time, so the ratio is deterministic);
  and the streaming-partitioner replan ablation — ``stream:greedy``
  versus heavy-pair ``lprr`` on the post-shift trace, compared on
  replan wall time with the placement-cost ratio gating ``equal``.
* ``rep`` — replicated placement at scale: spread-constrained
  two-copy placement of 100k objects over a zoned topology
  (:func:`~repro.core.replication.spread_replicated_placement`), a
  zone-down chaos epoch evaluation
  (:func:`~repro.resilience.degraded.mode_stats`), and the vectorized
  spread validation
  (:func:`~repro.core.replication.spread_violations`) against its
  per-object loop.  Not part of the committed baseline — plan and
  epoch wall times are pinned in ``detail``.

Run via ``repro bench``; see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from repro import obs
from repro.core.correlation import (
    cooccurrence_correlations,
    operation_pairs,
)
from repro.core.problem import PlacementProblem
from repro.experiments.common import CaseStudy, CaseStudyConfig
from repro.online.sketch import CountMinSketch, SketchCorrelationEstimator
from repro.search.engine import DistributedSearchEngine

#: Artifact schema marker; bump when the JSON layout changes.
SCHEMA = "repro.bench/v1"

#: Default artifact name at the repository root.
DEFAULT_ARTIFACT = "BENCH_5.json"

#: Scenario tags in pipeline order.
TAGS = ("plan", "evaluate", "online-ingest", "pg", "rep", "serve")


@dataclass(frozen=True)
class BenchCase:
    """One fast-vs-legacy measurement.

    Attributes:
        name: Scenario identifier (stable across runs).
        tag: Pipeline stage, one of :data:`TAGS`.
        legacy_s: Best-of-``repeats`` wall time of the legacy loop.
        fast_s: Best-of-``repeats`` wall time of the fast path.
        speedup: ``legacy_s / fast_s``.
        min_speedup: Absolute floor this scenario must sustain, or
            None for informational scenarios.
        equal: Whether the two engines produced identical output.
        detail: Pinned scenario sizes (documentation, not compared).
    """

    name: str
    tag: str
    legacy_s: float
    fast_s: float
    speedup: float
    min_speedup: float | None
    equal: bool
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tag": self.tag,
            "legacy_s": round(self.legacy_s, 6),
            "fast_s": round(self.fast_s, 6),
            "speedup": round(self.speedup, 3),
            "min_speedup": self.min_speedup,
            "equal": self.equal,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchCase":
        return cls(
            name=data["name"],
            tag=data["tag"],
            legacy_s=float(data["legacy_s"]),
            fast_s=float(data["fast_s"]),
            speedup=float(data["speedup"]),
            min_speedup=data.get("min_speedup"),
            equal=bool(data["equal"]),
            detail=dict(data.get("detail", {})),
        )


@dataclass(frozen=True)
class BenchReport:
    """A full suite run: cases plus run-level bookkeeping."""

    seed: int
    repeats: int
    peak_rss_kb: int
    cases: tuple[BenchCase, ...]

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "seed": self.seed,
            "repeats": self.repeats,
            "peak_rss_kb": self.peak_rss_kb,
            "cases": [case.to_dict() for case in self.cases],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def from_dict(cls, data: dict) -> "BenchReport":
        if data.get("schema") != SCHEMA:
            raise ValueError(
                f"unsupported bench artifact schema {data.get('schema')!r}"
            )
        return cls(
            seed=int(data["seed"]),
            repeats=int(data["repeats"]),
            peak_rss_kb=int(data["peak_rss_kb"]),
            cases=tuple(BenchCase.from_dict(c) for c in data["cases"]),
        )

    @classmethod
    def load(cls, path: str | Path) -> "BenchReport":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def case(self, name: str) -> BenchCase | None:
        for case in self.cases:
            if case.name == name:
                return case
        return None

    def compare(
        self, baseline: "BenchReport", tolerance: float = 0.25
    ) -> list[str]:
        """Regressions of this run against a baseline artifact.

        Wall times are machine-specific, so only the fast-vs-legacy
        *ratios* are compared: a case regresses when its speedup falls
        more than ``tolerance`` below the baseline's, or below its own
        absolute floor (with the same slack for noisy runners).
        Equality failures always regress.

        Returns:
            Human-readable regression lines; empty when clean.
        """
        if not 0.0 <= tolerance < 1.0:
            raise ValueError("tolerance must be in [0, 1)")
        problems: list[str] = []
        for case in self.cases:
            if not case.equal:
                problems.append(
                    f"{case.name}: fast path output diverged from legacy"
                )
                continue
            floor = None
            base = baseline.case(case.name)
            if base is not None:
                floor = base.speedup * (1.0 - tolerance)
            if case.min_speedup is not None:
                absolute = case.min_speedup * (1.0 - tolerance)
                floor = absolute if floor is None else max(floor, absolute)
            if floor is not None and case.speedup < floor:
                expected = (
                    f"baseline {base.speedup:.2f}x" if base is not None else ""
                )
                if case.min_speedup is not None:
                    target = f"floor {case.min_speedup:.2f}x"
                    expected = f"{expected}, {target}" if expected else target
                problems.append(
                    f"{case.name}: speedup {case.speedup:.2f}x below "
                    f"{floor:.2f}x ({expected}, tolerance {tolerance:.0%})"
                )
        return problems


def _best_of(repeats: int, run: Callable[[], object]) -> float:
    """Minimum wall time over ``repeats`` runs, with the GC paused.

    The minimum estimates the noise-free cost; pausing collection
    keeps a mid-run GC cycle from landing in one engine's window and
    not the other's.
    """
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - started)
    finally:
        if was_enabled:
            gc.enable()
    return best


def _peak_rss_kb() -> int:
    """Peak resident set size in KiB (ru_maxrss is bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


# ----------------------------------------------------------------------
# Pinned workloads
# ----------------------------------------------------------------------

def _replay_study(seed: int) -> CaseStudy:
    """Heavy-repetition search workload (the paper's Zipf logs repeat
    queries far more than this)."""
    return CaseStudy.build(
        CaseStudyConfig(
            num_documents=800,
            vocabulary_size=250,
            num_queries=40_000,
            num_topics=14,
            topic_query_fraction=0.99,
            topic_size_range=(3, 4),
            seed=seed,
        )
    )


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

def _mine_loop(trace: Iterable) -> dict:
    """The pre-vectorization correlation miner (baseline)."""
    counts: Counter = Counter()
    total = 0
    for operation in trace:
        total += 1
        counts.update(operation_pairs(operation))
    if total == 0:
        return {}
    return {pair: count / total for pair, count in counts.items()}


def _bench_correlation(study: CaseStudy, repeats: int) -> BenchCase:
    trace = [query.keywords for query in study.log]
    legacy = _mine_loop(trace)
    fast = cooccurrence_correlations(trace)
    equal = legacy == fast and list(legacy) == list(fast)
    legacy_s = _best_of(repeats, lambda: _mine_loop(trace))
    fast_s = _best_of(repeats, lambda: cooccurrence_correlations(trace))
    return BenchCase(
        name="correlation_mining",
        tag="plan",
        legacy_s=legacy_s,
        fast_s=fast_s,
        speedup=legacy_s / fast_s,
        min_speedup=1.2,
        equal=equal,
        detail={"operations": len(trace), "pairs": len(fast)},
    )


def _bench_log_replay(study: CaseStudy, repeats: int) -> BenchCase:
    placement = study.place_hash(8)

    def run(dedup: bool):
        engine = DistributedSearchEngine(study.index, placement)
        return engine.execute_log(study.log, dedup=dedup)

    legacy = run(False)
    fast = run(True)
    equal = (
        legacy.queries == fast.queries
        and legacy.total_bytes == fast.total_bytes
        and legacy.total_hops == fast.total_hops
        and legacy.local_queries == fast.local_queries
        and legacy.per_node_bytes_sent == fast.per_node_bytes_sent
    )
    legacy_s = _best_of(repeats, lambda: run(False))
    fast_s = _best_of(repeats, lambda: run(True))
    unique = len({query.keywords for query in study.log})
    return BenchCase(
        name="log_replay",
        tag="evaluate",
        legacy_s=legacy_s,
        fast_s=fast_s,
        speedup=legacy_s / fast_s,
        min_speedup=3.0,
        equal=equal,
        detail={
            "queries": len(study.log),
            "unique_queries": unique,
            "nodes": 8,
        },
    )


def _bench_cm_ingest(study: CaseStudy, repeats: int) -> BenchCase:
    pairs = [
        pair
        for query in study.log
        for pair in operation_pairs(query.keywords)
    ]

    def legacy_run():
        sketch = CountMinSketch(seed=0)
        for pair in pairs:
            sketch.add(pair)
        return sketch

    def fast_run():
        sketch = CountMinSketch(seed=0)
        sketch.update_many(pairs)
        return sketch

    legacy = legacy_run()
    fast = fast_run()
    equal = bool(
        np.array_equal(legacy._cells, fast._cells)
        and legacy._total == fast._total
    )
    legacy_s = _best_of(repeats, legacy_run)
    fast_s = _best_of(repeats, fast_run)
    return BenchCase(
        name="sketch_ingest",
        tag="online-ingest",
        legacy_s=legacy_s,
        fast_s=fast_s,
        speedup=legacy_s / fast_s,
        min_speedup=2.0,
        equal=equal,
        detail={"pairs": len(pairs), "unique_pairs": len(set(pairs))},
    )


def _bench_estimator_ingest(study: CaseStudy, repeats: int) -> BenchCase:
    trace = [query.keywords for query in study.log]

    def legacy_run():
        estimator = SketchCorrelationEstimator(seed=0)
        estimator.observe_all(trace)
        return estimator

    def fast_run():
        estimator = SketchCorrelationEstimator(seed=0)
        estimator.observe_trace(trace)
        return estimator

    legacy = legacy_run()
    fast = fast_run()
    equal = json.dumps(legacy.to_dict(), sort_keys=True) == json.dumps(
        fast.to_dict(), sort_keys=True
    )
    legacy_s = _best_of(repeats, legacy_run)
    fast_s = _best_of(repeats, fast_run)
    return BenchCase(
        name="estimator_ingest",
        tag="online-ingest",
        legacy_s=legacy_s,
        fast_s=fast_s,
        speedup=legacy_s / fast_s,
        min_speedup=None,
        equal=equal,
        detail={"operations": len(trace)},
    )


def _bench_columnar_ingest(study: CaseStudy, repeats: int) -> BenchCase:
    from repro.workloads.traces import TraceColumns

    trace = [query.keywords for query in study.log]
    columns = TraceColumns.from_operations(trace)

    def legacy_run():
        estimator = SketchCorrelationEstimator(seed=0)
        estimator.observe_trace(columns.operations())
        return estimator

    def fast_run():
        estimator = SketchCorrelationEstimator(seed=0)
        estimator.observe_columns(columns)
        return estimator

    legacy = legacy_run()
    fast = fast_run()
    equal = json.dumps(legacy.to_dict(), sort_keys=True) == json.dumps(
        fast.to_dict(), sort_keys=True
    )
    legacy_s = _best_of(repeats, legacy_run)
    fast_s = _best_of(repeats, fast_run)
    return BenchCase(
        name="columnar_ingest",
        tag="online-ingest",
        legacy_s=legacy_s,
        fast_s=fast_s,
        speedup=legacy_s / fast_s,
        min_speedup=1.0,
        equal=equal,
        detail={
            "operations": len(columns),
            "distinct_ids": len(columns.ids),
            "codes": int(columns.codes.size),
        },
    )


def _serve_loadgen_config(seed: int, max_batch: int):
    from repro.serve import LoadgenConfig, ServeConfig

    return LoadgenConfig(
        duration_s=2.0,
        qps=6000.0,
        seed=seed,
        serve=ServeConfig(max_batch=max_batch),
    )


def _bench_serve_routing(seed: int, repeats: int) -> BenchCase:
    # Virtual-time replay: throughput is a pure function of the seed,
    # so one run per mode is exact — ``repeats`` buys nothing here.
    # legacy_s / fast_s are *service seconds per completed query*, not
    # harness wall time; the speedup is the batched-vs-per-query
    # throughput ratio the serving layer must sustain.
    from repro.serve import run_loadgen

    batched = run_loadgen(_serve_loadgen_config(seed, max_batch=32))
    per_query = run_loadgen(_serve_loadgen_config(seed, max_batch=1))
    legacy_s = 1.0 / per_query.throughput_qps
    fast_s = 1.0 / batched.throughput_qps
    equal = bool(
        batched.p99_ms <= per_query.p99_ms
        and batched.dropped_in_flight == 0
        and per_query.dropped_in_flight == 0
        and batched.availability == 1.0
    )
    return BenchCase(
        name="serve_routing",
        tag="serve",
        legacy_s=legacy_s,
        fast_s=fast_s,
        speedup=legacy_s / fast_s,
        min_speedup=10.0,
        equal=equal,
        detail={
            "offered": batched.offered,
            "batched_qps": round(batched.throughput_qps, 1),
            "per_query_qps": round(per_query.throughput_qps, 1),
            "batched_p99_ms": round(batched.p99_ms, 3),
            "per_query_p99_ms": round(per_query.p99_ms, 3),
            "batched_completed": batched.completed,
            "per_query_completed": per_query.completed,
            "swaps": batched.swaps,
        },
    )


def _bench_stream_planner(seed: int, repeats: int) -> BenchCase:
    # The replan ablation: on the post-shift half of the drifting
    # stream, the one-pass streaming partitioner must replan an order
    # of magnitude faster than heavy-pair LPRR while staying within
    # 1.5x of its placement cost (the ``equal`` gate).
    from repro.core.strategies import PlanConfig, plan
    from repro.search.engine import build_placement_problem
    from repro.search.query import QueryLog
    from repro.serve import LoadgenConfig, build_scenario

    config = LoadgenConfig(duration_s=2.0, qps=6000.0, seed=seed)
    index, stream, _ = build_scenario(config)
    half = config.duration_s / 2.0
    window = QueryLog(
        timed.query for timed in stream if timed.time_s >= half
    )
    problem = build_placement_problem(
        index,
        window,
        config.node_capacities(float(index.total_bytes)),
        correlation_mode="cooccurrence",
    )
    plan_config = PlanConfig(seed=seed, use_cache=False)
    lprr = plan(problem, "lprr", plan_config)
    stream_greedy = plan(problem, "stream:greedy", plan_config)
    cost_ratio = (
        stream_greedy.cost / lprr.cost if lprr.cost > 0 else 1.0
    )
    legacy_s = _best_of(repeats, lambda: plan(problem, "lprr", plan_config))
    fast_s = _best_of(
        repeats, lambda: plan(problem, "stream:greedy", plan_config)
    )
    return BenchCase(
        name="stream_planner",
        tag="serve",
        legacy_s=legacy_s,
        fast_s=fast_s,
        speedup=legacy_s / fast_s,
        min_speedup=10.0,
        equal=bool(cost_ratio <= 1.5),
        detail={
            "objects": problem.num_objects,
            "nodes": problem.num_nodes,
            "pairs": int(problem.pair_index.shape[0]),
            "post_shift_queries": len(window),
            "lprr_cost": round(lprr.cost, 6),
            "stream_cost": round(stream_greedy.cost, 6),
            "cost_ratio": round(cost_ratio, 4),
        },
    )


def _pg_problem(seed: int, num_objects: int = 1_000_000) -> PlacementProblem:
    """A million-object CCA instance, built through the raw constructor.

    The dict-based :meth:`PlacementProblem.build` is comfortable at
    thousands of objects but wasteful at a million; the raw array
    constructor is the supported path at this scale (``docs/SCALE.md``).
    """
    rng = np.random.default_rng(seed)
    num_nodes, num_pairs = 8, 20_000
    object_ids = [f"o{i:07d}" for i in range(num_objects)]
    sizes = rng.integers(1, 50, size=num_objects).astype(float)
    raw = rng.integers(0, num_objects, size=(4 * num_pairs, 2))
    raw = raw[raw[:, 0] != raw[:, 1]]
    lo = np.minimum(raw[:, 0], raw[:, 1])
    hi = np.maximum(raw[:, 0], raw[:, 1])
    _, keep = np.unique(lo * num_objects + hi, return_index=True)
    keep = np.sort(keep)[:num_pairs]
    pair_index = np.stack([lo[keep], hi[keep]], axis=1)
    correlations = rng.uniform(0.01, 1.0, size=pair_index.shape[0])
    pair_costs = np.minimum(sizes[pair_index[:, 0]], sizes[pair_index[:, 1]])
    capacity = 2.5 * float(sizes.sum()) / num_nodes
    return PlacementProblem(
        object_ids,
        sizes,
        list(range(num_nodes)),
        np.full(num_nodes, capacity),
        pair_index,
        correlations,
        pair_costs,
    )


def _bench_pg_expand(seed: int, repeats: int) -> BenchCase:
    from repro.core.strategies import PlanConfig, PlanScope, plan
    from repro.pg import build_grouping, expand_assignment

    groups, important = 128, 128
    problem = _pg_problem(seed)
    config = PlanConfig(
        scope=PlanScope.pg(groups=groups, important=important),
        seed=seed,
        use_cache=False,
    )
    plan_started = time.perf_counter()
    result = plan(problem, "lprr:pg", config)
    plan_s = time.perf_counter() - plan_started
    pg_map = result.details
    grouping = build_grouping(problem, groups, important=important)

    def legacy_run():
        return np.fromiter(
            (pg_map.assign(obj) for obj in problem.object_ids),
            dtype=np.int64,
            count=problem.num_objects,
        )

    fast = expand_assignment(grouping, pg_map)
    equal = bool(np.array_equal(legacy_run(), fast))
    legacy_s = _best_of(repeats, legacy_run)
    fast_s = _best_of(repeats, lambda: expand_assignment(grouping, pg_map))
    return BenchCase(
        name="pg_expand",
        tag="pg",
        legacy_s=legacy_s,
        fast_s=fast_s,
        speedup=legacy_s / fast_s,
        min_speedup=None,
        equal=equal,
        detail={
            "objects": problem.num_objects,
            "nodes": problem.num_nodes,
            "pairs": int(problem.pair_index.shape[0]),
            "groups": groups,
            "important": important,
            "plan_s": round(plan_s, 3),
            "plan_cost": round(result.cost, 3),
        },
    )


def _bench_rep_spread(seed: int, repeats: int) -> BenchCase:
    from repro.cluster.topology import synthetic_topology
    from repro.core.replication import (
        _spread_violations_loop,
        spread_replicated_placement,
        spread_violations,
    )
    from repro.resilience.degraded import mode_stats
    from repro.resilience.faults import ClusterView

    replicas = 2
    problem = _pg_problem(seed, num_objects=100_000)
    topology = synthetic_topology(problem.num_nodes, zones=2, racks_per_zone=2)
    plan_started = time.perf_counter()
    replicated = spread_replicated_placement(problem, topology, replicas=replicas)
    plan_s = time.perf_counter() - plan_started

    # A whole zone down — the correlated failure the spread constraint
    # exists to survive.  Pin the epoch evaluation wall time.
    down = frozenset(topology.zone_nodes(0))
    view = ClusterView(
        num_nodes=problem.num_nodes, down=down, down_domains=frozenset({"zone:0"})
    )
    epoch_started = time.perf_counter()
    stats = mode_stats(replicated, view, [])
    epoch_s = time.perf_counter() - epoch_started

    domains = topology.domain_ids(replicated.spread)
    legacy = _spread_violations_loop(replicated.assignment, domains)
    fast = spread_violations(replicated.assignment, domains)
    equal = bool(np.array_equal(legacy, fast))
    legacy_s = _best_of(
        repeats, lambda: _spread_violations_loop(replicated.assignment, domains)
    )
    fast_s = _best_of(
        repeats, lambda: spread_violations(replicated.assignment, domains)
    )
    return BenchCase(
        name="rep_spread",
        tag="rep",
        legacy_s=legacy_s,
        fast_s=fast_s,
        speedup=legacy_s / fast_s,
        min_speedup=None,
        equal=equal,
        detail={
            "objects": problem.num_objects,
            "nodes": problem.num_nodes,
            "replicas": replicas,
            "zones": topology.num_zones,
            "racks": topology.num_racks,
            "spread": replicated.spread,
            "violations": int(fast.size),
            "plan_s": round(plan_s, 3),
            "epoch_s": round(epoch_s, 3),
            "object_availability": round(stats.object_availability, 6),
        },
    )


def run_bench(
    seed: int = 0, repeats: int = 3, tags: Iterable[str] | None = None
) -> BenchReport:
    """Run the pinned scenario suite and return the report.

    Args:
        seed: Root seed for every pinned workload.
        repeats: Timing repeats per engine; the minimum wall time is
            reported (robust against one-off scheduler noise).
        tags: Restrict to these pipeline stages (default: all of
            :data:`TAGS`).
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    selected = tuple(tags) if tags is not None else TAGS
    unknown = [tag for tag in selected if tag not in TAGS]
    if unknown:
        raise ValueError(f"unknown bench tags {unknown}; expected {TAGS}")

    cases: list[BenchCase] = []
    with obs.span("bench.suite", seed=seed, repeats=repeats):
        study = (
            _replay_study(seed)
            if any(tag in selected for tag in ("plan", "evaluate", "online-ingest"))
            else None
        )
        if "plan" in selected:
            cases.append(_bench_correlation(study, repeats))
        if "evaluate" in selected:
            cases.append(_bench_log_replay(study, repeats))
        if "online-ingest" in selected:
            cases.append(_bench_cm_ingest(study, repeats))
            cases.append(_bench_estimator_ingest(study, repeats))
            cases.append(_bench_columnar_ingest(study, repeats))
        if "serve" in selected:
            cases.append(_bench_serve_routing(seed, repeats))
            cases.append(_bench_stream_planner(seed, repeats))
        if "pg" in selected:
            cases.append(_bench_pg_expand(seed, repeats))
        if "rep" in selected:
            cases.append(_bench_rep_spread(seed, repeats))

    for case in cases:
        obs.gauge(f"bench.{case.name}.speedup").set(case.speedup)
        obs.gauge(f"bench.{case.name}.fast_seconds").set(case.fast_s)
        # Structured twin of the gauges: BENCH history accumulates as
        # journal events, one per scenario, plus a run-level record.
        obs.record(
            "bench.case",
            case=case.name,
            tag=case.tag,
            legacy_s=round(case.legacy_s, 6),
            fast_s=round(case.fast_s, 6),
            speedup=round(case.speedup, 3),
            min_speedup=case.min_speedup,
            equal=case.equal,
        )
    obs.counter("bench.cases").inc(len(cases))
    obs.record("bench.run", seed=seed, repeats=repeats, cases=len(cases))

    return BenchReport(
        seed=seed,
        repeats=repeats,
        peak_rss_kb=_peak_rss_kb(),
        cases=tuple(cases),
    )
