"""Deterministic load generation against the query router.

``repro loadgen`` builds a self-contained serving scenario (synthetic
corpus → inverted index → initial placement), replays the seeded
diurnal drifting stream through a :class:`~repro.serve.router.
QueryRouter` on a :class:`~repro.serve.vtime.VirtualTimeLoop`, replans
mid-run with the ``stream:greedy`` tier and hot-swaps the plan, and
distills everything into a :class:`ServeReport` — a pure function of
the seed and the knobs, byte-identical across runs, which is what the
CI serve-smoke job asserts with ``cmp``.

The drifting stream mirrors ``repro online``: the second half of the
stream comes from a topic-shifted copy of the workload model, so the
mid-run replans have genuine drift to chase.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

from repro import obs
from repro.core.strategies import PlanConfig, plan
from repro.search.engine import build_placement_problem
from repro.search.index import InvertedIndex
from repro.search.query import QueryLog
from repro.serve.admission import AdmissionError
from repro.serve.router import QueryRouter, RoutedQuery, ServeConfig
from repro.serve.snapshot import PlanHandle, PlanSnapshot
from repro.serve.vtime import run_virtual
from repro.workloads.corpus_gen import generate_corpus
from repro.workloads.query_gen import QueryWorkloadModel
from repro.workloads.stream import TimedQuery, generate_stream

__all__ = ["LoadgenConfig", "ServeReport", "run_loadgen", "build_scenario"]

SERVE_REPORT_SCHEMA = "repro.serve/v1"


@dataclass(frozen=True)
class LoadgenConfig:
    """One loadgen scenario, seed included — the report's whole input.

    Attributes:
        vocabulary: Vocabulary size (keyword count).
        topics: Topic count of the workload model.
        documents: Synthetic corpus size backing the inverted index.
        nodes: Serving nodes.
        duration_s: Stream length in virtual seconds.
        qps: Geometric-mean arrival rate of the diurnal curve.
        peak_factor: Diurnal peak-to-mean ratio.
        shift_fraction: Topic-popularity drift applied at half time.
        swaps: Mid-run replans (each hot-swaps the plan).
        seed: Master seed.
        planner: Planner for the initial plan and every replan.
        warmup_queries: Queries sampled offline to seed the first plan.
        headroom: Node capacity as a multiple of even-split load.
        serve: Router knobs.
    """

    vocabulary: int = 200
    topics: int = 30
    documents: int = 400
    nodes: int = 5
    duration_s: float = 8.0
    qps: float = 6000.0
    peak_factor: float = 2.0
    shift_fraction: float = 0.6
    swaps: int = 3
    seed: int = 0
    planner: str = "stream:greedy"
    warmup_queries: int = 400
    headroom: float = 1.5
    serve: ServeConfig = field(default_factory=ServeConfig)

    def node_capacities(self, total_bytes: float) -> dict[int, float]:
        """Per-node capacities with the configured headroom."""
        per_node = self.headroom * total_bytes / self.nodes
        return {k: per_node for k in range(self.nodes)}


@dataclass(frozen=True)
class ServeReport:
    """The deliverable of one loadgen run — byte-reproducible JSON."""

    mode: str
    seed: int
    duration_s: float
    qps: float
    max_batch: int
    offered: int
    admitted: int
    completed: int
    unserved: int
    shed: dict[str, int]
    swaps: int
    dropped_in_flight: int
    queries_by_version: dict[int, int]
    plan_costs: dict[int, float]
    makespan_s: float
    throughput_qps: float
    mean_latency_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    availability: float
    service_level: float

    def to_dict(self) -> dict:
        """JSON-ready form (floats rounded for byte-stable output)."""
        return {
            "schema": SERVE_REPORT_SCHEMA,
            "mode": self.mode,
            "seed": self.seed,
            "duration_s": round(self.duration_s, 6),
            "qps": round(self.qps, 6),
            "max_batch": self.max_batch,
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "unserved": self.unserved,
            "shed": dict(sorted(self.shed.items())),
            "swaps": self.swaps,
            "dropped_in_flight": self.dropped_in_flight,
            "queries_by_version": {
                str(v): n for v, n in sorted(self.queries_by_version.items())
            },
            "plan_costs": {
                str(v): round(c, 9) for v, c in sorted(self.plan_costs.items())
            },
            "makespan_s": round(self.makespan_s, 6),
            "throughput_qps": round(self.throughput_qps, 3),
            "mean_latency_ms": round(self.mean_latency_ms, 3),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "availability": round(self.availability, 6),
            "service_level": round(self.service_level, 6),
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys) — byte-identical per seed."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        """Human-readable summary (the ``repro loadgen`` output)."""
        shed = sum(self.shed.values())
        return "\n".join(
            [
                f"loadgen ({self.mode}): offered {self.offered} queries over "
                f"{self.duration_s:g}s (~{self.qps:g} qps diurnal)",
                f"completed {self.completed} ({shed} shed: {self.shed}), "
                f"throughput {self.throughput_qps:.0f} q/s "
                f"over {self.makespan_s:.2f}s makespan",
                f"latency ms: p50 {self.p50_ms:.2f}  p95 {self.p95_ms:.2f}  "
                f"p99 {self.p99_ms:.2f}  (mean {self.mean_latency_ms:.2f})",
                f"plan swaps: {self.swaps}, in-flight dropped: "
                f"{self.dropped_in_flight}, queries by version: "
                f"{dict(sorted(self.queries_by_version.items()))}",
                f"availability {self.availability:.4f}, "
                f"service level {self.service_level:.4f}",
            ]
        )


def build_scenario(
    config: LoadgenConfig,
) -> tuple[InvertedIndex, list[TimedQuery], QueryLog]:
    """Index, drifting stream, and warmup log for one seeded scenario.

    Queries draw from the indexed vocabulary: a word the corpus never
    used has no postings, so it cannot be placed.
    """
    corpus = generate_corpus(
        config.documents, config.vocabulary, seed=config.seed
    )
    index = InvertedIndex.from_corpus(corpus)
    model = QueryWorkloadModel(
        index.vocabulary, num_topics=config.topics, seed=config.seed
    )
    shifted = model.drifted(config.shift_fraction, seed=config.seed + 1)
    half = config.duration_s / 2.0
    stream = generate_stream(
        model,
        half,
        base_qps=config.qps,
        peak_factor=config.peak_factor,
        seed=config.seed,
    )
    stream += [
        TimedQuery(timed.time_s + half, timed.query)
        for timed in generate_stream(
            shifted,
            half,
            base_qps=config.qps,
            peak_factor=config.peak_factor,
            seed=config.seed + 1,
        )
    ]
    warmup = model.generate(config.warmup_queries, rng=config.seed + 2)
    return index, stream, warmup


def _plan_snapshot(
    index: InvertedIndex,
    log: QueryLog,
    config: LoadgenConfig,
    version: int,
) -> tuple[PlanSnapshot, float]:
    """Plan ``log`` and freeze the result as a serving snapshot."""
    problem = build_placement_problem(
        index,
        log,
        config.node_capacities(float(index.total_bytes)),
        correlation_mode="cooccurrence",
    )
    result = plan(
        problem, config.planner, PlanConfig(seed=config.seed + version)
    )
    mapping = {
        obj: int(node)
        for obj, node in zip(problem.object_ids, result.placement.assignment)
    }
    snapshot = PlanSnapshot.from_mapping(
        index, problem, mapping, version, planner=config.planner
    )
    return snapshot, result.cost


def run_loadgen(config: LoadgenConfig) -> ServeReport:
    """Run one seeded loadgen scenario to completion (virtual time)."""
    index, stream, warmup = build_scenario(config)
    mode = "batched" if config.serve.max_batch > 1 else "per_query"
    obs.record(
        "serve.start",
        mode=mode,
        seed=config.seed,
        queries=len(stream),
        duration_s=round(config.duration_s, 6),
        max_batch=config.serve.max_batch,
    )
    snapshot, cost = _plan_snapshot(index, warmup, config, version=1)
    plan_costs = {1: cost}
    handle = PlanHandle(snapshot)

    results: list[RoutedQuery] = []

    async def _drive() -> QueryRouter:
        loop = asyncio.get_running_loop()
        router = QueryRouter(handle, config.serve)

        async def one(timed: TimedQuery) -> None:
            await asyncio.sleep(timed.time_s - loop.time())
            try:
                results.append(await router.submit(timed.query))
            except AdmissionError:
                pass  # already counted by the router's shed tallies

        async def replanner() -> None:
            interval = config.duration_s / (config.swaps + 1)
            for swap in range(config.swaps):
                target = interval * (swap + 1)
                await asyncio.sleep(target - loop.time())
                start = loop.time() - interval
                window = QueryLog(
                    timed.query
                    for timed in stream
                    if start <= timed.time_s < loop.time()
                )
                if not len(window):
                    continue
                version = swap + 2
                new_snapshot, new_cost = _plan_snapshot(
                    index, window, config, version
                )
                plan_costs[version] = new_cost
                router.publish(new_snapshot)

        tasks = [asyncio.ensure_future(one(timed)) for timed in stream]
        tasks.append(asyncio.ensure_future(replanner()))
        await asyncio.gather(*tasks)
        await router.drain()
        return router

    router = run_virtual(_drive())

    latencies = sorted(r.latency_s for r in results)
    makespan = max((r.completion_t for r in results), default=0.0)
    completed = len(results)
    throughput = completed / makespan if makespan else 0.0

    def pct(q: float) -> float:
        if not latencies:
            return 0.0
        i = min(len(latencies) - 1, int(q * len(latencies)))
        return latencies[i] * 1000.0

    report = ServeReport(
        mode=mode,
        seed=config.seed,
        duration_s=config.duration_s,
        qps=config.qps,
        max_batch=config.serve.max_batch,
        offered=len(stream),
        admitted=router.stats.queries,
        completed=completed,
        unserved=router.stats.unserved_queries,
        shed=router.shed.to_dict(),
        swaps=handle.swaps,
        dropped_in_flight=router.dropped_in_flight,
        queries_by_version=dict(router.queries_by_version),
        plan_costs=plan_costs,
        makespan_s=makespan,
        throughput_qps=throughput,
        mean_latency_ms=(
            sum(latencies) / len(latencies) * 1000.0 if latencies else 0.0
        ),
        p50_ms=pct(0.50),
        p95_ms=pct(0.95),
        p99_ms=pct(0.99),
        availability=router.stats.availability,
        service_level=router.stats.service_level,
    )
    obs.record(
        "serve.end",
        mode=mode,
        completed=completed,
        shed=sum(report.shed.values()),
        swaps=report.swaps,
        throughput_qps=round(throughput, 3),
        p99_ms=round(report.p99_ms, 3),
    )
    return report
