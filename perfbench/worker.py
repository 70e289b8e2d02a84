"""One benchmark process: set up a workload, time it, check it.

``run.py`` starts this with ``PYTHONHASHSEED`` pinned and the checkout's
``src`` on ``PYTHONPATH``; it prints one JSON object as its last stdout
line.  ``--phase setup`` stops after imports and input generation (a
set-up sample); ``--phase run`` goes on to the timed region:

* ``--trace 0``: passes over the workload's inputs, unit by unit, until
  ``--seconds`` have elapsed (the first pass always completes); the
  end-to-end figures are medians over those samples, rescaled to a
  nominal host speed (see ``calib.py``).
* ``--trace 1``: one untraced pass, then the same pass again with
  :func:`repro.obs.enable` on, attributed layer by layer from the span
  tree (see ``layers.py``).

Any failed output check exits non-zero before a result is printed.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402
from repro.core.strategies import PlanConfig, plan  # noqa: E402
from repro.experiments.common import CaseStudyConfig  # noqa: E402
from repro.online import DriftThresholds, OnlineConfig, OnlinePlanner  # noqa: E402
from repro.online.windows import tumbling_periods  # noqa: E402
from repro.search.engine import (  # noqa: E402
    DistributedSearchEngine,
    build_placement_problem,
)
from repro.search.index import InvertedIndex  # noqa: E402
from repro.search.query import QueryLog  # noqa: E402
from repro.serve import LoadgenConfig  # noqa: E402
from repro.serve.admission import AdmissionError  # noqa: E402
from repro.serve.router import QueryRouter  # noqa: E402
from repro.serve.snapshot import PlanHandle, PlanSnapshot  # noqa: E402
from repro.serve.vtime import run_virtual  # noqa: E402
from repro.workloads.corpus_gen import generate_corpus  # noqa: E402
from repro.workloads.query_gen import QueryWorkloadModel  # noqa: E402
from repro.workloads.stream import TimedQuery, generate_stream  # noqa: E402

import calib  # noqa: E402
from layers import attribute  # noqa: E402

IMPORT_S = time.perf_counter() - T0

# offline_lprr: the paper's search case study (CaseStudyConfig shapes) at
# half its default size.  Corpus and topic model are one fixed dataset;
# the workload seed draws OFFLINE_TRACES independent query logs and the
# rounding seeds, so a run averages over many placement jobs of one
# database.  (Subsets of one larger log are cheaper to generate but
# inherit that log's plan difficulty, which spread runs twice as much.)
OFFLINE = CaseStudyConfig(
    num_documents=750,
    vocabulary_size=2000,
    num_queries=12_000,
    num_topics=200,
    min_support=2,
    seed=0,
)
OFFLINE_TRACES = 24
OFFLINE_NODES = 10

# online_drift: the `repro online` loop over a diurnal stream whose topic
# popularity shifts at half time.  The topic model is one fixed dataset;
# the workload seed draws the drift, the stream and the sketch and
# planner seeds.
ONLINE_DATASET_SEED = 0
ONLINE_WORDS = 1000
ONLINE_TOPICS = 100
ONLINE_QPS = 40.0
ONLINE_DURATION_S = 3600.0
ONLINE_SHIFT = 0.5
ONLINE_WINDOW_S = 60.0

# serve_swap: the `repro loadgen` scenario, driven through the public
# serve API so set-up, routing and each hot swap are timed apart.  As
# for offline_lprr, corpus and topic model are one fixed dataset; the
# workload seed draws the stream, its drift, the warmup log and the
# planner seeds.
SERVE = dict(vocabulary=1000, documents=4000, duration_s=10.0, qps=6000.0, swaps=9)
SERVE_DATASET_SEED = 0


class Clock:
    """Accumulates wall seconds per name; opens a bench span per use.

    The span is the shared no-op object unless tracing is enabled, so
    the untraced passes pay one global read per use.  ``calibrator``,
    when given, is the host-speed sampler of a timed loop; serve_pass
    also samples inside its drive through it.
    """

    def __init__(self, calibrator: calib.Calibrator | None = None) -> None:
        self.totals: dict[str, float] = {}
        self.calibrator = calibrator

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        with obs.span(f"bench.{name}"):
            yield
        elapsed = time.perf_counter() - start
        self.totals[name] = self.totals.get(name, 0.0) + elapsed
        self.last = (start, elapsed)


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"check failed: {message}", file=sys.stderr)
        sys.exit(3)


# ----------------------------------------------------------------------
# Set-up: input generation per workload (timed into setup.* parts)
# ----------------------------------------------------------------------
def setup_offline(seed: int, clock: Clock) -> dict:
    cfg = OFFLINE
    with clock("corpus"):
        corpus = generate_corpus(
            cfg.num_documents,
            cfg.vocabulary_size,
            words_per_doc=cfg.words_per_doc,
            zipf_exponent=cfg.corpus_zipf_exponent,
            seed=cfg.seed,
        )
    with clock("index"):
        index = InvertedIndex.from_corpus(corpus)
    with clock("trace"):
        model = QueryWorkloadModel(
            index.vocabulary,
            num_topics=cfg.num_topics,
            topic_size_range=cfg.topic_size_range,
            topic_query_fraction=cfg.topic_query_fraction,
            membership_exponent=cfg.membership_exponent,
            seed=cfg.seed,
        )
        logs = [
            model.generate(cfg.num_queries, rng=np.random.default_rng([seed, j]))
            for j in range(OFFLINE_TRACES)
        ]
    return {"index": index, "logs": logs, "seed": seed}


def drifting_stream(model, shifted, duration_s, qps, seed, peak_factor=2.0):
    """The `repro online` / loadgen stream: ``model`` for the first half,
    the topic-shifted ``shifted`` for the second."""
    half = duration_s / 2.0
    stream = generate_stream(model, half, base_qps=qps, peak_factor=peak_factor, seed=seed)
    stream += [
        TimedQuery(timed.time_s + half, timed.query)
        for timed in generate_stream(
            shifted, half, base_qps=qps, peak_factor=peak_factor, seed=seed + 1
        )
    ]
    return stream


def setup_online(seed: int, clock: Clock) -> dict:
    with clock("trace"):
        vocabulary = [f"w{i:06d}" for i in range(ONLINE_WORDS)]
        model = QueryWorkloadModel(
            vocabulary, num_topics=ONLINE_TOPICS, seed=ONLINE_DATASET_SEED
        )
        shifted = model.drifted(ONLINE_SHIFT, seed=seed + 1)
        stream = drifting_stream(model, shifted, ONLINE_DURATION_S, ONLINE_QPS, seed)
    return {"vocabulary": vocabulary, "stream": stream, "seed": seed}


def setup_serve(seed: int, clock: Clock) -> dict:
    # The inputs of repro.serve.loadgen.build_scenario, generated step by
    # step so corpus, index and trace are timed apart.  Two deliberate
    # differences: corpus and topic model come from SERVE_DATASET_SEED,
    # and queries draw from the indexed vocabulary.  build_scenario draws
    # from all `vocabulary` words, and when the corpus misses one (seeds 3
    # and 6 of 1-10) build_placement_problem raises ProblemDefinitionError.
    # At seed SERVE_DATASET_SEED the inputs are build_scenario's exactly
    # (check_loadgen.py asserts it).
    config = LoadgenConfig(seed=seed, **SERVE)
    with clock("corpus"):
        corpus = generate_corpus(
            config.documents, config.vocabulary, seed=SERVE_DATASET_SEED
        )
    with clock("index"):
        index = InvertedIndex.from_corpus(corpus)
    with clock("trace"):
        model = QueryWorkloadModel(
            index.vocabulary, num_topics=config.topics, seed=SERVE_DATASET_SEED
        )
        shifted = model.drifted(config.shift_fraction, seed=seed + 1)
        stream = drifting_stream(
            model, shifted, config.duration_s, config.qps, seed, config.peak_factor
        )
        warmup = model.generate(config.warmup_queries, rng=seed + 2)
    return {"config": config, "index": index, "stream": stream, "warmup": warmup}


# ----------------------------------------------------------------------
# Timed units.  A pass is one sweep over a workload's inputs; it yields
# (unit key, unit seconds, [step seconds], unit operations) per unit and
# accumulates counts into ``out``.
# ----------------------------------------------------------------------
def offline_pass(inputs: dict, clock: Clock, out: dict):
    """One sweep over the traces: mine, plan (lprr), replay each.

    The step is the whole job.
    """
    index = inputs["index"]
    per_trace = []
    for j, log in enumerate(inputs["logs"]):
        start = time.perf_counter()
        with clock("mine"):
            problem = build_placement_problem(
                index,
                log,
                OFFLINE_NODES,
                correlation_mode="two_smallest",
                min_support=OFFLINE.min_support,
            )
        with clock("plan"):
            result = plan(problem, "lprr", PlanConfig(seed=inputs["seed"] * 1000 + j))
        with clock("replay"):
            stats = DistributedSearchEngine(index, result.placement).execute_log(log)
        step = time.perf_counter() - start
        check(result.diagnostics.get("feasible") is True, f"trace {j}: lprr plan infeasible")
        check(stats.queries == len(log), f"trace {j}: replayed {stats.queries} of {len(log)}")
        out["ops"] += len(log)
        out["mine_ops"] += len(log)
        out["mine_pairs"] += problem.num_pairs
        per_trace.append((stats.total_bytes / stats.queries, result.cost))
        job = (start, step)
        yield j, job, [job], len(log)
    bytes_per_query, costs = zip(*per_trace)
    out["quality"] = (statistics.mean(bytes_per_query), statistics.mean(costs), 0.0)


def online_pass(inputs: dict, clock: Clock, out: dict):
    """One sweep over the stream with a fresh OnlinePlanner.

    The unit and the step are one ``observe_period`` call.  The checks
    run only when the sweep is consumed to the end.
    """
    seed = inputs["seed"]
    stream = inputs["stream"]
    config = OnlineConfig(
        num_nodes=8,
        window_s=ONLINE_WINDOW_S,
        sketch_width=512,
        sketch_depth=4,
        heavy_hitters=128,
        decay=0.7,
        min_support=1,
        seed=seed,
        thresholds=DriftThresholds(churn=0.4),
        budget_fraction=0.1,
        planning=PlanConfig(seed=seed),
    )
    planner = OnlinePlanner({word: 1.0 for word in inputs["vocabulary"]}, config)
    decisions = []
    for period in tumbling_periods(stream, ONLINE_WINDOW_S):
        with clock("period"):
            decision = planner.observe_period(period)
        decisions.append(decision)
        out["ops"] += decision.operations
        out["tracked_pairs"] += decision.tracked_pairs
        out["moves"] += decision.moves
        out["replans"] += decision.action == "replan"
        yield period.index, clock.last, [clock.last], decision.operations
    expected = math.ceil(stream[-1].time_s / ONLINE_WINDOW_S)
    check(len(decisions) == expected, f"{len(decisions)} periods, expected {expected}")
    total = sum(d.operations for d in decisions)
    check(total == len(stream), f"ingested {total} of {len(stream)} operations")
    migrated = sum(d.bytes_moved for d in decisions if d.action in ("replan", "migrate"))
    out["quality"] = (0.0, decisions[-1].cost_estimate, migrated)


def _plan_snapshot(index, log, config, version, clock):
    """Mine ``log``, plan it with the scenario's planner, freeze it."""
    with clock("mine"):
        problem = build_placement_problem(
            index,
            log,
            config.node_capacities(float(index.total_bytes)),
            correlation_mode="cooccurrence",
        )
    with clock("plan"):
        result = plan(problem, config.planner, PlanConfig(seed=config.seed + version))
    with clock("snapshot"):
        mapping = {
            obj: int(node)
            for obj, node in zip(problem.object_ids, result.placement.assignment)
        }
        snapshot = PlanSnapshot.from_mapping(
            index, problem, mapping, version, planner=config.planner
        )
    return snapshot, result.cost, problem


def serve_pass(inputs: dict, clock: Clock, out: dict):
    """One loadgen drive: initial plan, open-loop stream, mid-run swaps.

    The unit is the drive; the steps are its hot swaps.
    """
    config, index = inputs["config"], inputs["index"]
    stream, warmup = inputs["stream"], inputs["warmup"]
    snapshot, cost, _ = _plan_snapshot(index, warmup, config, 1, clock)
    plan_costs = {1: cost}
    handle = PlanHandle(snapshot)
    results = []
    swaps = []
    calibrating = [0.0]

    async def drive() -> QueryRouter:
        loop = asyncio.get_running_loop()
        router = QueryRouter(handle, config.serve)

        async def one(timed: TimedQuery) -> None:
            await asyncio.sleep(timed.time_s - loop.time())
            try:
                results.append(await router.submit(timed.query))
            except AdmissionError:
                pass  # counted by the router's shed tallies

        async def replanner() -> None:
            interval = config.duration_s / (config.swaps + 1)
            for swap in range(config.swaps):
                await asyncio.sleep(interval * (swap + 1) - loop.time())
                with clock("swap"):
                    lo, hi = loop.time() - interval, loop.time()
                    window = QueryLog(t.query for t in stream if lo <= t.time_s < hi)
                    version = swap + 2
                    new, plan_costs[version], problem = _plan_snapshot(
                        index, window, config, version, clock
                    )
                    router.publish(new)
                swaps.append(clock.last)
                out["mine_ops"] += len(window)
                out["mine_pairs"] += problem.num_pairs

        async def calibrate() -> None:
            # Sample host speed during the drive too (one reference call
            # per half virtual second); its wall time is not the drive's.
            for k in range(int(config.duration_s / 0.5)):
                await asyncio.sleep(0.5 * (k + 1) - loop.time())
                begin = time.perf_counter()
                clock.calibrator.tick(force=True, repeats=1)
                calibrating[0] += time.perf_counter() - begin

        tasks = [asyncio.ensure_future(one(timed)) for timed in stream]
        tasks.append(asyncio.ensure_future(replanner()))
        if clock.calibrator is not None:
            tasks.append(asyncio.ensure_future(calibrate()))
        await asyncio.gather(*tasks)
        await router.drain()
        return router

    with clock("drive"):
        router = run_virtual(drive())
    start, wall = clock.last
    shed = router.shed.total()
    check(len(results) + shed == len(stream),
          f"completed {len(results)} + shed {shed} != offered {len(stream)}")
    check(router.dropped_in_flight == 0, f"{router.dropped_in_flight} dropped in flight")
    check(handle.swaps == config.swaps, f"{handle.swaps} swaps, configured {config.swaps}")
    out["ops"] += len(results)
    out["offered"] += len(stream)
    out["failed"] += shed + router.stats.unserved_queries + router.dropped_in_flight
    out["shed"] += shed
    out["plan_costs"] = plan_costs
    out["quality"] = (
        router.stats.total_bytes / len(results), statistics.mean(plan_costs.values()), 0.0
    )
    yield "drive", (start, wall - calibrating[0]), swaps, len(results)


WORKLOADS = {
    "offline_lprr": (setup_offline, offline_pass),
    "online_drift": (setup_online, online_pass),
    "serve_swap": (setup_serve, serve_pass),
}


def new_counts() -> dict:
    return {
        "ops": 0, "offered": 0, "failed": 0, "mine_ops": 0, "mine_pairs": 0,
        "tracked_pairs": 0, "moves": 0, "replans": 0, "shed": 0,
        # (bytes per query, plan cost, migrated bytes) of the last full pass
        "quality": (0.0, 0.0, 0.0),
    }


TRIM = 0.1


def timed_loop(workload: str, inputs: dict, seconds: float) -> dict:
    """Untraced passes until ``seconds`` elapse, host speed sampled
    between units.  The first pass always completes."""
    run_pass = WORKLOADS[workload][1]
    calibrator = calib.Calibrator()
    clock, counts = Clock(calibrator), new_counts()
    units: dict = {}  # unit key -> (unit ops, [(start, seconds), ...])
    steps: dict = {}  # (unit key, step number) -> [(start, seconds), ...]
    calibrator.tick(force=True)
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        for key, interval, unit_steps, ops in run_pass(inputs, clock, counts):
            units.setdefault(key, (ops, []))[1].append(interval)
            for n, step in enumerate(unit_steps):
                steps.setdefault((key, n), []).append(step)
            if passes and time.perf_counter() >= deadline:
                break
            calibrator.tick()
        passes += 1
        if time.perf_counter() >= deadline:
            break
    calibrator.tick(force=True)
    return {"counts": counts, "units": units, "steps": steps,
            "passes": passes, "calibrator": calibrator}


def summarize(loop: dict, scale) -> tuple[float, float]:
    """(ops/s, median step seconds), each interval mapped by ``scale``.

    Every unit (trace, period, drive) and every step weighs once, at
    its median over the passes that reached it.  Throughput is one
    pass's operations over one pass at those times, leaving out the
    TRIM share of units with the lowest and the highest throughput
    when there are at least 10: a few lprr jobs with heavy repair
    otherwise decide a run's figure.
    """
    units = sorted(
        (ops / seconds, ops, seconds)
        for ops, seconds in (
            (unit_ops, statistics.median(scale(*interval) for interval in intervals))
            for unit_ops, intervals in loop["units"].values()
        )
    )
    cut = int(len(units) * TRIM) if len(units) >= 10 else 0
    kept = units[cut:len(units) - cut]
    ops = sum(unit_ops for _, unit_ops, _ in kept)
    seconds = sum(unit_seconds for _, _, unit_seconds in kept)
    step = statistics.median(
        statistics.median(scale(*interval) for interval in intervals)
        for intervals in loop["steps"].values()
    )
    return ops / seconds, step


def end_to_end(setup_s: float, loop: dict) -> tuple[dict, dict]:
    """Host-speed-normalized end-to-end metrics, plus the raw wall view."""
    calibrator = loop["calibrator"]
    ops_per_s, step = summarize(loop, calibrator.normalize)
    raw_ops_per_s, raw_step = summarize(loop, lambda start, wall: wall)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_per_s": (ops_per_s, "ops/s"),
        "step_p50_ms": (step * 1000.0, "ms"),
    }
    raw = {
        "raw_ops_per_s": raw_ops_per_s,
        "raw_step_p50_ms": raw_step * 1000.0,
        "host_speed": calibrator.speed,
        "speed_samples": len(calibrator.speeds),
        "passes": loop["passes"],
        "steps": sum(len(v) for v in loop["steps"].values()),
    }
    return metrics, raw


def sweep_speed(run) -> tuple[float, float]:
    """Wall seconds of ``run()`` and the mean host speed around it."""
    before = calib.sample()
    start = time.perf_counter()
    run()
    wall = time.perf_counter() - start
    return wall, (before + calib.sample()) / 2.0


def traced(workload: str, inputs: dict) -> dict:
    """One untraced and one traced sweep; the latter's span tree."""
    run_pass = WORKLOADS[workload][1]
    untraced_wall, untraced_speed = sweep_speed(
        lambda: list(run_pass(inputs, Clock(), new_counts()))
    )
    inst = obs.enable(
        obs.Instrumentation(journal=obs.Journal(max_records=10**7, max_bytes=None))
    )
    counts = new_counts()

    def traced_sweep() -> None:
        with obs.span("bench.pass"):
            list(run_pass(inputs, Clock(), counts))

    wall, speed = sweep_speed(traced_sweep)
    obs.disable()
    overhead = (wall * speed) / (untraced_wall * untraced_speed) - 1.0
    return {"rows": attribute(inst.tracer.roots), "wall": wall,
            "overhead": overhead, "inst": inst, "counts": counts}


def per_layer(setup: Clock, t: dict) -> dict:
    rows, counts, inst = t["rows"], t["counts"], t["inst"]

    def counter(name: str) -> float:
        return float(inst.metrics.counter(name).value)

    lp_iterations = sum(
        int(s.attributes.get("iterations", 0)) for s in inst.tracer.find("lp.solve")
    )
    batches = inst.journal.records("serve.batch")
    queries = counter("engine.queries")
    unique = counter("engine.unique_queries")
    observes = counter("online.periods")
    bpq, cost, migrated = counts["quality"]
    m = {
        "setup.import_s": (IMPORT_S, "s"),
        "setup.corpus_s": (setup.totals.get("corpus", 0.0), "s"),
        "setup.index_s": (setup.totals.get("index", 0.0), "s"),
        "setup.trace_s": (setup.totals.get("trace", 0.0), "s"),
        "mine.ops": (counts["mine_ops"], "count"),
        "mine.pairs": (counts["mine_pairs"], "count"),
        "plan.count": (counter("planner.plans"), "count"),
        "plan.fallbacks": (counter("planner.fallbacks"), "count"),
        "plan.lp_iterations": (lp_iterations, "count"),
        "replay.queries": (queries, "count"),
        "replay.unique_queries": (unique, "count"),
        "replay.dedup_ratio": (unique / queries if queries else 0.0, "ratio"),
        "online.observes": (observes, "count"),
        "online.replans": (counts["replans"], "count"),
        "online.tracked_pairs": (
            counts["tracked_pairs"] / observes if observes else 0.0, "pairs"),
        "online.moves": (counts["moves"], "count"),
        "serve.batches": (len(batches), "count"),
        "serve.mean_batch": (
            statistics.mean(r["size"] for r in batches) if batches else 0.0, "queries"),
        "serve.unique_per_batch": (
            statistics.mean(r["unique"] for r in batches) if batches else 0.0, "queries"),
        "serve.shed": (counts["shed"], "count"),
        "quality.bytes_per_query": (bpq, "bytes"),
        "quality.plan_cost": (cost, "objective"),
        "quality.migrated_bytes": (migrated, "bytes"),
        "trace.wall_s": (t["wall"], "s"),
        "trace.rows_sum_frac": (sum(rows.values()) / t["wall"], "ratio"),
        "trace.overhead_frac": (t["overhead"], "ratio"),
    }
    for row, seconds in rows.items():
        m[row] = (seconds, "s")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "run"), default="run")
    args = parser.parse_args()

    setup_clock = Clock()
    inputs = WORKLOADS[args.workload][0](args.seed, setup_clock)
    setup_wall = time.perf_counter() - T0
    # Imports come before numpy, so the speed samples follow the set-up.
    setup_s = setup_wall * statistics.median(calib.sample() for _ in range(3))
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": setup_wall}))
        return 0

    if args.trace:
        t = traced(args.workload, inputs)
        metrics = per_layer(setup_clock, t)
        counts, raw = t["counts"], {}
    else:
        loop = timed_loop(args.workload, inputs, args.seconds)
        metrics, raw = end_to_end(setup_s, loop)
        counts = loop["counts"]
        raw["raw_setup_s"] = setup_wall
    print(json.dumps({
        "attempted": counts["offered"] or counts["ops"],
        "failed": counts["failed"],
        "raw": raw,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
