"""Tests for the serving layer (repro.serve): virtual time, admission,
snapshots/hot-swap and the batching router."""

import asyncio
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.problem import PlacementProblem
from repro.core.replication import ReplicatedPlacement
from repro.search.documents import Corpus, Document
from repro.search.engine import EngineStats, QueryExecution
from repro.search.index import InvertedIndex
from repro.search.query import Query
from repro.serve import (
    AdmissionError,
    PlanHandle,
    PlanSnapshot,
    QueryRouter,
    ServeConfig,
    TokenBucket,
    VirtualTimeLoop,
    run_virtual,
)
from repro.serve.admission import DRAINING, QUEUE_FULL, THROTTLED
from repro.serve.router import DISPATCH_OVERHEAD_S, PER_QUERY_S


# ----------------------------------------------------------------------
# Shared scenario: a tiny index and a snapshot factory
# ----------------------------------------------------------------------

WORDS = ("alpha", "beta", "gamma", "delta")


@pytest.fixture
def index():
    docs = []
    for i in range(8):
        words = {"alpha"}
        if i % 2 == 0:
            words.add("beta")
        if i % 4 == 0:
            words.add("gamma")
        if i == 0:
            words.add("delta")
        docs.append(Document(f"d{i}", frozenset(words)))
    return InvertedIndex.from_corpus(Corpus(docs))


def problem_for(index, nodes=3):
    return PlacementProblem.build(
        {w: float(index.size_bytes(w)) for w in index.vocabulary}, nodes, {}
    )


def snapshot(index, version, node=0, planner="test"):
    """All words on one node — which node distinguishes versions."""
    problem = problem_for(index)
    mapping = {w: node for w in problem.object_ids}
    return PlanSnapshot.from_mapping(
        index, problem, mapping, version, planner=planner
    )


# ----------------------------------------------------------------------
# Virtual time
# ----------------------------------------------------------------------

class TestVirtualTime:
    def test_timers_fire_at_exact_virtual_instants(self):
        fired = []

        async def main():
            loop = asyncio.get_running_loop()

            async def at(delay, tag):
                await asyncio.sleep(delay)
                fired.append((tag, loop.time()))

            await asyncio.gather(at(0.5, "c"), at(0.1, "a"), at(0.3, "b"))
            return loop.time()

        started = time.perf_counter()
        end = run_virtual(main())
        wall = time.perf_counter() - started
        assert fired == [("a", 0.1), ("b", 0.3), ("c", 0.5)]
        assert end == 0.5
        assert wall < 0.5  # virtual: no real sleeping happened

    def test_clock_starts_at_zero_and_is_monotonic(self):
        samples = []

        async def main():
            loop = asyncio.get_running_loop()
            samples.append(loop.time())
            for _ in range(3):
                await asyncio.sleep(0.25)
                samples.append(loop.time())

        run_virtual(main())
        assert samples[0] == 0.0
        assert samples == sorted(samples)

    def test_call_at_and_sleep_interleave_deterministically(self):
        order = []

        async def main():
            loop = asyncio.get_running_loop()
            loop.call_at(0.2, order.append, "timer")
            await asyncio.sleep(0.1)
            order.append("sleep1")
            await asyncio.sleep(0.2)
            order.append("sleep2")

        run_virtual(main())
        assert order == ["sleep1", "timer", "sleep2"]

    def test_deadlock_raises(self):
        # Nothing can resolve the awaited future, so the loop must say so
        # instead of waiting forever.  The subprocess timeout turns a hang
        # into a failure here rather than a stalled suite.
        script = textwrap.dedent(
            """
            import asyncio
            from repro.serve.vtime import run_virtual

            async def main():
                await asyncio.get_running_loop().create_future()

            try:
                run_virtual(main())
            except RuntimeError as exc:
                print(exc)
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        try:
            done = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, timeout=60, env=env,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("run_virtual hung on a coroutine nothing can wake")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("virtual-time deadlock"), done.stdout


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------

class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        assert [bucket.try_acquire(0.0) for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_at_rate_and_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        for _ in range(3):
            bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.05)  # only 0.5 tokens back
        assert bucket.try_acquire(0.1)  # 1.0 token at t=0.1
        # A long idle period refills to burst, not beyond.
        bucket2 = TokenBucket(rate=10.0, burst=3.0)
        bucket2.try_acquire(100.0)
        assert bucket2.tokens == pytest.approx(2.0)

    def test_retry_after_is_deficit_over_rate(self):
        bucket = TokenBucket(rate=4.0, burst=1.0)
        assert bucket.try_acquire(0.0)
        assert bucket.retry_after(0.0) == pytest.approx(0.25)
        assert bucket.retry_after(0.25) == pytest.approx(0.0)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=-1.0)


class TestAdmissionError:
    def test_carries_reason_and_retry_hint(self):
        exc = AdmissionError(THROTTLED, retry_after_s=0.125)
        assert exc.reason == THROTTLED
        assert exc.retry_after_s == 0.125

    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError):
            AdmissionError("busy")


# ----------------------------------------------------------------------
# Snapshots and the handle
# ----------------------------------------------------------------------

class TestPlanSnapshot:
    def test_assignment_is_frozen(self, index):
        snap = snapshot(index, version=1)
        assert not snap.assignment.flags.writeable
        with pytest.raises(ValueError):
            snap.assignment[0] = 99

    def test_from_mapping_routes_queries(self, index):
        snap = snapshot(index, version=1, node=2)
        execution = snap.engine.execute(Query(("alpha", "beta")))
        assert execution.served
        assert execution.bytes_transferred == 0  # co-located on node 2
        assert snap.version == 1
        assert snap.planner == "test"

    def test_snapshot_engine_rejects_bare_string(self):
        docs = [Document("d0", frozenset({"a", "b"})), Document("d1", frozenset({"ab"}))]
        index = InvertedIndex.from_corpus(Corpus(docs))
        snap = snapshot(index, version=1)
        with pytest.raises(TypeError, match="not keywords"):
            snap.engine.execute("ab")


class TestPlanHandle:
    def test_swap_returns_previous_and_counts(self, index):
        v1, v2 = snapshot(index, 1), snapshot(index, 2)
        handle = PlanHandle(v1)
        assert handle.swap(v2) is v1
        assert handle.current is v2
        assert handle.swaps == 1

    def test_swap_requires_increasing_version(self, index):
        handle = PlanHandle(snapshot(index, 2))
        with pytest.raises(ValueError, match="must exceed"):
            handle.swap(snapshot(index, 2))

    def test_acquire_release_refcounts(self, index):
        v1 = snapshot(index, 1)
        handle = PlanHandle(v1)
        a = handle.acquire()
        b = handle.acquire()
        assert a is v1 and b is v1
        assert handle.active_versions() == {1: 2}
        handle.swap(snapshot(index, 2))
        # The retired version stays pinned until its batches finish.
        assert handle.active_versions() == {1: 2}
        handle.release(a)
        handle.release(b)
        assert handle.active_versions() == {}

    def test_release_without_acquire_raises(self, index):
        handle = PlanHandle(snapshot(index, 1))
        with pytest.raises(ValueError, match="release without acquire"):
            handle.release(handle.current)


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------

def make_router(index, **overrides):
    defaults = dict(
        max_batch=4,
        max_delay_s=0.01,
        rate=1000.0,
        burst=100.0,
        max_queue=64,
    )
    defaults.update(overrides)
    return QueryRouter(PlanHandle(snapshot(index, 1)), ServeConfig(**defaults))


class TestRouterBatching:
    def test_partial_batch_waits_for_max_delay(self, index):
        async def main():
            router = make_router(index)
            results = await asyncio.gather(
                router.submit(Query(("alpha",))),
                router.submit(Query(("beta",))),
            )
            return router, results

        router, results = run_virtual(main())
        assert router.batches == 1
        assert {r.batch_seq for r in results} == {1}
        # Dispatched at max_delay, then one service interval.
        service = DISPATCH_OVERHEAD_S + PER_QUERY_S * 2
        for r in results:
            assert r.completion_t == pytest.approx(0.01 + service)

    def test_full_batch_dispatches_immediately(self, index):
        async def main():
            router = make_router(index)
            results = await asyncio.gather(
                *(router.submit(Query(("alpha",))) for _ in range(4))
            )
            return router, results

        router, results = run_virtual(main())
        assert router.batches == 1
        # No delay: only the service time (one distinct query).
        service = DISPATCH_OVERHEAD_S + PER_QUERY_S
        assert results[0].completion_t == pytest.approx(service)

    def test_repeats_in_batch_share_one_execution(self, index):
        async def main():
            router = make_router(index)
            await asyncio.gather(
                *(router.submit(Query(("alpha", "beta"))) for _ in range(4))
            )
            return router

        router = run_virtual(main())
        assert router.stats.queries == 4  # every caller is accounted
        assert router.completed == 4
        assert router.batches == 1

    def test_batches_queue_fifo_behind_one_executor(self, index):
        async def main():
            router = make_router(index, max_batch=1, max_delay_s=0.0)
            results = await asyncio.gather(
                *(router.submit(Query(("alpha",))) for _ in range(3))
            )
            return router, results

        router, results = run_virtual(main())
        assert router.batches == 3
        completions = sorted(r.completion_t for r in results)
        service = DISPATCH_OVERHEAD_S + PER_QUERY_S
        for i, t in enumerate(completions, start=1):
            assert t == pytest.approx(i * service)


class TestRouterAdmission:
    def test_throttled_when_bucket_empty(self, index):
        async def main():
            router = make_router(index, rate=10.0, burst=1.0)
            first = asyncio.ensure_future(router.submit(Query(("alpha",))))
            await asyncio.sleep(0.0)  # let the first submit take the token
            with pytest.raises(AdmissionError) as exc:
                await router.submit(Query(("beta",)))
            await first
            return router, exc.value

        router, exc = run_virtual(main())
        assert exc.reason == THROTTLED
        assert exc.retry_after_s == pytest.approx(0.1)
        assert router.shed.throttled == 1
        assert router.stats.rejected_queries == 1

    def test_queue_full_when_backlog_capped(self, index):
        async def main():
            router = make_router(index, max_queue=2)
            admitted = [
                asyncio.ensure_future(router.submit(Query(("alpha",))))
                for _ in range(2)
            ]
            await asyncio.sleep(0.0)  # both admitted into the backlog
            with pytest.raises(AdmissionError) as exc:
                await router.submit(Query(("beta",)))
            await asyncio.gather(*admitted)
            return router, exc.value

        router, exc = run_virtual(main())
        assert exc.reason == QUEUE_FULL
        assert router.shed.queue_full == 1

    def test_draining_rejects_new_work(self, index):
        async def main():
            router = make_router(index)
            first = asyncio.ensure_future(router.submit(Query(("alpha",))))
            await asyncio.sleep(0.001)
            drain = asyncio.ensure_future(router.drain())
            await asyncio.sleep(0.0)
            with pytest.raises(AdmissionError) as exc:
                await router.submit(Query(("beta",)))
            await drain
            await first
            return router, exc.value

        router, exc = run_virtual(main())
        assert exc.reason == DRAINING
        assert router.backlog == 0
        assert router.completed == 1

    def test_rejections_do_not_touch_availability(self, index):
        """Regression: shed queries must not double-count into
        EngineStats — availability stays an executed-query measure."""
        async def main():
            router = make_router(index, rate=10.0, burst=1.0)
            first = asyncio.ensure_future(router.submit(Query(("alpha",))))
            await asyncio.sleep(0.0)  # let the first submit take the token
            for _ in range(3):
                with pytest.raises(AdmissionError):
                    await router.submit(Query(("beta",)))
            await first
            return router

        router = run_virtual(main())
        assert router.stats.queries == 1
        assert router.stats.unserved_queries == 0
        assert router.stats.rejected_queries == 3
        assert router.stats.availability == 1.0
        assert router.stats.service_level == pytest.approx(0.25)

    def test_bare_string_rejected_before_admission(self, index):
        async def main():
            router = make_router(index, rate=10.0, burst=1.0)
            with pytest.raises(TypeError, match="not keywords"):
                await router.submit("alpha")
            await router.submit(Query(("alpha",)))  # the token is still there
            return router

        router = run_virtual(main())
        assert router.shed.total() == 0
        assert router.stats.rejected_queries == 0
        assert router.completed == 1


class TestEngineStatsRejections:
    def test_record_rejected_separate_from_executed(self):
        stats = EngineStats()
        stats.record(
            QueryExecution(
                query=Query(("a",)),
                result_count=1,
                bytes_transferred=0,
                nodes_contacted=1,
                hops=0,
                served=True,
            ),
            [],
        )
        stats.record_rejected(4)
        assert stats.queries == 1
        assert stats.rejected_queries == 4
        assert stats.availability == 1.0  # unchanged by rejections
        assert stats.service_level == pytest.approx(0.2)

    def test_service_level_counts_unserved_and_rejected(self):
        stats = EngineStats()
        stats.record(
            QueryExecution(
                query=Query(("a",)),
                result_count=0,
                bytes_transferred=0,
                nodes_contacted=0,
                hops=0,
                served=False,
            ),
            [],
        )
        stats.record_rejected(1)
        assert stats.availability == 0.0
        assert stats.service_level == 0.0


# ----------------------------------------------------------------------
# Hot swap
# ----------------------------------------------------------------------

class TestHotSwap:
    def test_inflight_batch_keeps_its_snapshot(self, index):
        async def main():
            router = make_router(index, max_batch=2, max_delay_s=0.0)
            inflight = [
                asyncio.ensure_future(router.submit(Query(("alpha",))))
                for _ in range(2)
            ]
            await asyncio.sleep(0.0)  # batch dispatched, still in service
            router.publish(snapshot(index, 2, node=1))
            later = await router.submit(Query(("alpha",)))
            early = await asyncio.gather(*inflight)
            return router, early, later

        router, early, later = run_virtual(main())
        assert {r.version for r in early} == {1}
        assert later.version == 2
        assert router.queries_by_version == {1: 2, 2: 1}
        assert router.dropped_in_flight == 0
        assert router.handle.active_versions() == {}

    @settings(max_examples=25, deadline=None)
    @given(
        arrivals=st.lists(
            st.integers(min_value=0, max_value=40), min_size=1, max_size=30
        ),
        swap_ticks=st.lists(
            st.integers(min_value=1, max_value=40),
            max_size=4,
            unique=True,
        ),
    )
    def test_every_query_answered_from_exactly_one_snapshot(
        self, arrivals, swap_ticks
    ):
        """Interleave swaps with concurrent batched queries arbitrarily:
        each query is answered from exactly one published snapshot, each
        batch from a single version, and nothing is dropped."""
        index = InvertedIndex.from_corpus(
            Corpus([Document("d0", frozenset({"alpha", "beta"}))])
        )
        tick = 0.001

        async def main():
            router = make_router(
                index, max_batch=3, max_delay_s=0.002, rate=1e6, burst=1e6
            )
            versions = [1]

            async def one(at):
                await asyncio.sleep(at * tick)
                return await router.submit(Query(("alpha",)))

            async def swapper(at, version):
                await asyncio.sleep(at * tick)
                router.publish(snapshot(index, version))
                versions.append(version)

            tasks = [asyncio.ensure_future(one(at)) for at in arrivals]
            tasks += [
                asyncio.ensure_future(swapper(at, 2 + i))
                for i, at in enumerate(sorted(swap_ticks))
            ]
            done = await asyncio.gather(*tasks)
            await router.drain()
            results = [r for r in done if r is not None]
            return router, results, versions

        router, results, versions = run_virtual(main())
        assert len(results) == len(arrivals)
        assert router.dropped_in_flight == 0
        # Exactly one version per query, drawn from the published set.
        for routed in results:
            assert routed.version in versions
        # A batch never tears across a swap: one version per batch_seq.
        by_batch = {}
        for routed in results:
            by_batch.setdefault(routed.batch_seq, set()).add(routed.version)
        assert all(len(v) == 1 for v in by_batch.values())
        # Version accounting is conserved and nothing stays pinned.
        assert sum(router.queries_by_version.values()) == len(arrivals)
        assert router.handle.active_versions() == {}
        assert router.handle.swaps == len(versions) - 1
