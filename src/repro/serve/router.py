"""The asyncio query router: batching, admission, hot-swappable plans.

The router turns the replicated engine into a *service*:

* **Batching** — queries accumulate until ``max_batch`` or the oldest
  has waited ``max_delay_s``, then dispatch as one batch.  A batch pays
  the fixed dispatch overhead once and executes each distinct query
  once (repeat queries in a batch share the execution), which is where
  the ≥10× throughput over per-query dispatch comes from.
* **Admission** — a token bucket caps the admitted rate and a backlog
  cap bounds queueing; everything else is shed immediately with a typed
  :class:`~repro.serve.admission.AdmissionError`.
* **Hot swap** — each batch captures exactly one
  :class:`~repro.serve.snapshot.PlanSnapshot` at dispatch via
  :meth:`PlanHandle.acquire`, so plans published mid-flight never tear
  a batch and no query is ever dropped by a swap.

Service time is an explicit model (fixed per-dispatch overhead
``DISPATCH_OVERHEAD_S``, a marginal ``PER_QUERY_S`` per distinct
executed query, ``PER_BYTE_S`` per byte shipped) on the loop's clock.
Under :class:`~repro.serve.vtime.VirtualTimeLoop` this makes every
latency a pure function of the workload and the config —
byte-reproducible — while preserving real queueing dynamics: one
executor, FIFO batches, backpressure when it falls behind.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Iterable

from repro import obs
from repro.search.engine import EngineStats, QueryExecution
from repro.search.query import Query, as_query
from repro.serve.admission import (
    DRAINING,
    QUEUE_FULL,
    THROTTLED,
    AdmissionError,
    TokenBucket,
)
from repro.serve.snapshot import PlanHandle, PlanSnapshot

__all__ = ["ServeConfig", "RoutedQuery", "QueryRouter"]

# The service-time model: a fixed cost per dispatched batch, a marginal
# cost per *distinct* query executed in it, and a cost per byte its
# executions moved.
DISPATCH_OVERHEAD_S = 3e-3
PER_QUERY_S = 5e-5
PER_BYTE_S = 2e-9


@dataclass(frozen=True)
class ServeConfig:
    """Router knobs (see docs/SERVING.md for the tuning story).

    Attributes:
        max_batch: Dispatch as soon as this many queries are pending.
        max_delay_s: ... or when the oldest pending query has waited
            this long — the latency price of batching.
        rate: Token-bucket sustained admission rate, queries/second.
        burst: Token-bucket capacity (spike allowance).
        max_queue: Backlog cap — admitted-but-unfinished queries beyond
            which new arrivals are shed with ``queue_full``.
    """

    max_batch: int = 32
    max_delay_s: float = 0.005
    rate: float = 8000.0
    burst: float = 800.0
    max_queue: int = 2048

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_delay_s < 0 or self.max_queue < 1:
            raise ValueError("max_delay_s must be >= 0 and max_queue >= 1")


@dataclass(frozen=True)
class RoutedQuery:
    """One answered query: the execution plus serving metadata."""

    execution: QueryExecution
    version: int
    batch_seq: int
    arrival_t: float
    completion_t: float

    @property
    def latency_s(self) -> float:
        """Admission-to-completion latency on the loop's clock."""
        return self.completion_t - self.arrival_t


@dataclass
class _Pending:
    query: Query
    future: asyncio.Future
    arrival_t: float


@dataclass
class ShedCounts:
    """Per-reason rejection tallies."""

    throttled: int = 0
    queue_full: int = 0
    draining: int = 0

    def total(self) -> int:
        return self.throttled + self.queue_full + self.draining

    def to_dict(self) -> dict:
        return {
            "throttled": self.throttled,
            "queue_full": self.queue_full,
            "draining": self.draining,
        }


class QueryRouter:
    """Batched, admission-controlled routing over a swappable plan.

    Single-loop object: construct and use inside one running event
    loop.  ``stats`` aggregates every executed query via
    :class:`~repro.search.engine.EngineStats` (admission rejections go
    through :meth:`EngineStats.record_rejected`, keeping availability
    honest — see that method's docstring).
    """

    def __init__(self, handle: PlanHandle, config: ServeConfig | None = None):
        self.handle = handle
        self.config = config or ServeConfig()
        self.stats = EngineStats()
        self.shed = ShedCounts()
        self.queries_by_version: dict[int, int] = {}
        self.batches = 0
        self.completed = 0
        self.dropped_in_flight = 0
        self._bucket = TokenBucket(self.config.rate, self.config.burst)
        self._pending: list[_Pending] = []
        self._timer: asyncio.TimerHandle | None = None
        self._executor_free_t = 0.0
        self._backlog = 0
        self._draining = False
        self._idle: asyncio.Event | None = None

    # ------------------------------------------------------------------
    # Plan publication
    # ------------------------------------------------------------------
    def publish(self, snapshot: PlanSnapshot) -> None:
        """Hot-swap the serving plan; in-flight batches are untouched."""
        self.handle.swap(snapshot)
        obs.counter("serve.swaps").inc()
        obs.record(
            "serve.swap",
            version=snapshot.version,
            planner=snapshot.planner,
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, query: Query | Iterable[str]) -> RoutedQuery:
        """Admit, batch, execute; raises :class:`AdmissionError` if shed.

        A bare ``str`` query raises ``TypeError`` before admission, so
        it is never counted as shed.
        """
        query = as_query(query)
        loop = asyncio.get_running_loop()
        now = loop.time()
        if self._draining:
            self._reject(DRAINING, 0.0)
        if self._backlog >= self.config.max_queue:
            self._reject(QUEUE_FULL, self._drain_eta(now))
        if not self._bucket.try_acquire(now):
            self._reject(THROTTLED, self._bucket.retry_after(now))

        future: asyncio.Future = loop.create_future()
        self._pending.append(_Pending(query, future, now))
        self._backlog += 1
        if len(self._pending) >= self.config.max_batch:
            self._flush(loop)
        elif self._timer is None:
            self._timer = loop.call_at(
                now + self.config.max_delay_s, self._flush, loop
            )
        return await future

    def _reject(self, reason: str, retry_after_s: float) -> None:
        self.stats.record_rejected()
        setattr(self.shed, reason, getattr(self.shed, reason) + 1)
        obs.counter("serve.shed", labels={"reason": reason}).inc()
        obs.record("serve.shed", reason=reason)
        raise AdmissionError(reason, retry_after_s)

    def _drain_eta(self, now: float) -> float:
        return max(0.0, self._executor_free_t - now)

    # ------------------------------------------------------------------
    # Batch dispatch
    # ------------------------------------------------------------------
    def _flush(self, loop: asyncio.AbstractEventLoop) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        now = loop.time()
        snapshot = self.handle.acquire()

        # Execute each distinct query once; repeats share the result.
        executions: dict[tuple, QueryExecution] = {}
        for item in batch:
            key = item.query.keywords
            if key not in executions:
                executions[key] = snapshot.engine.execute(item.query)
        moved = sum(e.bytes_transferred for e in executions.values())
        service = (
            DISPATCH_OVERHEAD_S + PER_QUERY_S * len(executions) + PER_BYTE_S * moved
        )
        start = max(now, self._executor_free_t)
        completion = start + service
        self._executor_free_t = completion

        self.batches += 1
        seq = self.batches
        obs.counter("serve.batches").inc()
        obs.histogram("serve.batch_size").observe(len(batch))
        obs.record(
            "serve.batch",
            seq=seq,
            size=len(batch),
            unique=len(executions),
            version=snapshot.version,
        )
        loop.call_at(
            completion, self._finish, batch, executions, snapshot, seq, completion
        )

    def _finish(
        self,
        batch: list[_Pending],
        executions: dict[tuple, QueryExecution],
        snapshot: PlanSnapshot,
        seq: int,
        completion: float,
    ) -> None:
        for item in batch:
            execution = executions[item.query.keywords]
            self.stats.record(execution, [])
            self.queries_by_version[snapshot.version] = (
                self.queries_by_version.get(snapshot.version, 0) + 1
            )
            self.completed += 1
            self._backlog -= 1
            if item.future.cancelled():
                # Callers abandoning their own awaits is the only way a
                # query "drops"; a swap never causes this.
                self.dropped_in_flight += 1
            else:
                item.future.set_result(
                    RoutedQuery(
                        execution=execution,
                        version=snapshot.version,
                        batch_seq=seq,
                        arrival_t=item.arrival_t,
                        completion_t=completion,
                    )
                )
        self.handle.release(snapshot)
        if self._backlog == 0 and self._idle is not None:
            self._idle.set()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    @property
    def backlog(self) -> int:
        """Admitted queries not yet completed."""
        return self._backlog

    async def drain(self) -> None:
        """Stop admitting, flush pending work, wait for the backlog."""
        self._draining = True
        loop = asyncio.get_running_loop()
        self._flush(loop)
        if self._backlog:
            self._idle = asyncio.Event()
            if self._backlog:  # re-check: _flush may have completed sync
                await self._idle.wait()
            self._idle = None
