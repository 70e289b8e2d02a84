"""A deterministic virtual-time asyncio event loop.

Serving reports must be byte-reproducible under a fixed seed — latency
percentiles included — which rules out the wall clock.  This loop keeps
asyncio's real scheduling semantics (tasks, futures, ``call_later``)
but replaces *time itself*: :meth:`VirtualTimeLoop.time` returns a
virtual clock that only advances when the loop has nothing runnable,
jumping straight to the next scheduled timer.  Timers therefore fire in
exactly the order and at exactly the instants the program asked for,
with zero real-time blocking, on every run.

Latencies under this loop come from an explicit service-time model (see
:mod:`repro.serve.router`), not from how fast the host happens to be —
the same philosophy as the journal's logical clock (obs/journal.py).
"""

from __future__ import annotations

import asyncio
from heapq import heapify, heappop
from typing import Any, Coroutine

__all__ = ["VirtualTimeLoop", "run_virtual"]

# asyncio.base_events' thresholds for rebuilding the timer heap.
_MIN_SCHEDULED_TIMER_HANDLES = 100
_MIN_CANCELLED_TIMER_HANDLES_FRACTION = 0.5


class VirtualTimeLoop(asyncio.BaseEventLoop):
    """An event loop with a virtual, deterministic clock and no I/O.

    There is no selector, no self-pipe and no other thread: callbacks,
    tasks, futures and timers are all the loop runs, so readers,
    writers, sockets, signals, executors and ``call_soon_threadsafe``
    are unsupported.  When nothing is runnable, virtual time jumps to
    the earliest timer's deadline; when nothing is runnable and no
    timer is pending either, nothing can ever wake the loop, and
    :meth:`_run_once` raises :class:`RuntimeError` instead of waiting.

    :meth:`_run_once` replaces the base iteration and relies on these
    private pieces of the asyncio base loop (unchanged across CPython
    3.10–3.13): ``_ready``, the runnable-handle deque; ``_scheduled``,
    the ``TimerHandle`` heap; ``_timer_cancelled_count``;
    ``_clock_resolution``; ``_stopping``; and, on handles, ``_when``,
    ``_cancelled``, ``_scheduled`` and ``_run()``.  Debug-mode slow
    callback warnings are not emitted: no callback takes virtual time.
    """

    def __init__(self) -> None:
        super().__init__()
        self._vtime = 0.0

    def time(self) -> float:
        return self._vtime

    def _run_once(self) -> None:
        ready = self._ready
        scheduled = self._scheduled
        if not ready and scheduled:
            # A cancelled timer at the heap head is harmless here: time
            # jumps to its (defunct) deadline and the next iteration
            # advances again.  Monotonicity is preserved either way.
            when = scheduled[0]._when
            if when > self._vtime:
                self._vtime = when

        # Drop cancelled timers as the base loop does; the heap's layout
        # decides the order in which equal deadlines fire.
        count = len(scheduled)
        if (
            count > _MIN_SCHEDULED_TIMER_HANDLES
            and self._timer_cancelled_count / count
            > _MIN_CANCELLED_TIMER_HANDLES_FRACTION
        ):
            live = []
            for handle in scheduled:
                if handle._cancelled:
                    handle._scheduled = False
                else:
                    live.append(handle)
            heapify(live)
            self._scheduled = scheduled = live
            self._timer_cancelled_count = 0
        else:
            while scheduled and scheduled[0]._cancelled:
                self._timer_cancelled_count -= 1
                heappop(scheduled)._scheduled = False

        if not ready and not scheduled and not self._stopping:
            raise RuntimeError(
                "virtual-time deadlock: no callback is ready and no timer "
                "is pending, so nothing can ever wake the loop"
            )

        end_time = self._vtime + self._clock_resolution
        while scheduled and scheduled[0]._when < end_time:
            handle = heappop(scheduled)
            handle._scheduled = False
            ready.append(handle)

        # Run only what is ready now; callbacks these schedule run on
        # the next iteration.
        for _ in range(len(ready)):
            handle = ready.popleft()
            if not handle._cancelled:
                handle._run()


def run_virtual(main: Coroutine[Any, Any, Any]) -> Any:
    """Run ``main`` to completion on a fresh :class:`VirtualTimeLoop`.

    Raises:
        RuntimeError: If ``main`` waits on something that nothing left
            on the loop can resolve.
    """
    loop = VirtualTimeLoop()
    try:
        return loop.run_until_complete(main)
    finally:
        loop.close()
