"""Admission control: shed load with typed rejections, not queue collapse.

A router without admission control converts overload into unbounded
queues — every query eventually answered, none answered on time.  The
token bucket here caps the *admitted* rate (with a burst allowance for
diurnal peaks), and the router separately caps its backlog; everything
beyond either limit is rejected immediately with a typed reason and a
``retry_after_s`` hint, keeping latency bounded for what is admitted.

Time is whatever clock the caller supplies (the virtual loop's under
loadgen), so refill arithmetic is deterministic when the clock is.
"""

from __future__ import annotations

from repro.exceptions import ReproError

__all__ = ["AdmissionError", "TokenBucket", "THROTTLED", "QUEUE_FULL", "DRAINING"]

THROTTLED = "throttled"
QUEUE_FULL = "queue_full"
DRAINING = "draining"

REASONS = (THROTTLED, QUEUE_FULL, DRAINING)


class AdmissionError(ReproError):
    """A query was shed before execution.

    Attributes:
        reason: One of ``"throttled"`` (token bucket empty),
            ``"queue_full"`` (backlog cap reached), ``"draining"``
            (router shutting down).
        retry_after_s: Suggested client backoff; 0 when retrying will
            not help (draining).
    """

    def __init__(self, reason: str, retry_after_s: float = 0.0) -> None:
        if reason not in REASONS:
            raise ValueError(f"unknown rejection reason {reason!r}")
        super().__init__(f"query rejected: {reason}")
        self.reason = reason
        self.retry_after_s = retry_after_s


class TokenBucket:
    """Deterministic token bucket over a caller-supplied clock.

    Args:
        rate: Sustained refill, tokens (queries) per second.
        burst: Bucket capacity — how far above ``rate`` a short spike
            may go.  The bucket starts full.
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._refilled_at = 0.0

    def _refill(self, now: float) -> None:
        if now > self._refilled_at:
            self._tokens = min(
                self.burst, self._tokens + (now - self._refilled_at) * self.rate
            )
            self._refilled_at = now

    def try_acquire(self, now: float, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available at virtual instant ``now``."""
        self._refill(now)
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def retry_after(self, now: float, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will be available (0 if already)."""
        self._refill(now)
        deficit = tokens - self._tokens
        return max(0.0, deficit / self.rate)

    @property
    def tokens(self) -> float:
        """Tokens available as of the last refill."""
        return self._tokens
