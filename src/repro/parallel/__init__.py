"""repro.parallel — the parallel planning execution layer.

Two independent levers, both deterministic for a fixed root seed:

* **Trial fan-out** — :func:`parallel_round_best_of` runs best-of-``k``
  randomized-rounding trials across a process pool, reducing over
  ``(cost, trial_index)`` so the result is identical for every worker
  count (``jobs=1`` is a poolless inline fallback).
* **Plan cache** — :class:`PlanCache` memoizes whole LPRR results by
  content fingerprint, so replans of an unchanged problem skip
  planning entirely.

See ``docs/PARALLELISM.md`` for the worker model, the seeding scheme,
and cache keying.
"""

from repro.parallel.cache import PlanCache, problem_fingerprint, signature_key
from repro.parallel.rounding import (
    TrialOutcome,
    parallel_round_best_of,
    select_best,
)
from repro.parallel.runner import (
    TaskRunner,
    chunk_evenly,
    record_pool_metrics,
    resolve_jobs,
)
from repro.parallel.seeds import spawn_generators, spawn_seed_sequences

__all__ = [
    "PlanCache",
    "TaskRunner",
    "TrialOutcome",
    "chunk_evenly",
    "parallel_round_best_of",
    "problem_fingerprint",
    "record_pool_metrics",
    "resolve_jobs",
    "select_best",
    "signature_key",
    "spawn_generators",
    "spawn_seed_sequences",
]
