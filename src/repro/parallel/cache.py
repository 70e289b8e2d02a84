"""Content-addressed plan cache: problem fingerprint → solved artifact.

Replanning workloads (the ``repro experiment`` sweeps, periodic
re-optimization against a fresh trace) repeatedly plan problems that
have not changed.  The cache keys every artifact by a SHA-256
fingerprint of the *content* that determines it — the full problem
document (objects, sizes, capacities, pairs, resources) plus the
planner-configuration signature — so a hit is guaranteed to be the
byte-exact artifact the planner would have produced, and any change to
the problem or configuration silently misses to a fresh plan.

Artifacts are JSON documents from :mod:`repro.core.serialization`,
stored under a *kind*: ``plan`` for a full
:class:`~repro.core.lprr.LPRRResult` (keyed by the problem + every
planner knob; hits skip the entire pipeline) and ``pgplan`` for the
placement-group planner's coarse plans.

Layout: ``<root>/<kind>/<key[:2]>/<key>.json``, written atomically
(temp file + rename) so concurrent planners can share a cache
directory.  Corrupt or unreadable entries are treated as misses, never
as errors.  Counters: ``cache.hits`` / ``cache.misses`` /
``cache.stores`` / ``cache.corrupt`` plus per-kind
``cache.<kind>.hits`` etc.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro import obs
from repro.core.problem import PlacementProblem


def problem_fingerprint(problem: PlacementProblem) -> str:
    """SHA-256 of the problem's canonical JSON document."""
    from repro.core.serialization import problem_to_dict

    blob = json.dumps(
        problem_to_dict(problem), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def signature_key(*parts: str) -> str:
    """Combine fingerprint/signature strings into one cache key."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class PlanCache:
    """A directory of content-addressed planning artifacts.

    Args:
        root: Cache directory (created on first store).

    All lookups and stores are best-effort: I/O errors and malformed
    entries degrade to cache misses so a broken cache can never break
    planning.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.json"

    def load(self, kind: str, key: str) -> dict | None:
        """The stored document for ``key``, or None on a miss.

        A present-but-unusable artifact — truncated JSON, binary
        garbage, or a non-object document from a torn write — counts as
        a miss (so the planner re-solves and overwrites it) and is
        additionally recorded under ``cache.corrupt``.
        """
        path = self._path(kind, key)
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError:
            obs.counter("cache.misses").inc()
            obs.counter(f"cache.{kind}.misses").inc()
            obs.record("cache.load", cache_kind=kind, key=key, outcome="miss")
            return None
        except ValueError:  # JSONDecodeError, UnicodeDecodeError
            self._record_corrupt(kind, key)
            return None
        if not isinstance(doc, dict):
            self._record_corrupt(kind, key)
            return None
        obs.counter("cache.hits").inc()
        obs.counter(f"cache.{kind}.hits").inc()
        obs.record("cache.load", cache_kind=kind, key=key, outcome="hit")
        return doc

    def _record_corrupt(self, kind: str, key: str) -> None:
        obs.counter("cache.misses").inc()
        obs.counter(f"cache.{kind}.misses").inc()
        obs.counter("cache.corrupt").inc()
        obs.counter(f"cache.{kind}.corrupt").inc()
        obs.record("cache.load", cache_kind=kind, key=key, outcome="corrupt")

    def store(self, kind: str, key: str, doc: dict) -> None:
        """Atomically persist ``doc`` under ``key``."""
        path = self._path(kind, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, separators=(",", ":"))
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return  # best-effort: a read-only cache dir is not an error
        obs.counter("cache.stores").inc()
        obs.counter(f"cache.{kind}.stores").inc()
        obs.record("cache.store", cache_kind=kind, key=key)

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in self.root.rglob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
