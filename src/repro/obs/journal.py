"""Flight recorder: a bounded, append-only structured event journal.

Where spans answer *where did the time go* and metrics answer *how much
of what happened*, the journal answers *why did the system do what it
did*: every control-loop decision — a drift verdict, a fallback-chain
attempt, a fault injection, a plan swap — lands here as one
schema-versioned record, in order, with the inputs that produced it.

Design constraints, in priority order:

1. **Byte-reproducible.**  Records never contain wall-clock time, host
   names, process ids, or memory addresses.  Ordering is a logical
   clock (``seq``, a per-journal monotone counter); call sites that
   live on a virtual timeline (stream periods, chaos epochs) attach it
   as the ``t`` field.  Two same-seed runs therefore produce
   byte-identical journals, which CI enforces with ``cmp``.
2. **Bounded.**  The journal is a flight recorder, not a log file: it
   keeps at most ``max_records`` records and ``max_bytes`` of encoded
   payload, evicting oldest-first.  A long ``repro online`` run can
   journal every period forever without growing without bound; the
   ``dropped`` count in the header says how much history was shed.
3. **Append-only, JSONL.**  One JSON object per line, sorted keys,
   compact separators.  The first line is a header record carrying the
   schema version and eviction bookkeeping; every subsequent line is
   an event.

The rest of the codebase reaches the journal through
:func:`repro.obs.record`, which is a no-op (one global read) unless an
active :class:`~repro.obs.runtime.Instrumentation` carries a journal.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path
from typing import Any, Iterator

#: Schema marker stamped on the header line; bump when the record
#: layout changes incompatibly.
JOURNAL_SCHEMA = "repro.journal/v1"

#: Default record cap — generous for any bundled scenario, small enough
#: that a runaway loop cannot exhaust memory.
DEFAULT_MAX_RECORDS = 100_000

#: Default cap on total encoded bytes (16 MiB).
DEFAULT_MAX_BYTES = 16 * 1024 * 1024


def _encode(record: dict) -> str:
    """Canonical one-line encoding (sorted keys, compact separators)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class Journal:
    """A bounded, append-only, deterministic event journal.

    Args:
        max_records: Retain at most this many records (>= 1).
        max_bytes: Retain at most this many encoded bytes across all
            records; ``None`` disables the byte cap.

    Records are plain dicts.  :meth:`record` stamps each with the next
    ``seq`` value and its ``kind``, encodes it immediately (so a record
    that cannot be JSON-encoded fails at the call site, not at dump
    time), and evicts oldest-first when either cap is exceeded.
    """

    def __init__(
        self,
        max_records: int = DEFAULT_MAX_RECORDS,
        max_bytes: int | None = DEFAULT_MAX_BYTES,
    ):
        if max_records < 1:
            raise ValueError("max_records must be at least 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be at least 1 (or None)")
        self.max_records = max_records
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: deque[tuple[dict, int]] = deque()
        self._bytes = 0
        self._seq = 0
        self._dropped = 0

    def record(self, kind: str, **fields: Any) -> dict:
        """Append one event and return the stored record.

        Args:
            kind: Dotted lowercase event type (``"online.period"``,
                ``"plan.attempt"``, ``"chaos.fault"``).
            **fields: JSON-encodable payload.  ``kind`` and ``seq`` are
                reserved; a ``t`` field is the caller's *virtual* time
                (period start, epoch index) — never the wall clock.

        Returns:
            The record dict actually stored (including ``seq``).
        """
        with self._lock:
            record = {"seq": self._seq, "kind": kind, **fields}
            size = len(_encode(record)) + 1  # + newline
            self._seq += 1
            self._entries.append((record, size))
            self._bytes += size
            self._evict()
            return record

    def _evict(self) -> None:
        while len(self._entries) > self.max_records or (
            self.max_bytes is not None
            and self._bytes > self.max_bytes
            and len(self._entries) > 1
        ):
            _, size = self._entries.popleft()
            self._bytes -= size
            self._dropped += 1

    @property
    def dropped(self) -> int:
        """Records evicted so far (oldest-first)."""
        return self._dropped

    @property
    def total_bytes(self) -> int:
        """Encoded size of the retained records (newlines included)."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[dict]:
        with self._lock:
            entries = list(self._entries)
        return (record for record, _ in entries)

    def records(self, kind: str | None = None) -> list[dict]:
        """Retained records in order, optionally filtered by kind."""
        if kind is None:
            return list(self)
        return [r for r in self if r.get("kind") == kind]

    def header(self) -> dict:
        """The JSONL header line: schema + retention bookkeeping."""
        with self._lock:
            return {
                "schema": JOURNAL_SCHEMA,
                "kind": "journal.header",
                "records": len(self._entries),
                "dropped": self._dropped,
            }

    def to_jsonl(self) -> str:
        """The whole journal as JSONL text (header first)."""
        lines = [_encode(self.header())]
        lines.extend(_encode(record) for record in self)
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        """Write the journal to ``path`` as JSONL."""
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    def reset(self) -> None:
        """Drop every record and restart the logical clock."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._seq = 0
            self._dropped = 0

    def __repr__(self) -> str:
        return (
            f"Journal({len(self._entries)} records, "
            f"{self._bytes} bytes, dropped={self._dropped})"
        )


def load_journal(path: str | Path) -> list[dict]:
    """Parse a JSONL journal file back into its records.

    The header line (``kind == "journal.header"``) is validated for
    schema compatibility and included in the returned list — analytics
    filter by ``kind`` anyway, and the header's ``dropped`` count is
    itself reportable.

    Raises:
        ValueError: On malformed lines or an incompatible schema.
    """
    records: list[dict] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{lineno}: journal lines must be objects")
        if record.get("kind") == "journal.header":
            schema = record.get("schema")
            if schema != JOURNAL_SCHEMA:
                raise ValueError(
                    f"{path}: unsupported journal schema {schema!r} "
                    f"(expected {JOURNAL_SCHEMA!r})"
                )
        records.append(record)
    return records
