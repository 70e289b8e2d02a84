"""Generic multi-object operation-trace I/O and columnar traces.

Operations are stored one per line, object ids tab-separated.  Used by
the cluster examples and anywhere the workload is not a search-query
log (which has its own format in :mod:`repro.search.query`).

:class:`TraceColumns` is the columnar in-memory form: object ids
interned to dense integer codes, one flat code array plus operation
offsets (CSR layout), optionally a timestamp per operation.  Iterating
it (:meth:`TraceColumns.operations`) reproduces the row-oriented trace
exactly, so it goes wherever a trace does — pair mining, estimator
ingest and query-log replay included.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import TraceFormatError

Operation = tuple[str, ...]
ObjectId = Hashable


def save_operations(path: str | Path, operations: Iterable[Sequence[str]]) -> int:
    """Write operations to ``path``; returns the number written.

    Raises:
        TraceFormatError: If an object id contains a tab or newline.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for operation in operations:
            ids = [str(obj) for obj in operation]
            for obj in ids:
                if "\t" in obj or "\n" in obj:
                    raise TraceFormatError(
                        f"object id {obj!r} contains a separator character"
                    )
            fh.write("\t".join(ids) + "\n")
            count += 1
    return count


def load_operations(path: str | Path) -> list[Operation]:
    """Read operations written by :func:`save_operations`.

    Raises:
        TraceFormatError: On unreadable files or empty records.
    """
    operations: list[Operation] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                ids = tuple(part for part in line.split("\t") if part)
                if not ids:
                    raise TraceFormatError(f"{path}:{line_no}: empty operation")
                operations.append(ids)
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {path}: {exc}") from exc
    return operations


@dataclass(frozen=True, eq=False)
class TraceColumns:
    """A trace as columns: interned codes, CSR offsets, optional times.

    Codes are assigned in *repr order* of the distinct ids, so the
    columns of a trace do not depend on the string-hash seed.

    Attributes:
        ids: Distinct object ids, index = code, in repr order.
        codes: Flat int64 array of every operation's codes, in trace
            order, duplicates preserved.
        offsets: int64 array of length ``len(self) + 1``; operation
            ``i`` spans ``codes[offsets[i]:offsets[i + 1]]``.
        times: Optional float64 per-operation timestamps.
    """

    ids: tuple[ObjectId, ...]
    codes: np.ndarray
    offsets: np.ndarray
    times: np.ndarray | None = None

    @classmethod
    def from_operations(
        cls,
        operations: Iterable[Sequence[ObjectId]],
        times: Sequence[float] | None = None,
    ) -> "TraceColumns":
        """Intern a row-oriented trace into columns."""
        ops = [tuple(op) for op in operations]
        distinct: set[ObjectId] = set()
        for op in ops:
            distinct.update(op)
        ordered = sorted(distinct, key=repr)
        code = {obj: i for i, obj in enumerate(ordered)}
        lengths = np.fromiter(
            (len(op) for op in ops), dtype=np.int64, count=len(ops)
        )
        offsets = np.zeros(len(ops) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        codes = np.fromiter(
            (code[obj] for op in ops for obj in op),
            dtype=np.int64,
            count=int(offsets[-1]),
        )
        time_arr = None
        if times is not None:
            time_arr = np.asarray(times, dtype=np.float64)
            if time_arr.shape != (len(ops),):
                raise ValueError(
                    f"times must have one entry per operation; got "
                    f"{time_arr.shape} for {len(ops)} operations"
                )
            time_arr.setflags(write=False)
        codes.setflags(write=False)
        offsets.setflags(write=False)
        return cls(
            ids=tuple(ordered),
            codes=codes,
            offsets=offsets,
            times=time_arr,
        )

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __iter__(self) -> Iterator[tuple[ObjectId, ...]]:
        return self.operations()

    def operations(self) -> Iterator[tuple[ObjectId, ...]]:
        """The row-oriented view, exactly as ingested."""
        for i in range(len(self)):
            lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
            yield tuple(self.ids[c] for c in self.codes[lo:hi])


def split_periods(
    operations: Sequence[Operation], num_periods: int = 2
) -> list[list[Operation]]:
    """Split a trace into contiguous equal periods (e.g. Jan/Feb).

    Args:
        operations: The full trace, in time order.
        num_periods: Number of periods (``>= 1``).

    Returns:
        ``num_periods`` contiguous slices covering the trace; the last
        period absorbs any remainder.
    """
    if num_periods < 1:
        raise ValueError("num_periods must be at least 1")
    per = len(operations) // num_periods
    periods = []
    for p in range(num_periods):
        start = p * per
        end = (p + 1) * per if p < num_periods - 1 else len(operations)
        periods.append(list(operations[start:end]))
    return periods
