"""Generic multi-object operation-trace I/O and columnar traces.

Operations are stored one per line, object ids tab-separated.  Used by
the cluster examples and anywhere the workload is not a search-query
log (which has its own format in :mod:`repro.search.query`).

:class:`TraceColumns` is the columnar in-memory form: object ids
interned to dense integer codes, one flat code array plus operation
offsets (CSR layout), optionally a timestamp per operation.  Consumers
with a vectorized path (sketch ingestion, pair mining) work on the
code arrays directly; everything else, query-log replay included,
iterates :meth:`TraceColumns.operations`, which reproduces the
row-oriented trace exactly — the row path stays the equivalence oracle
for every columnar fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import TraceFormatError

Operation = tuple[str, ...]
ObjectId = Hashable
Pair = tuple[ObjectId, ObjectId]


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

    Codes are assigned in *repr order* of the distinct ids — sorting
    codes numerically inside an operation therefore reproduces the
    ``sorted(distinct, key=repr)`` step of the row-oriented pair
    reduction (:func:`repro.core.correlation.operation_pairs`), which
    is what makes the vectorized :meth:`cooccurrence_pairs` exactly
    equivalent to the per-operation loop.

    Attributes:
        ids: Distinct object ids, index = code, in repr order.
        codes: Flat int64 array of every operation's codes, in trace
            order, duplicates preserved.
        offsets: int64 array of length ``len(self) + 1``; operation
            ``i`` spans ``codes[offsets[i]:offsets[i + 1]]``.
        times: Optional float64 per-operation timestamps.
        all_str: Every id is a plain ``str`` — the gate for fast paths
            whose code arithmetic assumes value order is total and
            consistent with the ids' own ordering.
    """

    ids: tuple[ObjectId, ...]
    codes: np.ndarray
    offsets: np.ndarray
    times: np.ndarray | None = None
    all_str: bool = True

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
        all_str = all(type(obj) is str for obj in distinct)
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
            all_str=all_str,
        )

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __iter__(self) -> Iterator[tuple[ObjectId, ...]]:
        return self.operations()

    def operations(self) -> Iterator[tuple[ObjectId, ...]]:
        """The row-oriented view, exactly as ingested (the oracle)."""
        for i in range(len(self)):
            lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
            yield tuple(self.ids[c] for c in self.codes[lo:hi])

    def cooccurrence_pairs(self) -> list[Pair]:
        """Every operation's distinct pairs, in row-path order.

        Exactly the concatenation of ``operation_pairs(op,
        "cooccurrence")`` over :meth:`operations` — same pairs, same
        canonical orientation, same global order — computed without the
        per-operation ``set``/``sorted(key=repr)``/comprehension loop.
        Non-``str`` ids fall back to that loop (code order is only
        provably repr order for plain strings).
        """
        if not self.all_str:
            from repro.core.correlation import operation_pairs

            out: list[Pair] = []
            for op in self.operations():
                out.extend(operation_pairs(op, "cooccurrence"))
            return out
        if self.codes.size == 0:
            return []
        n_ops = len(self)
        op_idx = np.repeat(np.arange(n_ops), np.diff(self.offsets))
        # Distinct codes per operation, sorted (= repr order of ids).
        order = np.lexsort((self.codes, op_idx))
        oc, cc = op_idx[order], self.codes[order]
        keep = np.ones(oc.size, dtype=bool)
        keep[1:] = (oc[1:] != oc[:-1]) | (cc[1:] != cc[:-1])
        oc, cc = oc[keep], cc[keep]
        counts = np.bincount(oc, minlength=n_ops)
        starts = np.zeros(n_ops + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])

        # Expand pairs per distinct-count group, then restore global
        # (operation, within-operation) order so order-sensitive
        # consumers (Space-Saving eviction, Counter insertion) see the
        # row path's exact stream.
        a_parts: list[np.ndarray] = []
        b_parts: list[np.ndarray] = []
        o_parts: list[np.ndarray] = []
        r_parts: list[np.ndarray] = []
        for length in np.unique(counts):
            length = int(length)
            if length < 2:
                continue
            members = np.where(counts == length)[0]
            rows = starts[members][:, None] + np.arange(length)[None, :]
            mat = cc[rows]
            a_i, b_i = np.triu_indices(length, k=1)  # row-major: (0,1)..
            a_parts.append(mat[:, a_i].ravel())
            b_parts.append(mat[:, b_i].ravel())
            o_parts.append(np.repeat(members, a_i.size))
            r_parts.append(np.tile(np.arange(a_i.size), members.size))
        if not a_parts:
            return []
        a = np.concatenate(a_parts)
        b = np.concatenate(b_parts)
        restore = np.lexsort((np.concatenate(r_parts), np.concatenate(o_parts)))
        a, b = a[restore], b[restore]
        # Canonical orientation is *value* order; codes are repr order.
        # For plain strings the two agree unless quoting differs, so
        # rank codes by the ids' own ordering and swap where needed.
        value_rank = np.empty(len(self.ids), dtype=np.int64)
        value_rank[
            sorted(range(len(self.ids)), key=lambda c: self.ids[c])
        ] = np.arange(len(self.ids))
        flip = value_rank[a] > value_rank[b]
        a[flip], b[flip] = b[flip], a[flip]
        ids = self.ids
        return [(ids[x], ids[y]) for x, y in zip(a.tolist(), b.tolist())]


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
