"""Pair-correlation estimation from multi-object operation traces.

The paper defines the correlation ``r(i, j)`` of an object pair as the
probability that both objects are requested together in an operation.
For operations touching more than two objects, Section 3.2 reduces the
operation to one or more two-object operations:

* **Intersection-like** operations (multi-keyword search, database
  joins) are approximated by a single two-object operation on the two
  *smallest* requested objects, so ``r(i, j)`` becomes the probability
  that ``i`` and ``j`` are the two smallest objects of an operation.
* **Union-like** operations are approximated by a sequence of pairs,
  each joining the *largest* requested object with one other object.

One engine runs that reduction for every consumer: :func:`_mine_chunks`
makes **one pass** over a trace — an iterable of operations, each an
iterable of object ids — interning ids and reducing operations in
vectorized chunks (working set ``O(chunk + distinct pairs)``), so
single-use iterables (generators, streaming readers) work without
materializing the trace.  Any trace the vectorized engine cannot reduce
exactly falls back to the per-operation loop, so results — including
dict insertion order — never depend on which engine ran.

The three ``*_correlations`` functions count its chunks into a dict
mapping canonical id pairs to empirical probabilities (pair count /
number of operations counted).  The :class:`PairEstimator` protocol is
the incremental surface, shared by the exact
:class:`CorrelationEstimator` here and the memory-bounded sketch
backend in :mod:`repro.online.sketch`; both ingest the same chunks
through :meth:`~PairEstimator.observe_trace`.  The reduction of a
single operation is exposed as :func:`operation_pairs`.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable, Iterator, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

ObjectId = Hashable
Operation = Sequence[ObjectId]
Pair = tuple[ObjectId, ObjectId]
PairProbabilities = dict[tuple[ObjectId, ObjectId], float]


def _canonical(a: ObjectId, b: ObjectId) -> tuple[ObjectId, ObjectId]:
    """Order a pair deterministically (by repr when not comparable)."""
    try:
        return (a, b) if a <= b else (b, a)  # type: ignore[operator]
    except TypeError:
        return (a, b) if repr(a) <= repr(b) else (b, a)


def _finalize(counts: Counter, total_operations: float, min_support: int) -> PairProbabilities:
    if total_operations == 0:
        return {}
    return {
        pair: count / total_operations
        for pair, count in counts.items()
        if count >= min_support
    }


def operation_pairs(
    operation: Operation,
    mode: str = "cooccurrence",
    sizes: Mapping[ObjectId, float] | None = None,
) -> list[Pair]:
    """Reduce one operation to the pairs it contributes (Section 3.2).

    Every estimator — exact or sketched — reads the concatenation of
    these lists over its trace, from the chunked miner below:

    * ``"cooccurrence"`` — every distinct pair of the operation.
    * ``"two_smallest"`` — the two smallest known objects (intersection
      approximation); ties on size break by id repr.
    * ``"union_largest"`` — the largest known object paired with each
      other one, in repr order (union approximation).

    Args:
        operation: One operation as an iterable of object ids
            (duplicates ignored).
        mode: One of :attr:`CorrelationEstimator.MODES`.
        sizes: Object sizes; required for the size-aware modes, where
            objects missing from the mapping are ignored.

    Returns:
        Canonical pairs, possibly empty; each pair appears at most once.
    """
    _check_mode(mode, sizes)
    return _pairs_from_distinct(list(set(operation)), mode, sizes)


def _check_mode(mode: str, sizes: Mapping[ObjectId, float] | None) -> None:
    """Reject an unknown mode, or a size-aware one without sizes."""
    if mode not in CorrelationEstimator.MODES:
        raise ValueError(
            f"unknown mode {mode!r}; expected one of {CorrelationEstimator.MODES}"
        )
    if mode != "cooccurrence" and sizes is None:
        raise ValueError(f"mode {mode!r} requires object sizes")


def _pairs_from_distinct(
    distinct: list[ObjectId],
    mode: str,
    sizes: Mapping[ObjectId, float] | None,
) -> list[Pair]:
    """The Section 3.2 reduction over already-deduplicated objects.

    ``distinct`` must carry the iteration order of the operation's
    ``set``: the repr sorts keep that order among equal reprs, and the
    miner replays recorded operations through this helper so its
    fallback path stays byte-identical to :func:`operation_pairs`.
    The union pairs follow the other objects' repr order, as the
    cooccurrence pairs do.
    """
    if mode == "cooccurrence":
        objects = sorted(distinct, key=repr)
        return [
            _canonical(objects[a], objects[b])
            for a in range(len(objects))
            for b in range(a + 1, len(objects))
        ]
    assert sizes is not None
    known = [o for o in distinct if o in sizes]
    if len(known) < 2:
        return []
    if mode == "two_smallest":
        known.sort(key=lambda o: (sizes[o], repr(o)))
        return [_canonical(known[0], known[1])]
    largest = max(known, key=lambda o: (sizes[o], repr(o)))
    others = sorted(known, key=repr)
    return [_canonical(largest, other) for other in others if other != largest]


#: Operations mined per vectorized batch.  Bounds the miner's working
#: set to O(chunk + distinct pairs) — the same asymptotics as the
#: legacy streaming loop — while amortizing the numpy dispatch.
_CHUNK_OPS = 4096

#: Raw pair-key backlog that triggers a compaction of the key-space
#: accumulator (see :func:`_compact_keys`).
_COMPACT_PAIRS = 1 << 20


def _compact_keys(
    key_parts: list[np.ndarray], count_parts: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Merge packed-key streams into (unique keys, summed counts).

    The streams concatenate in emission order, so sorting the unique
    keys by their first index reproduces the Counter's insertion order.
    Counts are summed through ``bincount`` float64 accumulation, exact
    for totals below 2**53 (a trace that large is out of scope).
    """
    keys = np.concatenate(key_parts)
    weights = np.concatenate(count_parts)
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    sums = np.bincount(inverse, weights=weights, minlength=len(uniq))
    order = np.argsort(first)
    return uniq[order], sums.astype(np.int64)[order]


class _TraceEncoder:
    """Interns object ids to dense codes and watches fast-path gates.

    The vectorized miner operates on integer codes, so correctness
    hinges on the code <-> object mapping preserving every property the
    per-operation loop relies on: value order (for :func:`_canonical`),
    repr order (for the cooccurrence sort and size tie-breaks), and the
    identity of the objects in each emitted pair.  Those hold when every
    id is a ``str``, or every id is an ``int``/``float`` (no bools, no
    NaNs, no equal values with different reprs) — anything else trips
    ``fast`` off and the miner falls back to the exact loop over the
    recorded operations.
    """

    __slots__ = (
        "code", "objects", "reprs", "fast", "_has_str", "_has_num", "_repr_seen"
    )

    def __init__(self) -> None:
        self.code: dict[ObjectId, int] = {}
        self.objects: list[ObjectId] = []
        self.reprs: list[str] = []
        self.fast = True
        self._has_str = False
        self._has_num = False
        self._repr_seen: set[str] = set()

    def encode(self, distinct: list[ObjectId]) -> list[int]:
        """Codes for one operation's distinct objects, interning new ones."""
        code = self.code
        out = []
        for obj in distinct:
            c = code.get(obj)
            if c is None:
                c = len(self.objects)
                code[obj] = c
                self.objects.append(obj)
                r = repr(obj)
                if self.fast:
                    t = type(obj)
                    if t is str:
                        self._has_str = True
                    elif t is int:
                        self._has_num = True
                    elif t is float:
                        self._has_num = True
                        if obj != obj:  # NaN breaks total order
                            self.fast = False
                    else:
                        self.fast = False
                    if r in self._repr_seen:
                        # Duplicate reprs make the cooccurrence sort
                        # order depend on per-operation set order.
                        self.fast = False
                    else:
                        self._repr_seen.add(r)
                self.reprs.append(r)
            elif self.fast:
                stored = self.objects[c]
                if stored is not obj and (
                    type(stored) is not type(obj)
                    or (type(obj) is float and repr(obj) != self.reprs[c])
                ):
                    # Equal-but-distinct ids (1 vs True, 1 vs 1.0,
                    # 0.0 vs -0.0): the emitted pair must hold the
                    # operation's own object, not our representative.
                    self.fast = False
            out.append(c)
        return out

    def fast_ok(self) -> bool:
        """Whether the vectorized path is still exact for this table."""
        return self.fast and not (self._has_str and self._has_num)


def _invert_order(order: list[int]) -> np.ndarray:
    """Permutation -> rank array (``rank[order[i]] = i``)."""
    rank = np.empty(len(order), dtype=np.int64)
    rank[np.asarray(order, dtype=np.int64)] = np.arange(len(order), dtype=np.int64)
    return rank


def _chunk_ranks(
    enc: _TraceEncoder,
    cache: dict,
    mode: str,
    sizes: Mapping[ObjectId, float] | None,
) -> dict | None:
    """Per-code rank arrays for the current intern table (cached).

    Returns ``None`` — flipping the encoder's fast bit off — when a
    size value cannot be compared exactly as a float, which would make
    the vectorized size sort diverge from the legacy tuple sort.
    """
    n = len(enc.objects)
    if cache.get("n") != n:
        cache.clear()
        cache["n"] = n
        cache["repr_rank"] = _invert_order(
            sorted(range(n), key=enc.reprs.__getitem__)
        )
        # Total order is guaranteed by the encoder's type gates.
        cache["value_rank"] = _invert_order(
            sorted(range(n), key=enc.objects.__getitem__)
        )
    if mode != "cooccurrence" and "size_rank" not in cache:
        assert sizes is not None
        in_sizes = np.fromiter(
            (obj in sizes for obj in enc.objects), dtype=bool, count=n
        )
        size_vals = np.zeros(n, dtype=np.float64)
        for c in np.flatnonzero(in_sizes):
            value = sizes[enc.objects[int(c)]]
            try:
                as_float = float(value)
                exact = as_float == value
            except (TypeError, ValueError, OverflowError):
                enc.fast = False
                return None
            if not exact:  # NaN or a value float64 cannot hold exactly
                enc.fast = False
                return None
            size_vals[c] = as_float
        cache["in_sizes"] = in_sizes
        # lexsort: last key is primary -> size first, repr breaks ties,
        # mirroring the legacy (sizes[o], repr(o)) sort key.
        cache["size_rank"] = _invert_order(
            np.lexsort((cache["repr_rank"], size_vals)).tolist()
        )
    return cache


def _mine_chunk(
    flat: np.ndarray,
    lengths: np.ndarray,
    enc: _TraceEncoder,
    mode: str,
    sizes: Mapping[ObjectId, float] | None,
    cache: dict,
) -> np.ndarray | None:
    """One chunk's packed pair keys, duplicates kept, in emission order.

    Returns ``None`` when a gate trips, in which case the caller replays
    the chunk through :func:`_pairs_from_distinct`.
    """
    n = len(enc.objects)
    if n >= 2**31:  # pair keys must fit an int64 product
        enc.fast = False
        return None
    ranks = _chunk_ranks(enc, cache, mode, sizes)
    if ranks is None:
        return None

    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    parts_x: list[np.ndarray] = []
    parts_y: list[np.ndarray] = []
    parts_pos: list[np.ndarray] = []

    if mode == "cooccurrence":
        repr_rank = ranks["repr_rank"]
        emitted = lengths * (lengths - 1) // 2
        pair_base = np.concatenate(([0], np.cumsum(emitted)[:-1]))
        for length in np.unique(lengths):
            length = int(length)
            if length < 2:
                continue
            rows = np.flatnonzero(lengths == length)
            mat = flat[starts[rows][:, None] + np.arange(length)]
            order = np.argsort(repr_rank[mat], axis=1)
            mat = np.take_along_axis(mat, order, axis=1)
            ai, bi = np.triu_indices(length, k=1)
            per_op = length * (length - 1) // 2
            parts_x.append(mat[:, ai].ravel())
            parts_y.append(mat[:, bi].ravel())
            parts_pos.append(
                (pair_base[rows][:, None] + np.arange(per_op)).ravel()
            )
    else:
        size_rank = ranks["size_rank"]
        mask = ranks["in_sizes"][flat]
        running = np.concatenate(([0], np.cumsum(mask)))
        known_len = running[starts + lengths] - running[starts]
        known_flat = flat[mask]
        known_starts = np.concatenate(([0], np.cumsum(known_len)[:-1]))
        if mode == "two_smallest":
            for length in np.unique(known_len):
                length = int(length)
                if length < 2:
                    continue
                rows = np.flatnonzero(known_len == length)
                mat = known_flat[known_starts[rows][:, None] + np.arange(length)]
                order = np.argsort(size_rank[mat], axis=1)[:, :2]
                picked = np.take_along_axis(mat, order, axis=1)
                parts_x.append(picked[:, 0])
                parts_y.append(picked[:, 1])
                parts_pos.append(rows)
        else:  # union_largest
            repr_rank = ranks["repr_rank"]
            emitted = np.where(known_len >= 2, known_len - 1, 0)
            pair_base = np.concatenate(([0], np.cumsum(emitted)[:-1]))
            for length in np.unique(known_len):
                length = int(length)
                if length < 2:
                    continue
                rows = np.flatnonzero(known_len == length)
                mat = known_flat[known_starts[rows][:, None] + np.arange(length)]
                order = np.argsort(repr_rank[mat], axis=1)
                mat = np.take_along_axis(mat, order, axis=1)
                biggest = np.argmax(size_rank[mat], axis=1)
                keep = np.arange(length)[None, :] != biggest[:, None]
                others = mat[keep].reshape(-1, length - 1)
                parts_x.append(
                    np.repeat(mat[np.arange(len(rows)), biggest], length - 1)
                )
                parts_y.append(others.ravel())
                parts_pos.append(
                    (pair_base[rows][:, None] + np.arange(length - 1)).ravel()
                )

    if not parts_x:
        return np.empty(0, dtype=np.int64)
    cx = np.concatenate(parts_x)
    cy = np.concatenate(parts_y)
    emission = np.argsort(np.concatenate(parts_pos))
    cx = cx[emission]
    cy = cy[emission]
    value_rank = ranks["value_rank"]
    swap = value_rank[cx] > value_rank[cy]
    lo = np.where(swap, cy, cx)
    hi = np.where(swap, cx, cy)
    # Codes stay below 2**31, so a packed int64 key is collision-free
    # and — unlike ``lo * n + hi`` — independent of the table size,
    # letting key streams from different chunks merge directly.
    return (lo << np.int64(32)) | hi


def _decode(keys: np.ndarray, objects: list[ObjectId]) -> Iterator[Pair]:
    """Packed pair keys -> object pairs, in key order."""
    lookup = objects.__getitem__
    return zip(
        map(lookup, (keys >> 32).tolist()),
        map(lookup, (keys & 0xFFFFFFFF).tolist()),
    )


def _mine_chunks(
    trace: Iterable[Operation],
    mode: str,
    sizes: Mapping[ObjectId, float] | None,
    enc: _TraceEncoder,
) -> Iterator[tuple[int, np.ndarray | list[Pair]]]:
    """Reduce ``trace`` in one pass, yielding ``(operations, pairs)`` chunks.

    The mode check runs before the first operation is read.  Operations
    are deduplicated and interned into ``enc`` as they stream by, then
    reduced in vectorized chunks of :data:`_CHUNK_OPS`.  ``pairs`` is
    the chunk's packed pair keys over ``enc``'s codes (see
    :func:`_decode`) in emission order — or, once an exactness gate has
    tripped (see :class:`_TraceEncoder`), the per-operation loop's
    list.  Either way the chunks concatenate to the trace's
    :func:`operation_pairs` stream, duplicates kept.  The gates are
    sticky, so list chunks only follow key chunks, and the object that
    tripped one was first seen in its own chunk, never in a key chunk.
    """
    _check_mode(mode, sizes)
    ranks_cache: dict = {}
    chunk: list[list[ObjectId]] = []
    flat: list[int] = []
    lengths: list[int] = []

    def mine() -> np.ndarray | list[Pair]:
        if enc.fast_ok():
            keys = _mine_chunk(
                np.asarray(flat, dtype=np.int64),
                np.asarray(lengths, dtype=np.int64),
                enc,
                mode,
                sizes,
                ranks_cache,
            )
            if keys is not None:
                return keys
        return [
            pair
            for distinct in chunk
            for pair in _pairs_from_distinct(distinct, mode, sizes)
        ]

    for operation in trace:
        distinct = list(set(operation))
        chunk.append(distinct)
        lengths.append(len(distinct))
        flat.extend(enc.encode(distinct))
        if len(chunk) >= _CHUNK_OPS:
            yield len(chunk), mine()
            chunk, flat, lengths = [], [], []
    if chunk:
        yield len(chunk), mine()


def _trace_pairs(
    trace: Iterable[Operation],
    mode: str,
    sizes: Mapping[ObjectId, float] | None,
) -> tuple[list[Pair], int]:
    """The trace's :func:`operation_pairs` stream, and its operation count.

    Every pair of every operation, duplicates kept, in trace order: the
    one ingest of both :class:`PairEstimator` backends.
    """
    enc = _TraceEncoder()
    pairs: list[Pair] = []
    total = 0
    for ops, chunk in _mine_chunks(trace, mode, sizes, enc):
        total += ops
        pairs.extend(chunk if isinstance(chunk, list) else _decode(chunk, enc.objects))
    return pairs, total


def _count_pairs(
    trace: Iterable[Operation],
    mode: str,
    sizes: Mapping[ObjectId, float] | None,
    min_support: int,
) -> PairProbabilities:
    """Count the mined pairs; ``trace`` may be a one-shot iterable.

    Key chunks accumulate in key space — parallel (keys, counts)
    streams, compacted whenever the raw backlog grows past
    :data:`_COMPACT_PAIRS` so memory stays O(unique pairs + compaction
    window) — and list chunks in a :class:`~collections.Counter`.  The
    list chunks ran strictly after every key chunk, so their new pairs
    append behind the key pairs, and the result — values *and* dict
    insertion order — is byte-identical to one ``Counter.update`` of
    :func:`operation_pairs` per operation.
    """
    enc = _TraceEncoder()
    counts: Counter = Counter()
    total = 0
    key_parts: list[np.ndarray] = []
    count_parts: list[np.ndarray] = []
    pending = 0
    for ops, chunk in _mine_chunks(trace, mode, sizes, enc):
        total += ops
        if isinstance(chunk, list):
            counts.update(chunk)
            continue
        key_parts.append(chunk)
        count_parts.append(np.ones(len(chunk), dtype=np.int64))
        pending += len(chunk)
        if pending > _COMPACT_PAIRS:
            keys, sums = _compact_keys(key_parts, count_parts)
            key_parts, count_parts, pending = [keys], [sums], 0
    if key_parts:
        keys, sums = _compact_keys(key_parts, count_parts)
        merged = Counter(dict(zip(_decode(keys, enc.objects), sums.tolist())))
        merged.update(counts)
        counts = merged
    return _finalize(counts, total, min_support)


def cooccurrence_correlations(
    trace: Iterable[Operation], min_support: int = 1
) -> PairProbabilities:
    """Raw co-occurrence estimator: every pair in an operation counts.

    This is the paper's base definition of ``r(i, j)`` and is exact for
    traces of two-object operations.

    Args:
        trace: Operations; each operation is an iterable of object ids
            (duplicates within an operation are ignored).  A single-use
            iterable is fine — the trace is read exactly once.
        min_support: Drop pairs observed fewer than this many times.

    Returns:
        Mapping from canonical pairs to empirical probabilities.
    """
    return _count_pairs(trace, "cooccurrence", None, min_support)


def two_smallest_correlations(
    trace: Iterable[Operation],
    sizes: Mapping[ObjectId, float],
    min_support: int = 1,
) -> PairProbabilities:
    """Intersection-like estimator: count only the two smallest objects.

    Ties on size are broken by object id (via repr) so the estimator is
    deterministic.  Operations with fewer than two distinct known
    objects contribute nothing but still count toward the denominator,
    mirroring the paper's per-operation probability definition.

    Args:
        trace: Operations as iterables of object ids, read in a single
            pass (generators work).
        sizes: Object sizes used to find the two smallest.  Objects
            missing from this mapping are ignored.
        min_support: Drop pairs observed fewer than this many times.
    """
    return _count_pairs(trace, "two_smallest", sizes, min_support)


def union_largest_correlations(
    trace: Iterable[Operation],
    sizes: Mapping[ObjectId, float],
    min_support: int = 1,
) -> PairProbabilities:
    """Union-like estimator: pair the largest object with each other.

    Models transferring all requested objects to the node hosting the
    largest one (Section 3.2), so an operation over ``q`` objects
    contributes ``q - 1`` pairs, all sharing the largest object.

    Args:
        trace: Operations as iterables of object ids, read in a single
            pass (generators work).
        sizes: Object sizes used to find the largest.
        min_support: Drop pairs observed fewer than this many times.
    """
    return _count_pairs(trace, "union_largest", sizes, min_support)


@runtime_checkable
class PairEstimator(Protocol):
    """Anything that estimates pair correlations from an operation stream.

    Implemented exactly by :class:`CorrelationEstimator` and in bounded
    memory by
    :class:`~repro.online.sketch.SketchCorrelationEstimator`; the
    online controller accepts either, and feeds it one
    :meth:`observe_trace` batch per period.
    """

    @property
    def num_operations(self) -> int: ...

    def observe(self, operation: Operation) -> None: ...

    def observe_trace(self, trace: Iterable[Operation]) -> int: ...

    def correlations(self, min_support: int = 1) -> PairProbabilities: ...

    def top_pairs(self, k: int) -> list[tuple[Pair, float]]: ...

    def decay(self, factor: float) -> None: ...


def _add_ones(total: float, n: int) -> float:
    """``total`` after ``n`` sequential ``total += 1.0`` steps, bit for bit.

    One ``+ n`` gives the same float while the running total is an
    integer small enough that every step is exact; after a decay left
    it fractional, replay the steps.
    """
    if float(total).is_integer() and total + n < 2**53:
        return total + n
    for _ in range(n):
        total += 1.0
    return total


class CorrelationEstimator:
    """Incremental pair-correlation estimation over a stream of operations.

    Useful when the trace does not fit in memory or arrives online.
    The estimation mode mirrors the module-level functions.  Memory
    grows with the number of *distinct* pairs; for a bounded-memory
    backend with the same :class:`PairEstimator` surface see
    :class:`~repro.online.sketch.SketchCorrelationEstimator`.

    Example:
        >>> est = CorrelationEstimator(mode="cooccurrence")
        >>> est.observe_trace([["a", "b"], ["a", "b", "c"]])
        2
        >>> est.correlations()[("a", "b")]
        1.0
    """

    MODES = ("cooccurrence", "two_smallest", "union_largest")

    def __init__(
        self,
        mode: str = "cooccurrence",
        sizes: Mapping[ObjectId, float] | None = None,
    ):
        _check_mode(mode, sizes)
        self.mode = mode
        self.sizes = sizes
        self._counts: Counter = Counter()
        self._total = 0.0

    @property
    def num_operations(self) -> int:
        """Operations observed so far (discounted after :meth:`decay`)."""
        return int(self._total)

    def observe(self, operation: Operation) -> None:
        """Fold one operation into the estimate (a one-operation trace)."""
        self.observe_trace((operation,))

    def observe_trace(self, trace: Iterable[Operation]) -> int:
        """Fold a trace into the estimate in one pass; returns ops ingested.

        Pairs enter the counter in :func:`operation_pairs` stream order,
        so dict insertion order is that of one ``Counter.update`` per
        operation, and the total grows by one ``+= 1`` per operation.
        """
        pairs, ops = _trace_pairs(trace, self.mode, self.sizes)
        self._counts.update(pairs)
        self._total = _add_ones(self._total, ops)
        return ops

    def decay(self, factor: float) -> None:
        """Exponentially age the history: scale every count by ``factor``.

        Probabilities (count / total) are unchanged by a decay, but the
        *support* of old pairs shrinks, so correlations that stop being
        observed fade below ``min_support`` and eventually vanish.

        Args:
            factor: Multiplier in ``[0, 1]``; 1 is a no-op, 0 forgets
                everything.
        """
        if not 0.0 <= factor <= 1.0:
            raise ValueError("decay factor must be in [0, 1]")
        if factor == 1.0:
            return
        self._total *= factor
        if factor == 0.0:
            self._counts.clear()
            return
        for pair in self._counts:
            self._counts[pair] *= factor

    def correlations(self, min_support: int = 1) -> PairProbabilities:
        """Current pair-probability estimates."""
        return _finalize(self._counts, self._total, min_support)

    def top_pairs(self, k: int) -> list[tuple[tuple[ObjectId, ObjectId], float]]:
        """The ``k`` most correlated pairs, descending."""
        probs = self.correlations()
        return sorted(probs.items(), key=lambda item: (-item[1], repr(item[0])))[:k]
