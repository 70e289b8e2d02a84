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

One vectorized function runs that reduction for every consumer:
:func:`_reduce_pairs` takes distinct operations as a CSR of object codes,
with each code's value, ``repr`` and ``(size, repr)`` rank, and emits
their canonical code pairs in :func:`operation_pairs` order.
:meth:`repro.search.QueryProfile.correlations` feeds it a compiled query
log ranked by its index.  The functions here feed it
:func:`_mine_trace`, which reads a trace — an iterable of operations,
each an iterable of object ids; single-use iterables work — once,
groups equal operations and interns their ids.  A trace whose ids the
codes cannot stand in for exactly takes the per-operation loop instead,
so results — including dict insertion order — never depend on which
path ran.

The three ``*_correlations`` functions sum the pairs into a dict
mapping canonical id pairs to empirical probabilities (pair count /
number of operations counted).  The incremental, memory-bounded
estimator of :mod:`repro.online.sketch` ingests the same trace's pair
stream through :func:`_trace_pairs`.  The reduction of a single
operation is exposed as :func:`operation_pairs`.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import chain, compress
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

ObjectId = Hashable
Operation = Sequence[ObjectId]
Pair = tuple[ObjectId, ObjectId]
PairProbabilities = dict[tuple[ObjectId, ObjectId], float]

# The Section 3.2 pair-reduction modes.
MODES = ("cooccurrence", "two_smallest", "union_largest")


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
    these lists over its trace, from the vectorized reduction below:

    * ``"cooccurrence"`` — every distinct pair of the operation.
    * ``"two_smallest"`` — the two smallest known objects (intersection
      approximation); ties on size break by id repr.
    * ``"union_largest"`` — the largest known object paired with each
      other one, in repr order (union approximation).

    Args:
        operation: One operation as an iterable of object ids
            (duplicates ignored).
        mode: One of :data:`MODES`.
        sizes: Object sizes; required for the size-aware modes, where
            objects missing from the mapping are ignored.

    Returns:
        Canonical pairs, possibly empty; each pair appears at most once.
    """
    _check_mode(mode, sizes)
    return _pairs_from_distinct(list(set(operation)), mode, sizes)


def _check_mode(mode: str, sizes: Mapping[ObjectId, float] | None) -> None:
    """Reject an unknown mode, or a size-aware one without sizes."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
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
    miner's loop replays each read operation through this helper, so it
    stays byte-identical to :func:`operation_pairs`.
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


def _positions(order: Sequence[int] | np.ndarray) -> np.ndarray:
    """Permutation -> position array (``out[order[i]] = i``)."""
    order = np.asarray(order, dtype=np.int64)
    out = np.empty(len(order), dtype=np.int64)
    out[order] = np.arange(len(order))
    return out


def _orders(
    objects: Sequence[ObjectId], size: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each object's position in value, ``repr`` and ``(size, repr)`` order.

    These are the ranks :func:`_reduce_pairs` reads; ``objects`` must
    be totally ordered, with distinct reprs.
    """
    n = len(objects)
    reprs = list(map(repr, objects))
    by_repr = _positions(sorted(range(n), key=reprs.__getitem__))
    by_value = _positions(sorted(range(n), key=objects.__getitem__))
    return by_value, by_repr, _positions(np.lexsort((by_repr, size)))


def _reduce_pairs(
    mode: str,
    offsets: np.ndarray,
    owner: np.ndarray,
    codes: np.ndarray,
    by_value: np.ndarray,
    by_repr: np.ndarray,
    by_size: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Section 3.2 reduction of distinct operations, vectorized.

    Operation ``q`` holds the distinct codes
    ``codes[offsets[q]:offsets[q + 1]]``, every one of them known to a
    size-aware mode, and ``owner`` is each position's operation.
    ``by_value``, ``by_repr`` and ``by_size`` rank every code in value,
    ``repr`` and ``(size, repr)`` order, without ties.

    Returns each emitted pair's canonical codes ``(lo, hi)`` and the
    operation that emitted it, operation by operation in
    :func:`operation_pairs` order.
    """
    width = len(by_value)
    lengths = np.diff(offsets)
    if mode == "two_smallest":
        by_size_within = np.argsort(owner * width + by_size[codes])
        multi = lengths >= 2
        heads = offsets[:-1][multi]
        x, y = codes[by_size_within[heads]], codes[by_size_within[heads + 1]]
        owner = np.flatnonzero(multi)
    else:
        codes = codes[np.argsort(owner * width + by_repr[codes])]
        if mode == "union_largest":
            size = by_size[codes]
            nonempty = lengths > 0
            largest = np.maximum.reduceat(size, offsets[:-1][nonempty])
            top = size == np.repeat(largest, lengths[nonempty])
            x = np.repeat(codes[top], lengths[nonempty] - 1)
            y, owner = codes[~top], owner[~top]
        else:
            # Pair each position with every later one of its operation.
            later = offsets[1:][owner] - np.arange(len(owner)) - 1
            lead = np.repeat(np.arange(len(owner)), later)
            skip = np.arange(len(lead)) - np.repeat(later.cumsum() - later, later)
            x, y, owner = codes[lead], codes[lead + 1 + skip], owner[lead]
    swap = by_value[x] > by_value[y]
    return np.where(swap, y, x), np.where(swap, x, y), owner


def _probabilities(
    objects: Sequence[ObjectId],
    lo: np.ndarray,
    hi: np.ndarray,
    weights: np.ndarray,
    operations: int,
    min_support: int,
) -> PairProbabilities:
    """Sum each code pair's weights into a probability, in first-emission order.

    Totals are summed as float64, exact below 2**53.
    """
    width = len(objects)
    keys, first, inverse = np.unique(lo * width + hi, return_index=True, return_inverse=True)
    totals = np.bincount(inverse, weights=weights, minlength=len(keys))
    emitted = first.argsort()
    keys, totals = keys[emitted], totals[emitted].astype(np.int64)
    kept = totals >= min_support
    lo, hi = np.divmod(keys[kept], width)
    return {
        (objects[a], objects[b]): total / operations
        for a, b, total in zip(lo.tolist(), hi.tolist(), totals[kept].tolist())
    }


def _mine_trace(
    trace: Iterable[Operation],
    mode: str,
    sizes: Mapping[ObjectId, float] | None,
) -> tuple[list[tuple], tuple | None]:
    """Read ``trace`` once and reduce its distinct operations.

    The mode check runs before the first operation is read.  Equal
    operations are grouped in first-occurrence order and their ids
    interned, then :func:`_reduce_pairs` reduces each group once.

    The codes stand in for the ids exactly only when every id is a
    ``str`` or every id an ``int``: then equal ids are interchangeable
    and both orders are total.  Any other trace (bools, floats,
    ``np.str_``, tuples, mixes), or a size a float cannot hold exactly,
    is left to the per-operation loop.  The scan covers every operation,
    not only the distinct ones, since ``(True, 2)`` groups with
    ``(1, 2)``.

    Returns:
        The operations as tuples, and ``(objects, inverse, counts, lo,
        hi, owner)``: each code's object, each operation's group, each
        group's operation count, and the groups' pairs as
        :func:`_reduce_pairs` returns them; or ``None`` in place of
        that tuple when the loop must run.
    """
    _check_mode(mode, sizes)
    operations = list(map(tuple, trace))
    kinds = set(map(type, chain.from_iterable(operations)))
    if not (kinds <= {str} or kinds <= {int}):
        return operations, None
    distinct = list(dict.fromkeys(operations))
    group = dict(zip(distinct, range(len(distinct))))
    inverse = np.fromiter(map(group.__getitem__, operations), np.int64, len(operations))
    flat = list(chain.from_iterable(distinct))
    objects = list(dict.fromkeys(flat))
    code = dict(zip(objects, range(len(objects))))
    codes = np.fromiter(map(code.__getitem__, flat), np.int64, len(flat))
    owner = np.repeat(np.arange(len(distinct)), list(map(len, distinct)))
    n = len(objects)
    size = np.zeros(n)
    if mode != "cooccurrence":
        assert sizes is not None
        known = np.fromiter(map(sizes.__contains__, objects), bool, n)
        given = list(map(sizes.__getitem__, compress(objects, known)))
        try:
            exact = list(map(float, given))
        except (TypeError, ValueError, OverflowError):
            return operations, None
        if not all(map(operator.eq, exact, given)):  # NaN, or past float precision
            return operations, None
        size[known] = exact
        kept = known[codes]
        owner, codes = owner[kept], codes[kept]
    # One key per (group, object) sorts each group; repeats drop out.
    keys = np.sort(owner * n + codes)
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    owner, codes = np.divmod(keys[fresh], n)
    offsets = np.zeros(len(distinct) + 1, dtype=np.int64)
    np.bincount(owner, minlength=len(distinct)).cumsum(out=offsets[1:])
    lo, hi, owner = _reduce_pairs(mode, offsets, owner, codes, *_orders(objects, size))
    counts = np.bincount(inverse, minlength=len(distinct))
    return operations, (objects, inverse, counts, lo, hi, owner)


def _loop_pairs(
    operations: list[tuple], mode: str, sizes: Mapping[ObjectId, float] | None
) -> list[Pair]:
    """The per-operation loop's pair stream, for traces nothing else reduces."""
    return [
        pair
        for operation in operations
        for pair in _pairs_from_distinct(list(set(operation)), mode, sizes)
    ]


def _trace_pairs(
    trace: Iterable[Operation],
    mode: str,
    sizes: Mapping[ObjectId, float] | None,
) -> tuple[list[Pair], int]:
    """The trace's :func:`operation_pairs` stream, and its operation count.

    Every pair of every operation, duplicates kept, in trace order: the
    ingest of :class:`~repro.online.sketch.SketchCorrelationEstimator`.
    """
    operations, mined = _mine_trace(trace, mode, sizes)
    if mined is None:
        return _loop_pairs(operations, mode, sizes), len(operations)
    objects, inverse, counts, lo, hi, owner = mined
    # Each operation takes its group's run of pairs.
    runs = np.bincount(owner, minlength=len(counts))
    first, runs = (runs.cumsum() - runs)[inverse], runs[inverse]
    take = np.repeat(first - runs.cumsum() + runs, runs) + np.arange(runs.sum())
    lookup = objects.__getitem__
    pairs = list(zip(map(lookup, lo.tolist()), map(lookup, hi.tolist())))
    return list(map(pairs.__getitem__, take.tolist())), len(operations)


def _count_pairs(
    trace: Iterable[Operation],
    mode: str,
    sizes: Mapping[ObjectId, float] | None,
    min_support: int,
) -> PairProbabilities:
    """Count the mined pairs; ``trace`` may be a one-shot iterable.

    Values *and* dict insertion order equal one ``Counter.update`` of
    :func:`operation_pairs` per operation: a group's pairs weigh its
    operation count, and groups follow first occurrence.
    """
    operations, mined = _mine_trace(trace, mode, sizes)
    if mined is None:
        counts = Counter(_loop_pairs(operations, mode, sizes))
        return _finalize(counts, len(operations), min_support)
    objects, _, counts, lo, hi, owner = mined
    return _probabilities(objects, lo, hi, counts[owner], len(operations), min_support)


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
