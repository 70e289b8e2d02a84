"""Memory-bounded pair-frequency sketches.

The offline pipeline estimates ``r(i, j)`` with exact ``Counter``s —
O(#distinct pairs) memory, which a query stream over a large vocabulary
blows through quickly.  This module bounds that memory with two classic
streaming summaries, both seeded and fully deterministic:

* :class:`CountMinSketch` — a ``depth x width`` counter matrix with
  pairwise hashing (Cormode & Muthukrishnan).  Estimates never
  *under*-count; with total increment mass ``N`` each estimate
  overcounts by at most ``(e / width) * N`` with probability at least
  ``1 - e^-depth``.
* :class:`SpaceSavingPairs` — the Space-Saving heavy-hitter tracker
  (Metwally, Agrawal & El Abbadi) specialized for object pairs: at most
  ``capacity`` pairs are tracked, every pair with true count above
  ``N / capacity`` is guaranteed to be tracked, and each tracked count
  overcounts by at most its recorded ``error``.

:class:`SketchCorrelationEstimator` combines the two behind the
:class:`~repro.core.correlation.PairEstimator` protocol: Space-Saving
supplies *which* pairs are heavy, the Count-Min estimate tightens
*how* heavy, and the pair stream comes from the same miner as the
exact estimators' (:mod:`repro.core.correlation`).  Memory is
O(width x depth + capacity) cells regardless of stream length.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from itertools import repeat
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.correlation import (
    PairProbabilities,
    _add_ones,
    _check_mode,
    _trace_pairs,
)

ObjectId = Hashable
Operation = Sequence[ObjectId]
Pair = tuple[ObjectId, ObjectId]


class CountMinSketch:
    """A seeded, deterministic Count-Min sketch over hashable keys.

    Keys are hashed through BLAKE2b keyed with the seed, then spread
    over ``depth`` rows with the Kirsch-Mitzenmacher double-hashing
    construction — no reliance on Python's randomized ``hash()``, so
    the same (seed, stream) always produces the same cells.

    Args:
        width: Counters per row; the overcount bound is
            ``(e / width) * total``.
        depth: Independent rows; the bound holds with probability
            ``1 - e^-depth``.
        seed: Hash seed; sketches merge only when seeds (and shapes)
            match.
    """

    def __init__(self, width: int = 1024, depth: int = 4, seed: int = 0):
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be at least 1")
        self.width = int(width)
        self.depth = int(depth)
        self.seed = int(seed)
        self._cells = np.zeros((self.depth, self.width), dtype=float)
        self._total = 0.0
        self._key = hashlib.blake2b(
            str(self.seed).encode("utf-8"), digest_size=16
        ).digest()

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    def _cells_of(self, reprs: Iterable[str]) -> np.ndarray:
        """Each key's cell in every row, as ``(keys, depth)`` flat indices.

        Cells follow a key's ``repr``, so equal keys with other reprs
        (``1`` and ``True``, ``0.0`` and ``-0.0``) hash apart.  Each
        distinct repr is digested once; the digest's halves ``h1`` and
        ``h2`` put row ``r`` at column ``(h1 + r * (h2 | 1)) % width``,
        computed in uint64 as the congruent
        ``((h1 % w) + r * ((h2 | 1) % w)) % w``, whose terms stay below
        ``depth * width``.
        """
        distinct: dict[str, int] = {}
        inverse = [distinct.setdefault(text, len(distinct)) for text in reprs]
        # Copying a keyed hasher gives the keyed digest without paying
        # the key set-up per repr.
        keyed = hashlib.blake2b(digest_size=16, key=self._key)
        digests = bytearray()
        for text in distinct:
            hasher = keyed.copy()
            hasher.update(text.encode("utf-8"))
            digests += hasher.digest()
        halves = np.frombuffer(digests, dtype=">u8").astype(np.uint64).reshape(-1, 2)
        w = np.uint64(self.width)
        rows = np.arange(self.depth, dtype=np.uint64)
        cols = (halves[:, :1] % w + rows * ((halves[:, 1:] | np.uint64(1)) % w)) % w
        cells = (cols + rows * w).astype(np.intp)
        return cells[np.asarray(inverse, dtype=np.intp)]

    # ------------------------------------------------------------------
    # Updates and queries
    # ------------------------------------------------------------------
    def add(self, key: Hashable, count: float = 1.0) -> None:
        """Increment ``key`` by ``count`` (must be nonnegative)."""
        self.update_many((key,), (count,))

    def update_many(
        self,
        keys: Sequence[Hashable],
        counts: Sequence[float] | None = None,
    ) -> None:
        """Fold a batch of keys into the sketch in one vectorized pass.

        Byte-identical to calling :meth:`add` once per key in order:
        cell updates are applied with ``np.add.at`` in key-major,
        row-minor element order — the exact accumulation order of the
        sequential loop — and the running total accumulates one key at
        a time so floating-point association matches too.  A key
        repeated within the batch is hashed once (:meth:`_cells_of`).

        Args:
            keys: Keys to increment, in stream order.
            counts: Per-key nonnegative increments (default: 1 each).
        """
        self._scatter([repr(key) for key in keys], counts)

    def _scatter(self, reprs: list[str], counts: Sequence[float] | None = None) -> None:
        """:meth:`update_many` of the keys with these reprs."""
        if not reprs:
            return
        if counts is None:
            count_list = [1.0] * len(reprs)
        else:
            count_list = [float(c) for c in counts]
            if len(count_list) != len(reprs):
                raise ValueError("counts must match the number of keys")
            if not all(c >= 0 for c in count_list):
                raise ValueError("count must be nonnegative")
        np.add.at(
            self._cells.reshape(-1),
            self._cells_of(reprs).ravel(),
            np.repeat(np.asarray(count_list, dtype=float), self.depth),
        )
        if counts is None:
            self._total = _add_ones(self._total, len(reprs))
        else:
            total = self._total
            for c in count_list:
                total += c
            self._total = total

    def estimate(self, key: Hashable) -> float:
        """Point estimate for ``key``: never below the true count."""
        return self.estimate_many((key,))[0]

    def estimate_many(self, keys: Iterable[Hashable]) -> list[float]:
        """:meth:`estimate` of each key, in one vectorized lookup."""
        cells = self._cells_of(map(repr, keys))
        return self._cells.reshape(-1)[cells].min(axis=1).tolist()

    def scale(self, factor: float) -> None:
        """Multiply every cell by ``factor`` (exponential aging)."""
        if not 0.0 <= factor <= 1.0:
            raise ValueError("scale factor must be in [0, 1]")
        self._cells *= factor
        self._total *= factor

    # ------------------------------------------------------------------
    # Bounds and accounting
    # ------------------------------------------------------------------
    @property
    def total(self) -> float:
        """Total increment mass folded in (after any scaling)."""
        return self._total

    @property
    def num_cells(self) -> int:
        """Counter cells held — the sketch's entire state, O(width x depth)."""
        return self.width * self.depth

    @property
    def epsilon(self) -> float:
        """Relative overcount bound: estimate <= true + epsilon * total."""
        return math.e / self.width

    @property
    def delta(self) -> float:
        """Failure probability of the epsilon bound: ``e^-depth``."""
        return math.exp(-self.depth)


class SpaceSavingPairs:
    """Space-Saving heavy-hitter tracking specialized for object pairs.

    At most ``capacity`` pairs live in the summary at once.  When a new
    pair arrives at a full summary, the minimum-count entry is evicted
    and the newcomer inherits its count (recorded as ``error`` — the
    maximum possible overcount of the new entry).  Guarantees: every
    pair whose true count exceeds ``total / capacity`` is tracked, and
    ``count - error <= true count <= count`` for every tracked pair.

    Eviction ties break on the pair's ``repr``, then on insertion
    order, so runs are deterministic regardless of hash randomization.
    The victim comes off a lazy min-heap holding one
    ``(count at push, repr, insertion seq, pair)`` item per tracked
    pair: counts only grow between :meth:`scale` calls, so an item
    whose stored count is stale is re-pushed with the current count
    when it surfaces, and the first current item is the minimum.
    Eviction costs amortized O(log capacity) per pair.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self._entries: dict[Pair, list[float]] = {}  # pair -> [count, error]
        self._heap: list[tuple[float, str, int, Pair]] = []
        self._seq = 0
        self._total = 0.0
        self.max_tracked = 0
        self.evictions = 0

    def add(self, pair: Pair, count: float = 1.0) -> None:
        """Fold one observation of ``pair`` into the summary (the count
        must be finite and nonnegative)."""
        if not (count >= 0 and math.isfinite(count)):
            raise ValueError("count must be finite and nonnegative")
        self._fold((pair,), (count,))

    def _fold(
        self,
        pairs: Sequence[Pair],
        counts: Sequence[float] | None = None,
        reprs: Iterable[str] | None = None,
    ) -> None:
        """Fold ``pairs`` in order, as one :meth:`add` each.

        ``counts`` defaults to 1 per pair and must already be
        nonnegative; ``reprs``, each pair's ``repr``, is computed when
        not given.  The total grows one count at a time, and
        ``max_tracked`` is set once: a fold never shrinks the summary,
        so its largest size is its last.
        """
        entries, heap, capacity = self._entries, self._heap, self.capacity
        get, heappush, heapreplace = entries.get, heapq.heappush, heapq.heapreplace
        seq, evictions = self._seq, self.evictions
        for pair, count, text in zip(
            pairs,
            repeat(1.0) if counts is None else counts,
            map(repr, pairs) if reprs is None else reprs,
        ):
            entry = get(pair)
            if entry is not None:
                entry[0] += count
            elif len(entries) < capacity:
                entries[pair] = [count, 0.0]
                heappush(heap, (count, text, seq, pair))
                seq += 1
            else:
                while True:
                    stored, key, victim_seq, victim = heap[0]
                    floor = entries[victim][0]
                    if stored == floor:
                        break
                    heapreplace(heap, (floor, key, victim_seq, victim))
                del entries[victim]
                entries[pair] = [floor + count, floor]
                heapreplace(heap, (floor + count, text, seq, pair))
                seq += 1
                evictions += 1
        self._seq, self.evictions = seq, evictions
        if counts is None:
            self._total = _add_ones(self._total, len(pairs))
        else:
            total = self._total
            for count in counts:
                total += count
            self._total = total
        self.max_tracked = max(self.max_tracked, len(entries))

    def count(self, pair: Pair) -> float:
        """Tracked (over-)count of ``pair``; 0 when untracked."""
        entry = self._entries.get(pair)
        return float(entry[0]) if entry is not None else 0.0

    def error(self, pair: Pair) -> float:
        """Maximum overcount of ``pair``'s tracked count."""
        entry = self._entries.get(pair)
        return float(entry[1]) if entry is not None else 0.0

    def items(self) -> list[tuple[Pair, float, float]]:
        """Tracked ``(pair, count, error)`` rows, heaviest first.

        Ordering is total (count descending, then pair repr) so output
        is byte-stable across runs.
        """
        return sorted(
            ((pair, float(c), float(e)) for pair, (c, e) in self._entries.items()),
            key=lambda row: (-row[1], repr(row[0])),
        )

    def scale(self, factor: float) -> None:
        """Multiply every count and error by ``factor`` (aging)."""
        if not 0.0 <= factor <= 1.0:
            raise ValueError("scale factor must be in [0, 1]")
        if factor == 0.0:
            self._entries.clear()
            self._heap = []
            self._total = 0.0
            return
        for entry in self._entries.values():
            entry[0] *= factor
            entry[1] *= factor
        self._total *= factor
        # Rebuild at the current counts: rounding can make distinct
        # counts equal, so the old heap order need not hold.
        self._heap = [
            (self._entries[pair][0], key, seq, pair)
            for _stored, key, seq, pair in self._heap
        ]
        heapq.heapify(self._heap)

    @property
    def total(self) -> float:
        """Total observation mass folded in (after any scaling)."""
        return self._total

    def __len__(self) -> int:
        return len(self._entries)


class SketchCorrelationEstimator:
    """Memory-bounded :class:`~repro.core.correlation.PairEstimator`.

    Drop-in replacement for the exact
    :class:`~repro.core.correlation.CorrelationEstimator`: same modes,
    same pair stream, same ``correlations`` /
    ``top_pairs`` surface — but state is a Count-Min sketch plus a
    Space-Saving tracker, so memory stays O(width x depth + capacity)
    no matter how many distinct pairs the stream contains.  Reported
    counts are ``min(space-saving count, count-min estimate)``, the
    tighter of the two overestimates.

    Args:
        mode: Pair-reduction mode (see
            :attr:`CorrelationEstimator.MODES`).
        sizes: Object sizes (required for the size-aware modes).
        width: Count-Min row width.
        depth: Count-Min rows.
        heavy_hitters: Space-Saving capacity — the K of "top-K pairs".
        seed: Hash seed; fixes every estimate for a given stream.
    """

    def __init__(
        self,
        mode: str = "cooccurrence",
        sizes: Mapping[ObjectId, float] | None = None,
        width: int = 1024,
        depth: int = 4,
        heavy_hitters: int = 256,
        seed: int = 0,
    ):
        _check_mode(mode, sizes)
        self.mode = mode
        self.sizes = sizes
        self.sketch = CountMinSketch(width=width, depth=depth, seed=seed)
        self.heavy = SpaceSavingPairs(capacity=heavy_hitters)
        self._total_ops = 0.0

    # ------------------------------------------------------------------
    # PairEstimator protocol
    # ------------------------------------------------------------------
    @property
    def num_operations(self) -> int:
        """Operations observed so far (discounted after :meth:`decay`)."""
        return int(self._total_ops)

    def observe(self, operation: Operation) -> None:
        """Fold one operation into both summaries (a one-operation trace)."""
        self.observe_trace((operation,))

    def observe_trace(self, trace: Iterable[Operation]) -> int:
        """Fold a trace into both summaries in one pass; returns ops ingested.

        Both summaries see the :func:`~repro.core.correlation.operation_pairs`
        stream in trace order, the Count-Min through the vectorized
        :meth:`CountMinSketch.update_many` and the Space-Saving summary
        through one fold, and the operation total grows by one ``+= 1``
        per operation.  This is the ingest path the online controller
        drives once per period.
        """
        pairs, ops = _trace_pairs(trace, self.mode, self.sizes)
        reprs = [repr(pair) for pair in pairs]
        self.sketch._scatter(reprs)
        self.heavy._fold(pairs, reprs=reprs)
        self._total_ops = _add_ones(self._total_ops, ops)
        return ops

    def decay(self, factor: float) -> None:
        """Exponentially age both summaries and the operation total."""
        if not 0.0 <= factor <= 1.0:
            raise ValueError("decay factor must be in [0, 1]")
        self.sketch.scale(factor)
        self.heavy.scale(factor)
        self._total_ops *= factor

    def correlations(self, min_support: int = 1) -> PairProbabilities:
        """Probability estimates for the tracked heavy-hitter pairs.

        Only pairs in the Space-Saving summary are reported — the
        memory bound is the point — with each count tightened by the
        Count-Min estimate before normalization.
        """
        if self._total_ops <= 0:
            return {}
        rows = self.heavy.items()
        estimates = self.sketch.estimate_many([pair for pair, _count, _error in rows])
        result: PairProbabilities = {}
        for (pair, count, _error), estimate in zip(rows, estimates):
            tightened = min(count, estimate)
            if tightened >= min_support:
                result[pair] = tightened / self._total_ops
        return result

    def top_pairs(self, k: int) -> list[tuple[Pair, float]]:
        """The ``k`` most correlated tracked pairs, descending."""
        probs = self.correlations()
        return sorted(probs.items(), key=lambda item: (-item[1], repr(item[0])))[:k]

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    @property
    def memory_cells(self) -> int:
        """Bounded state size: sketch cells plus tracker capacity."""
        return self.sketch.num_cells + self.heavy.capacity

