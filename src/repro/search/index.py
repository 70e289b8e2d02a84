"""Inverted indices with 8-byte MD5 page IDs.

Matches the paper's implemented indices: "each item of an inverted
index contains an 8-byte page ID (the MD5 digest of the corresponding
page URL)", so a keyword's index size is ``8 * document_frequency``
bytes.  Postings are kept as sorted, read-only ``uint64`` arrays.
Intersection *sizes* — all that routing and replay accounting need —
are counted on per-word document bitsets instead (:meth:`prefix_counts`).
Replay compiles and the profile miner rank keywords through one
:class:`KeywordOrder` table per index.  Both the bitsets and the table
are built once, on first use.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from repro.core.correlation import _orders
from repro.search.documents import Corpus

ITEM_BYTES = 8

# What ``postings`` returns for every unindexed word; read-only because
# all misses share it.
_NO_POSTINGS = np.empty(0, dtype=np.uint64)
_NO_POSTINGS.flags.writeable = False

# Words whose postings are merged, ranked and packed per numpy call
# while the bitsets are built.  Small enough that every transient array
# is reused heap, so building at a serving process's memory peak does
# not raise it.
_BITSET_CHUNK = 16


class KeywordOrder(NamedTuple):
    """An index's keywords, ranked once for every compile and miner.

    Attributes:
        words: The indexed keywords in ``(df, word)`` order, the order
            the engine intersects a query's keywords in.
        rank: Keyword -> its position in ``words``.
        df: Each ranked keyword's document frequency.
        by_value: Each ranked keyword's position in ``str`` order.
        by_repr: Each ranked keyword's position in ``repr`` order.
        by_size: Each ranked keyword's position in ``(df, repr)`` order,
            the size order of the Section 3.2 miner.  It differs from
            ``rank`` only within a df tie, for words like ``a'b`` whose
            ``repr`` sorts apart from their ``str``.
    """

    words: tuple[str, ...]
    rank: dict[str, int]
    df: np.ndarray
    by_value: np.ndarray
    by_repr: np.ndarray
    by_size: np.ndarray


def page_id(doc_id: str) -> int:
    """The 8-byte page ID of a document: truncated MD5 of its id/URL."""
    digest = hashlib.md5(doc_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:ITEM_BYTES], "big")


class InvertedIndex:
    """Keyword -> sorted read-only array of page IDs, with byte-size
    accounting and bitset intersection counts."""

    def __init__(self, postings: Mapping[str, np.ndarray] | None = None):
        self._postings: dict[str, np.ndarray] = {}
        self._bitsets: dict[str, int] | None = None
        self._order: KeywordOrder | None = None
        if postings:
            for word, ids in postings.items():
                ids = np.unique(np.asarray(ids, dtype=np.uint64))
                ids.flags.writeable = False  # postings() hands it out
                self._postings[word] = ids

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "InvertedIndex":
        """Index every distinct word of every document in ``corpus``.

        Each document's words are inserted in sorted order, so the
        keyword order (and with it every problem built on the index)
        does not follow the iteration order of a ``frozenset`` of
        strings, which changes with ``PYTHONHASHSEED``.
        """
        lists: dict[str, list[int]] = {}
        for doc in corpus:
            pid = page_id(doc.doc_id)
            for word in sorted(doc.words):
                lists.setdefault(word, []).append(pid)
        return cls(lists)

    # ------------------------------------------------------------------
    # Content
    # ------------------------------------------------------------------
    @property
    def vocabulary(self) -> list[str]:
        """Indexed keywords, sorted."""
        return sorted(self._postings)

    def __len__(self) -> int:
        return len(self._postings)

    def __contains__(self, word: str) -> bool:
        return word in self._postings

    def postings(self, word: str) -> np.ndarray:
        """Sorted read-only page-ID array for ``word`` (a shared empty
        one if unindexed)."""
        return self._postings.get(word, _NO_POSTINGS)

    def document_frequency(self, word: str) -> int:
        """Number of pages containing ``word``."""
        ids = self._postings.get(word)
        return 0 if ids is None else len(ids)

    def size_bytes(self, word: str) -> int:
        """Index size of ``word``: 8 bytes per posting."""
        return ITEM_BYTES * self.document_frequency(word)

    def sizes_bytes(self) -> dict[str, int]:
        """Index sizes of every keyword, in bytes."""
        return {word: ITEM_BYTES * ids.size for word, ids in self._postings.items()}

    @property
    def total_bytes(self) -> int:
        """Total size of all keyword indices."""
        return ITEM_BYTES * sum(ids.size for ids in self._postings.values())

    # ------------------------------------------------------------------
    # Query evaluation
    # ------------------------------------------------------------------
    def intersect(self, words: Iterable[str]) -> np.ndarray:
        """Pages containing every word — the paper's AND semantics.

        Evaluates smallest-first, the standard order that also
        underlies the two-smallest cost approximation of Section 3.2.
        An unindexed word yields an empty result.
        """
        word_list = list(dict.fromkeys(words))
        if not word_list:
            return np.empty(0, dtype=np.uint64)
        lists = [self.postings(w) for w in word_list]
        lists.sort(key=len)
        result = lists[0]
        for other in lists[1:]:
            if result.size == 0:
                break
            result = np.intersect1d(result, other, assume_unique=True)
        return result

    def prefix_counts(self, words: Iterable[str]) -> list[int]:
        """``|w₀|, |w₀∩w₁|, …, |w₀∩…∩w_{n−1}|`` for ``words`` in order.

        The sizes a pipelined intersection ships, counted by a running
        ``&`` over per-word document bitsets and ``int.bit_count``; no
        postings array is touched.  An unindexed word empties the prefix.
        """
        bitsets = self._bitsets if self._bitsets is not None else self._build_bitsets()
        counts = []
        running = -1  # every document
        for word in words:
            running &= bitsets.get(word, 0)
            counts.append(running.bit_count())
        return counts

    def bitsets(self, words: Iterable[str]) -> list[int]:
        """Each word's document bitset (see :meth:`prefix_counts`); 0 if
        unindexed."""
        bitsets = self._bitsets if self._bitsets is not None else self._build_bitsets()
        return [bitsets.get(word, 0) for word in words]

    def union_count(self, words: Iterable[str]) -> int:
        """``|w₀∪…∪w_{n−1}|``, counted on the same bitsets."""
        bitsets = self._bitsets if self._bitsets is not None else self._build_bitsets()
        running = 0
        for word in words:
            running |= bitsets.get(word, 0)
        return running.bit_count()

    def _build_bitsets(self) -> dict[str, int]:
        """Each word's postings as a Python-int bitset over document ranks.

        Bit ``r`` is set when the word's postings hold the ``r``-th
        smallest page ID of the index; the bitsets take words ×
        documents / 8 bytes.  Built once, on first use.
        """
        words = list(self._postings)
        chunks = [words[k : k + _BITSET_CHUNK] for k in range(0, len(words), _BITSET_CHUNK)]
        documents = np.empty(0, dtype=np.uint64)
        for chunk in chunks:
            # Every postings array is a sorted run; a stable sort merges them.
            merged = np.concatenate([documents] + [self._postings[w] for w in chunk])
            merged.sort(kind="stable")
            fresh = np.ones(merged.size, dtype=bool)
            fresh[1:] = merged[1:] != merged[:-1]
            documents = merged[fresh]
        bitsets: dict[str, int] = {}
        for chunk in chunks:
            lengths = [self._postings[w].size for w in chunk]
            ranks = np.searchsorted(
                documents, np.concatenate([self._postings[w] for w in chunk])
            )
            rows = np.zeros((len(chunk), len(documents)), dtype=bool)
            rows[np.repeat(np.arange(len(chunk)), lengths), ranks] = True
            packed = np.packbits(rows, axis=1, bitorder="little")
            for word, row in zip(chunk, packed):
                bitsets[word] = int.from_bytes(row.tobytes(), "little")
        self._bitsets = bitsets
        return bitsets

    def keyword_order(self) -> KeywordOrder:
        """The keywords ranked by ``(df, word)``, with the miner's orders.

        Built once, on first use.
        """
        if self._order is None:
            words = sorted(self._postings, key=lambda w: (self._postings[w].size, w))
            df = np.array([self._postings[w].size for w in words], dtype=np.int64)
            self._order = KeywordOrder(
                tuple(words), {word: k for k, word in enumerate(words)}, df, *_orders(words, df)
            )
        return self._order

    def union(self, words: Iterable[str]) -> np.ndarray:
        """Pages containing any of the words (OR semantics)."""
        arrays = [self.postings(w) for w in dict.fromkeys(words)]
        arrays = [a for a in arrays if a.size]
        if not arrays:
            return np.empty(0, dtype=np.uint64)
        return np.unique(np.concatenate(arrays))

    def __repr__(self) -> str:
        return f"InvertedIndex(keywords={len(self)}, bytes={self.total_bytes})"
