"""Inverted indices with 8-byte MD5 page IDs.

Matches the paper's implemented indices: "each item of an inverted
index contains an 8-byte page ID (the MD5 digest of the corresponding
page URL)", so a keyword's index size is ``8 * document_frequency``
bytes.  Postings are kept as sorted ``uint64`` arrays for fast
vectorized intersection.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping

import numpy as np

from repro.search.documents import Corpus

ITEM_BYTES = 8

# What ``postings`` returns for every unindexed word; read-only because
# all misses share it.
_NO_POSTINGS = np.empty(0, dtype=np.uint64)
_NO_POSTINGS.flags.writeable = False


def page_id(doc_id: str) -> int:
    """The 8-byte page ID of a document: truncated MD5 of its id/URL."""
    digest = hashlib.md5(doc_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:ITEM_BYTES], "big")


class InvertedIndex:
    """Keyword -> sorted array of page IDs, with byte-size accounting."""

    def __init__(self, postings: Mapping[str, np.ndarray] | None = None):
        self._postings: dict[str, np.ndarray] = {}
        if postings:
            for word, ids in postings.items():
                self._postings[word] = np.unique(np.asarray(ids, dtype=np.uint64))

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "InvertedIndex":
        """Index every distinct word of every document in ``corpus``."""
        lists: dict[str, list[int]] = {}
        for doc in corpus:
            pid = page_id(doc.doc_id)
            for word in doc.words:
                lists.setdefault(word, []).append(pid)
        index = cls()
        for word, ids in lists.items():
            index._postings[word] = np.unique(np.asarray(ids, dtype=np.uint64))
        return index

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
        """Sorted page-ID array for ``word`` (a shared read-only empty
        array if unindexed)."""
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

    def union(self, words: Iterable[str]) -> np.ndarray:
        """Pages containing any of the words (OR semantics)."""
        arrays = [self.postings(w) for w in dict.fromkeys(words)]
        arrays = [a for a in arrays if a.size]
        if not arrays:
            return np.empty(0, dtype=np.uint64)
        return np.unique(np.concatenate(arrays))

    def __repr__(self) -> str:
        return f"InvertedIndex(keywords={len(self)}, bytes={self.total_bytes})"
