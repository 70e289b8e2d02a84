"""Tests for documents and inverted indices (repro.search)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.documents import Corpus, Document
from repro.search.index import ITEM_BYTES, InvertedIndex, page_id


@pytest.fixture
def corpus():
    return Corpus(
        [
            Document("url/1", frozenset({"car", "dealer", "price"})),
            Document("url/2", frozenset({"car", "software"})),
            Document("url/3", frozenset({"software", "download"})),
            Document("url/4", frozenset({"car", "dealer"})),
        ]
    )


@pytest.fixture
def index(corpus):
    return InvertedIndex.from_corpus(corpus)


class TestDocuments:
    def test_from_text_tokenizes(self):
        doc = Document.from_text("u", "The Quick Fox quick")
        assert doc.words == frozenset({"quick", "fox"})

    def test_contains(self):
        doc = Document("u", frozenset({"a"}))
        assert doc.contains("a") and not doc.contains("b")

    def test_corpus_membership(self, corpus):
        assert "url/1" in corpus
        assert "url/9" not in corpus
        assert len(corpus) == 4

    def test_corpus_replace(self, corpus):
        corpus.add(Document("url/1", frozenset({"new"})))
        assert corpus.get("url/1").words == frozenset({"new"})
        assert len(corpus) == 4

    def test_vocabulary(self, corpus):
        assert corpus.vocabulary == {"car", "dealer", "price", "software", "download"}

    def test_document_frequency(self, corpus):
        assert corpus.document_frequency("car") == 3
        assert corpus.document_frequency("download") == 1
        assert corpus.document_frequency("missing") == 0

    def test_average_distinct_words(self, corpus):
        assert corpus.average_distinct_words() == pytest.approx((3 + 2 + 2 + 2) / 4)

    def test_empty_corpus_average(self):
        assert Corpus().average_distinct_words() == 0.0


class TestPageId:
    def test_deterministic(self):
        assert page_id("http://a.example/") == page_id("http://a.example/")

    def test_eight_bytes(self):
        assert 0 <= page_id("anything") < 2**64

    def test_distinct_urls_distinct_ids(self):
        ids = {page_id(f"url/{i}") for i in range(1000)}
        assert len(ids) == 1000  # 64-bit space: collisions essentially impossible


class TestInvertedIndex:
    def test_document_frequencies(self, index):
        assert index.document_frequency("car") == 3
        assert index.document_frequency("download") == 1
        assert index.document_frequency("missing") == 0

    def test_size_accounting(self, index):
        assert index.size_bytes("car") == 3 * ITEM_BYTES
        sizes = index.sizes_bytes()
        assert sizes["dealer"] == 2 * ITEM_BYTES
        assert index.total_bytes == sum(sizes.values())

    def test_postings_sorted_unique(self, index):
        postings = index.postings("car")
        assert postings.dtype == np.uint64
        assert np.all(np.diff(postings.astype(np.int64)) > 0)

    def test_postings_match_page_ids(self, index):
        expected = sorted(page_id(u) for u in ("url/1", "url/2", "url/4"))
        assert index.postings("car").tolist() == expected

    def test_vocabulary_sorted(self, index):
        assert index.vocabulary == sorted(index.vocabulary)
        assert "car" in index

    def test_intersect_two_words(self, index):
        result = index.intersect(["car", "dealer"])
        assert sorted(result.tolist()) == sorted(page_id(u) for u in ("url/1", "url/4"))

    def test_intersect_three_words(self, index):
        result = index.intersect(["car", "dealer", "price"])
        assert result.tolist() == [page_id("url/1")]

    def test_intersect_disjoint(self, index):
        assert index.intersect(["price", "download"]).size == 0

    def test_intersect_unknown_word_empty(self, index):
        assert index.intersect(["car", "zzz"]).size == 0

    def test_intersect_single_word(self, index):
        assert index.intersect(["download"]).tolist() == [page_id("url/3")]

    def test_intersect_empty_query(self, index):
        assert index.intersect([]).size == 0

    def test_union(self, index):
        result = index.union(["price", "download"])
        assert sorted(result.tolist()) == sorted(page_id(u) for u in ("url/1", "url/3"))

    def test_unindexed_word_gets_shared_read_only_empty_postings(self, index):
        miss = index.postings("zzz")
        assert miss.dtype == np.uint64 and miss.size == 0
        assert not miss.flags.writeable
        assert index.postings("qqq") is miss
        assert index.document_frequency("zzz") == 0
        assert index.size_bytes("zzz") == 0

    def test_explicit_postings_constructor(self):
        idx = InvertedIndex({"w": np.array([5, 3, 5], dtype=np.uint64)})
        assert idx.postings("w").tolist() == [3, 5]

    def test_duplicate_words_in_query_deduped(self, index):
        a = index.intersect(["car", "car", "dealer"])
        b = index.intersect(["car", "dealer"])
        assert a.tolist() == b.tolist()

    def test_postings_are_read_only(self):
        idx = InvertedIndex({"a": [3, 1, 2]})
        with pytest.raises(ValueError):
            idx.intersect(["a"])[0] = 99
        with pytest.raises(ValueError):
            idx.postings("a")[0] = 99
        assert idx.postings("a").tolist() == [1, 2, 3]
        assert idx.document_frequency("a") == 3

    def test_corpus_postings_are_read_only(self, index):
        assert not any(index.postings(w).flags.writeable for w in index.vocabulary)

    def test_prefix_counts(self, index):
        assert index.prefix_counts(["car", "dealer", "price"]) == [3, 2, 1]
        assert index.prefix_counts(["price", "download", "car"]) == [1, 0, 0]
        assert index.prefix_counts(["car", "zzz"]) == [3, 0]
        assert index.prefix_counts([]) == []

    def test_union_count(self, index):
        assert index.union_count(["price", "download"]) == 2
        assert index.union_count(["car", "dealer", "zzz"]) == 3
        assert index.union_count([]) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        postings=st.dictionaries(
            st.sampled_from([f"w{i}" for i in range(40)]),
            st.lists(st.integers(0, 30) | st.integers(0, 2**64 - 1), max_size=12),
            min_size=20,
        ),
        words=st.lists(st.sampled_from([f"w{i}" for i in range(40)] + ["z"]), max_size=6),
    )
    def test_counts_match_postings(self, postings, words):
        """Bitset counts equal the postings' own intersections and union,
        with empty postings and more words than one build chunk."""
        idx = InvertedIndex(postings)
        expected, result = [], None
        for word in words:
            ids = idx.postings(word)
            result = ids if result is None else np.intersect1d(result, ids)
            expected.append(int(result.size))
        assert idx.prefix_counts(words) == expected
        assert idx.union_count(words) == len(idx.union(words))


class TestIndexOrderAcrossHashSeeds:
    # Builds one generated corpus's index in a fresh interpreter per
    # string-hash seed.  Documents hold their words as a frozenset,
    # whose iteration order follows the seed.
    SCRIPT = """
from repro.search.index import InvertedIndex
from repro.workloads.corpus_gen import generate_corpus
corpus = generate_corpus(num_documents=150, vocabulary_size=300, seed=1)
print(list(InvertedIndex.from_corpus(corpus).sizes_bytes().items()))
"""

    @classmethod
    def _keys(cls, hash_seed: str) -> str:
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", cls.SCRIPT],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        return out.stdout

    def test_sizes_bytes_order_does_not_depend_on_the_hash_seed(self):
        first = self._keys("1")
        assert first.count("\n") == 1 and len(first) > 1000
        assert first == self._keys("2")
