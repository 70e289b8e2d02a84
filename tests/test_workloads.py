"""Tests for workload generation (repro.workloads)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlation import cooccurrence_correlations
from repro.workloads.corpus_gen import generate_corpus, word_name
from repro.workloads.query_gen import (
    LENGTH_DISTRIBUTION,
    QueryWorkloadModel,
    generate_query_log,
)
from repro.workloads.zipf import ZipfSampler, zipf_probabilities


class TestZipf:
    def test_probabilities_normalized(self):
        p = zipf_probabilities(100, 1.0)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(np.diff(p) <= 0)

    def test_zero_exponent_uniform(self):
        p = zipf_probabilities(4, 0.0)
        assert np.allclose(p, 0.25)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0)
        with pytest.raises(ValueError):
            zipf_probabilities(5, -1.0)

    def test_sampler_respects_skew(self):
        sampler = ZipfSampler(50, 1.2, rng=0)
        draws = sampler.sample(20_000)
        counts = np.bincount(draws, minlength=50)
        assert counts[0] > counts[10] > counts[40]

    def test_sampler_range(self):
        sampler = ZipfSampler(10, 1.0, rng=1)
        draws = sampler.sample(1000)
        assert draws.min() >= 0 and draws.max() < 10

    def test_single_draw_is_int(self):
        sampler = ZipfSampler(10, 1.0, rng=2)
        assert isinstance(sampler.sample(), int)

    def test_sample_distinct(self):
        sampler = ZipfSampler(20, 1.0, rng=3)
        picks = sampler.sample_distinct(10)
        assert len(set(picks.tolist())) == 10

    def test_sample_distinct_full_support(self):
        sampler = ZipfSampler(5, 1.0, rng=4)
        picks = sampler.sample_distinct(5)
        assert sorted(picks.tolist()) == list(range(5))

    def test_sample_distinct_too_many(self):
        with pytest.raises(ValueError):
            ZipfSampler(3, 1.0, rng=0).sample_distinct(4)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 200), a=st.floats(0.0, 2.5))
    def test_property_probabilities_valid(self, n, a):
        p = zipf_probabilities(n, a)
        assert p.shape == (n,)
        assert np.all(p > 0)
        assert p.sum() == pytest.approx(1.0)


class TestCorpusGeneration:
    def test_basic_shape(self):
        corpus = generate_corpus(50, 200, words_per_doc=30, seed=0)
        assert len(corpus) == 50
        assert corpus.average_distinct_words() == pytest.approx(30, rel=0.3)

    def test_word_names_canonical(self):
        assert word_name(7) == "w000007"

    def test_vocabulary_within_bounds(self):
        corpus = generate_corpus(30, 100, words_per_doc=20, seed=1)
        for doc in corpus:
            for word in doc.words:
                assert 0 <= int(word[1:]) < 100

    def test_popular_words_more_frequent(self):
        corpus = generate_corpus(200, 500, words_per_doc=25, zipf_exponent=1.0, seed=2)
        df_top = corpus.document_frequency(word_name(0))
        df_tail = corpus.document_frequency(word_name(400))
        assert df_top > df_tail

    def test_deterministic_given_seed(self):
        a = generate_corpus(20, 50, words_per_doc=10, seed=7)
        b = generate_corpus(20, 50, words_per_doc=10, seed=7)
        for doc_a, doc_b in zip(a, b):
            assert doc_a.words == doc_b.words

    def test_empty_corpus(self):
        assert len(generate_corpus(0, 10, seed=0)) == 0

    def test_negative_documents_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus(-1, 10)


class TestQueryGeneration:
    VOCAB = [f"w{i:03d}" for i in range(300)]

    def test_length_distribution_mean(self):
        expected = float(np.dot(np.arange(1, 7), LENGTH_DISTRIBUTION))
        assert expected == pytest.approx(2.54, abs=0.05)

    def test_generated_log_statistics(self):
        log = generate_query_log(self.VOCAB, 4000, num_topics=40, seed=0)
        assert len(log) == 4000
        assert log.average_keywords() == pytest.approx(2.54, abs=0.15)

    def test_queries_use_vocabulary(self):
        log = generate_query_log(self.VOCAB, 200, num_topics=20, seed=1)
        assert log.vocabulary() <= set(self.VOCAB)

    def test_no_duplicate_keywords_within_query(self):
        log = generate_query_log(self.VOCAB, 500, num_topics=20, seed=2)
        for q in log:
            assert len(set(q.keywords)) == len(q.keywords)

    def test_pair_correlations_are_skewed(self):
        model = QueryWorkloadModel(self.VOCAB, num_topics=50, seed=0)
        log = model.generate(20_000, rng=0)
        corr = cooccurrence_correlations(log.operations())
        probs = sorted(corr.values(), reverse=True)
        # Top pair should dominate the 200th pair by a large factor.
        assert probs[0] / probs[min(199, len(probs) - 1)] > 5

    def test_deterministic_given_seed(self):
        model = QueryWorkloadModel(self.VOCAB, num_topics=20, seed=3)
        a = model.generate(100, rng=5)
        b = model.generate(100, rng=5)
        assert [q.keywords for q in a] == [q.keywords for q in b]

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            QueryWorkloadModel([])
        with pytest.raises(ValueError, match="topic_size_range"):
            QueryWorkloadModel(self.VOCAB, topic_size_range=(1, 3))
        with pytest.raises(ValueError, match="topic_size_range"):
            QueryWorkloadModel(self.VOCAB, topic_size_range=(4, 2))


class TestDrift:
    VOCAB = [f"w{i:03d}" for i in range(200)]

    def test_drifted_model_shares_topics(self):
        model = QueryWorkloadModel(self.VOCAB, num_topics=30, seed=0)
        drifted = model.drifted(0.1, seed=1)
        assert all(
            a.keywords == b.keywords for a, b in zip(model.topics, drifted.topics)
        )

    def test_zero_drift_keeps_popularity_close(self):
        model = QueryWorkloadModel(self.VOCAB, num_topics=30, seed=0)
        drifted = model.drifted(0.0, seed=1)
        for a, b in zip(model.topics, drifted.topics):
            assert 0.5 < b.popularity / a.popularity < 2.0

    def test_full_drift_changes_popularity(self):
        model = QueryWorkloadModel(self.VOCAB, num_topics=30, seed=0)
        drifted = model.drifted(1.0, seed=1)
        ratios = [b.popularity / a.popularity for a, b in zip(model.topics, drifted.topics)]
        assert all(r < 0.5 or r > 2.0 for r in ratios)

    def test_invalid_fraction(self):
        model = QueryWorkloadModel(self.VOCAB, num_topics=5, seed=0)
        with pytest.raises(ValueError):
            model.drifted(1.5)

