"""Tests for queries and query logs (repro.search.query)."""

import pytest

from repro.exceptions import TraceFormatError
from repro.search.query import Query, QueryLog


class TestQuery:
    def test_parse_lowercases(self):
        q = Query.parse("Car DEALER")
        assert q.keywords == ("car", "dealer")

    def test_parse_keeps_stopwords(self):
        # Queries are user text; stopword removal happens at indexing.
        q = Query.parse("the matrix")
        assert "the" in q.keywords

    def test_distinct_keywords(self):
        q = Query(("a", "b", "a"))
        assert q.distinct_keywords == frozenset({"a", "b"})
        assert len(q) == 3

    def test_iteration(self):
        assert list(Query(("x", "y"))) == ["x", "y"]


class TestQueryLog:
    def test_append_wraps_sequences(self):
        log = QueryLog()
        log.append(["Car", "Dealer"])
        assert log[0].keywords == ("car", "dealer")

    def test_append_rejects_bare_string(self):
        # A str is a sequence too: it would become one keyword per char.
        with pytest.raises(TypeError, match="not keywords"):
            QueryLog(["ab"])

    def test_average_keywords(self):
        log = QueryLog([("a",), ("a", "b"), ("a", "b", "c")])
        assert log.average_keywords() == pytest.approx(2.0)

    def test_empty_log_statistics(self):
        log = QueryLog()
        assert log.average_keywords() == 0.0
        assert log.multi_keyword_fraction() == 0.0
        assert log.vocabulary() == set()

    def test_vocabulary(self):
        log = QueryLog([("a", "b"), ("b", "c")])
        assert log.vocabulary() == {"a", "b", "c"}

    def test_keyword_frequencies_count_queries_not_occurrences(self):
        log = QueryLog([("a", "a", "b"), ("a",)])
        freq = log.keyword_frequencies()
        assert freq["a"] == 2
        assert freq["b"] == 1

    def test_multi_keyword_fraction(self):
        log = QueryLog([("a",), ("a", "b"), ("c", "c")])
        # ("c", "c") has only one distinct keyword.
        assert log.multi_keyword_fraction() == pytest.approx(1 / 3)

    def test_operations_iterator(self):
        log = QueryLog([("a", "b")])
        assert list(log.operations()) == [("a", "b")]

    def test_restricted_to_vocabulary(self):
        log = QueryLog([("a", "zzz"), ("zzz",), ("b", "c")])
        restricted = log.restricted_to({"a", "b", "c"})
        assert len(restricted) == 2
        assert restricted[0].keywords == ("a",)

    def test_save_load_round_trip(self, tmp_path):
        log = QueryLog([("car", "dealer"), ("software",)])
        path = tmp_path / "queries.txt"
        log.save(path)
        loaded = QueryLog.load(path)
        assert [q.keywords for q in loaded] == [q.keywords for q in log]

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("car dealer\n\nsoftware\n")
        assert len(QueryLog.load(path)) == 2

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceFormatError, match="cannot read"):
            QueryLog.load(tmp_path / "nope.txt")

    def test_load_junk_line_raises(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("!!! ???\n")
        with pytest.raises(TraceFormatError, match="no parseable keywords"):
            QueryLog.load(path)

    def test_repr(self):
        log = QueryLog([("a", "b")])
        assert "queries=1" in repr(log)
