"""Queries and query logs.

A query log is the workload driver of the paper's evaluation: 6.8M
web queries averaging 2.54 keywords each.  Logs are stored one query
per line, keywords whitespace-separated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.exceptions import TraceFormatError
from repro.search.tokenizer import tokenize


@dataclass(frozen=True)
class Query:
    """One search query: an ordered tuple of lowercase keywords."""

    keywords: tuple[str, ...]

    @classmethod
    def parse(cls, line: str) -> "Query":
        """Parse a whitespace-separated query line (lowercased)."""
        return cls(tuple(tokenize(line, remove_stopwords=False)))

    @property
    def distinct_keywords(self) -> frozenset[str]:
        """The distinct keywords of the query."""
        return frozenset(self.keywords)

    def __len__(self) -> int:
        return len(self.keywords)

    def __iter__(self) -> Iterator[str]:
        return iter(self.keywords)


def as_query(query: Query | Iterable[str]) -> Query:
    """``query`` as a :class:`Query`; keyword sequences are wrapped as is.

    Raises:
        TypeError: For a bare ``str``, which would otherwise split into
            one-character keywords.
    """
    if isinstance(query, Query):
        return query
    if isinstance(query, str):
        raise TypeError(f"query {query!r} is a str, not keywords")
    return Query(tuple(query))


class QueryLog:
    """An in-memory sequence of queries with summary statistics."""

    def __init__(self, queries: Iterable[Query | Sequence[str]] = ()):
        self._queries: list[Query] = []
        for q in queries:
            self.append(q)

    def append(self, query: Query | Sequence[str]) -> None:
        """Add a query (keyword sequences are wrapped; a ``str`` raises TypeError)."""
        if not isinstance(query, Query):
            query = Query(tuple(str(k).lower() for k in as_query(query)))
        self._queries.append(query)

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self._queries)

    def __getitem__(self, index: int) -> Query:
        return self._queries[index]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def average_keywords(self) -> float:
        """Mean keywords per query (the paper's trace averages 2.54)."""
        if not self._queries:
            return 0.0
        return sum(len(q) for q in self._queries) / len(self._queries)

    def vocabulary(self) -> set[str]:
        """Distinct keywords appearing anywhere in the log."""
        vocab: set[str] = set()
        for q in self._queries:
            vocab |= q.distinct_keywords
        return vocab

    def keyword_frequencies(self) -> Counter:
        """How many queries each keyword appears in."""
        counts: Counter = Counter()
        for q in self._queries:
            counts.update(q.distinct_keywords)
        return counts

    def multi_keyword_fraction(self) -> float:
        """Fraction of queries with at least two distinct keywords."""
        if not self._queries:
            return 0.0
        multi = sum(1 for q in self._queries if len(q.distinct_keywords) >= 2)
        return multi / len(self._queries)

    def operations(self) -> Iterator[tuple[str, ...]]:
        """Queries as plain keyword tuples (for correlation estimators)."""
        for q in self._queries:
            yield q.keywords

    def restricted_to(self, vocabulary: set[str]) -> "QueryLog":
        """A new log with out-of-vocabulary keywords dropped.

        Queries left with no keywords are removed entirely.
        """
        log = QueryLog()
        for q in self._queries:
            kept = tuple(k for k in q.keywords if k in vocabulary)
            if kept:
                log.append(Query(kept))
        return log

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the log, one whitespace-separated query per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for q in self._queries:
                fh.write(" ".join(q.keywords) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "QueryLog":
        """Read a log written by :meth:`save`.

        Raises:
            TraceFormatError: When the file cannot be read or a line
                contains no parseable keywords but is non-empty junk.
        """
        log = cls()
        try:
            with open(path, encoding="utf-8") as fh:
                for line_no, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    query = Query.parse(line)
                    if not query.keywords:
                        raise TraceFormatError(
                            f"{path}:{line_no}: no parseable keywords in {line!r}"
                        )
                    log.append(query)
        except OSError as exc:
            raise TraceFormatError(f"cannot read query log {path}: {exc}") from exc
        return log

    def __repr__(self) -> str:
        return f"QueryLog(queries={len(self)}, avg_keywords={self.average_keywords():.2f})"
