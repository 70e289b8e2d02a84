"""Full-text search substrate: the paper's Section 4.1 prototype.

A complete, self-contained miniature of the evaluation system: HTML/text
tokenization with stopword removal, inverted indices whose postings are
8-byte MD5 page IDs, a query-log model, and a distributed search engine
that executes multi-keyword queries against placed indices while
accounting every byte of inter-node communication.
"""

from repro.search.docpartition import DocPartitionStats, DocumentPartitionedEngine
from repro.search.documents import Corpus, Document
from repro.search.engine import (
    DistributedSearchEngine,
    EngineStats,
    EvaluationSummary,
    QueryExecution,
    QueryProfile,
)
from repro.search.index import InvertedIndex, page_id
from repro.search.query import Query, QueryLog
from repro.search.replicated_engine import ReplicatedSearchEngine
from repro.search.simulation import LatencyReport, TimingModel, simulate_latencies
from repro.search.stopwords import STOPWORDS, is_stopword
from repro.search.tokenizer import strip_html, tokenize

__all__ = [
    "Corpus",
    "DistributedSearchEngine",
    "DocPartitionStats",
    "DocumentPartitionedEngine",
    "Document",
    "EngineStats",
    "EvaluationSummary",
    "InvertedIndex",
    "LatencyReport",
    "Query",
    "ReplicatedSearchEngine",
    "QueryExecution",
    "QueryLog",
    "QueryProfile",
    "STOPWORDS",
    "TimingModel",
    "is_stopword",
    "page_id",
    "simulate_latencies",
    "strip_html",
    "tokenize",
]
