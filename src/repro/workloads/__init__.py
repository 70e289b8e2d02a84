"""Synthetic workload generation.

The paper's evaluation is driven by a 3.7M-page ODP web crawl and
Ask.com query traces — both unavailable.  This subpackage generates
their statistical stand-ins: a Zipf-distributed synthetic corpus
(reproducing the index-size skew) and a topic-model query generator
producing skewed, temporally stable keyword-pair correlations
(reproducing Figure 2's skewness and stability properties).
"""

from repro.workloads.adapters import load_aol_query_log, split_log_by_fraction
from repro.workloads.corpus_gen import generate_corpus
from repro.workloads.query_gen import QueryWorkloadModel, generate_query_log
from repro.workloads.stream import TimedQuery, diurnal_rate, generate_stream
from repro.workloads.zipf import ZipfSampler, zipf_probabilities

__all__ = [
    "QueryWorkloadModel",
    "TimedQuery",
    "ZipfSampler",
    "diurnal_rate",
    "generate_corpus",
    "generate_query_log",
    "generate_stream",
    "load_aol_query_log",
    "split_log_by_fraction",
    "zipf_probabilities",
]
