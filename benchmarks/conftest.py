"""Shared fixtures for the benchmark suite.

All benchmarks share one session-scoped case study sized so the whole
suite finishes in minutes on a laptop (the paper's full-scale runs took
up to 48 hours of LP time; EXPERIMENTS.md maps the scales).  Sweep
results are cached in a session dict so the headline-range benchmark
can aggregate without re-running the expensive sweeps.

Option (used by the CI bench-smoke job): ``--metrics-json PATH``
collects ``repro.obs`` metrics over the whole session and writes a
JSON report to PATH.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.experiments.common import CaseStudy, CaseStudyConfig

BENCH_CONFIG = CaseStudyConfig(
    num_documents=800,
    vocabulary_size=2500,
    words_per_doc=90.0,
    membership_exponent=0.2,
    topic_size_range=(2, 5),
    num_queries=12_000,
    num_topics=250,
    topic_query_fraction=0.85,
    drift_fraction=0.02,
    min_support=2,
    seed=0,
)


@pytest.fixture(scope="session")
def study() -> CaseStudy:
    """The shared synthetic case study."""
    return CaseStudy.build(BENCH_CONFIG)


@pytest.fixture(scope="session")
def results_cache() -> dict:
    """Cross-module cache of expensive sweep results."""
    return {}


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help="write a repro.obs metrics report for the session to PATH",
    )


@pytest.fixture(scope="session", autouse=True)
def _session_metrics(request):
    """Instrument the whole session when --metrics-json is given."""
    path = request.config.getoption("--metrics-json")
    if path is None:
        yield
        return
    inst = obs.enable(obs.Instrumentation())
    try:
        yield
    finally:
        obs.disable()
        from repro.obs.export import to_json

        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_json(inst.metrics, inst.tracer) + "\n")
