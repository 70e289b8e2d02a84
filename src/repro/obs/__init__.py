"""repro.obs — spans, metrics, journal, and exportable run reports.

The observability layer for the LPRR pipeline: a nesting span tracer,
a metrics registry (counters, gauges, histograms with exact
percentiles), a bounded deterministic flight-recorder
journal, and exporters (JSON, Chrome ``trace_event``, console
tree).  Stdlib-only, thread-safe, and free
when disabled — instrumented code pays one global read per call site
until :func:`enable` is invoked.

Typical use::

    from repro import obs
    from repro.obs.export import render_span_tree, to_json

    inst = obs.enable(obs.Instrumentation(journal=obs.Journal()))
    result = LPRRPlanner(seed=0).plan(problem)
    print(render_span_tree(inst.tracer))
    print(to_json(inst.metrics, inst.tracer))
    inst.journal.write("run.jsonl")
    obs.disable()

See ``docs/OBSERVABILITY.md`` for the record schema, metric catalogue,
and span hierarchy.
"""

from repro.obs.export import (
    metrics_to_dict,
    render_span_tree,
    to_chrome_trace,
    to_json,
)
from repro.obs.journal import JOURNAL_SCHEMA, Journal, load_journal
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.runtime import (
    Instrumentation,
    counter,
    current,
    disable,
    enable,
    gauge,
    histogram,
    is_enabled,
    record,
    span,
    timed,
)
from repro.obs.span import Span, Tracer, span_from_payload

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "JOURNAL_SCHEMA",
    "Journal",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "counter",
    "current",
    "disable",
    "enable",
    "gauge",
    "histogram",
    "is_enabled",
    "load_journal",
    "metrics_to_dict",
    "record",
    "render_span_tree",
    "span",
    "span_from_payload",
    "timed",
    "to_chrome_trace",
    "to_json",
]
