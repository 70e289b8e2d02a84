"""Exporters: JSON document, Chrome trace, span tree.

Three consumers, three formats:

* :func:`to_json` — one machine-readable document per run, the
  ``--metrics-out`` payload (metrics summaries + full span forest) that
  ``repro trace`` reads back;
* :func:`to_chrome_trace` — the Chrome ``trace_event`` JSON that
  ``chrome://tracing`` and Perfetto load (the ``--trace-out``
  payload);
* :func:`render_span_tree` — a human-readable tree for the terminal,
  the ``--trace`` output.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.span import Span, Tracer


def metrics_to_dict(registry: MetricsRegistry) -> dict[str, Any]:
    """Metrics grouped by kind, histogram values summarized.

    Keys are instrument *keys* (name plus sorted labels), so two
    instruments sharing a name but not labels do not collide.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict[str, float]] = {}
    for instrument in registry:
        if isinstance(instrument, Counter):
            counters[instrument.key] = instrument.value
        elif isinstance(instrument, Gauge):
            gauges[instrument.key] = instrument.value
        elif isinstance(instrument, Histogram):
            histograms[instrument.key] = instrument.summary()
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


def to_json(
    registry: MetricsRegistry,
    tracer: Tracer | None = None,
    indent: int | None = 2,
) -> str:
    """The full run report as one JSON document."""
    document: dict[str, Any] = {"metrics": metrics_to_dict(registry)}
    if tracer is not None:
        document["spans"] = [root.to_dict() for root in tracer.roots]
    return json.dumps(document, indent=indent, sort_keys=False)


def to_chrome_trace(
    source: Tracer | Iterable[Span], indent: int | None = None
) -> str:
    """The span forest as Chrome ``trace_event`` JSON.

    Loads in ``chrome://tracing`` and https://ui.perfetto.dev.  Each
    span becomes one complete event (``ph: "X"``, microsecond ``ts`` /
    ``dur`` relative to the earliest span), all on one ``main`` track.
    """
    roots = list(source.roots) if isinstance(source, Tracer) else list(source)
    starts = [s.start_time for root in roots for s in root.walk()]
    origin = min(starts) if starts else 0.0

    events: list[dict[str, Any]] = []
    for root in roots:
        for span in root.walk():
            end = span.end_time if span.end_time is not None else span.start_time
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "pid": 0,
                    "tid": 0,
                    "ts": round((span.start_time - origin) * 1e6, 3),
                    "dur": round((end - span.start_time) * 1e6, 3),
                    "args": {
                        k: v for k, v in sorted(span.attributes.items())
                    },
                }
            )

    metadata: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "args": {"name": "repro"},
        }
    ]
    if events:
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "main"},
            }
        )
    document = {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
    }
    return json.dumps(document, indent=indent, sort_keys=False)


def _fmt_attr(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_span_tree(tracer: Tracer) -> str:
    """The span forest as an indented console tree."""
    lines: list[str] = []
    for root in tracer.roots:
        _render(root, "", "", lines)
    if not lines:
        return "(no spans recorded)"
    return "\n".join(lines)


def _render(span: Span, lead: str, child_lead: str, lines: list[str]) -> None:
    attrs = " ".join(
        f"{k}={_fmt_attr(v)}" for k, v in sorted(span.attributes.items())
    )
    label = f"{lead}{span.name}"
    timing = f"{span.duration * 1000:.1f}ms"
    line = f"{label:<48} {timing:>10}"
    if attrs:
        line += f"  {attrs}"
    lines.append(line)
    for i, child in enumerate(span.children):
        last = i == len(span.children) - 1
        branch = "└─ " if last else "├─ "
        extend = "   " if last else "│  "
        _render(child, child_lead + branch, child_lead + extend, lines)
