"""Trace and journal analytics: attribution, critical path, explain.

The read side of the observability pipeline.  The write side produces
two artifacts — a span forest (``--metrics-out`` JSON, with ``start``/
``end`` per span) and a flight-recorder journal (``--journal`` JSONL)
— and this module turns either into answers:

* :func:`phase_attribution` / :func:`critical_path` — where did the
  wall-clock go, and which chain of spans bounds the run.
* :func:`fallback_summary` — how often each planner step ran, failed,
  or was skipped.
* :func:`explain_period` — the "replan explain" view: for one online
  period, the drift verdict's inputs against its thresholds, the
  fallback attempts made, and the migration actually applied.

Everything here is pure over plain records/spans, so the ``repro
trace`` subcommand and tests share one implementation.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from typing import Any, Iterable, Sequence

from repro.obs.span import Span, span_from_payload


# ----------------------------------------------------------------------
# Span-side analytics (metrics documents / live tracers)
# ----------------------------------------------------------------------
def spans_from_document(document: dict) -> list[Span]:
    """Rebuild the span forest from a ``--metrics-out`` JSON document."""
    return [span_from_payload(payload) for payload in document.get("spans", ())]


def phase_attribution(roots: Iterable[Span]) -> list[dict[str, Any]]:
    """Per-span-name time attribution over a span forest.

    Returns one row per span name with ``count``, ``total_s``
    (wall-clock inside spans of that name, children included) and
    ``self_s`` (total minus time inside children — the name's own
    contribution), sorted by ``self_s`` descending.  ``self_s`` sums
    to the forest's wall-clock, so the table is a complete attribution
    rather than a list of overlapping totals.
    """
    rows: dict[str, dict[str, Any]] = {}
    for root in roots:
        for span in root.walk():
            row = rows.setdefault(
                span.name, {"name": span.name, "count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.duration - sum(
                child.duration for child in span.children
            )
    return sorted(rows.values(), key=lambda r: (-r["self_s"], r["name"]))


def critical_path(roots: Sequence[Span]) -> list[Span]:
    """The chain of longest spans from the longest root to a leaf.

    The greedy longest-child walk is the classic trace-viewer
    approximation of the critical path: at each level, descend into
    the child that consumed the most wall-clock.
    """
    if not roots:
        return []
    span = max(roots, key=lambda s: s.duration)
    path = [span]
    while span.children:
        span = max(span.children, key=lambda s: s.duration)
        path.append(span)
    return path


def render_trace_report(roots: Sequence[Span]) -> str:
    """Attribution table + critical path as terminal text."""
    if not roots:
        return "(no spans recorded)"
    wall = sum(root.duration for root in roots)
    lines = [
        f"phase attribution ({wall * 1000:.1f}ms total wall-clock):",
        f"  {'phase':<36} {'count':>6} {'total':>10} {'self':>10} {'self%':>6}",
    ]
    for row in phase_attribution(roots):
        pct = 100.0 * row["self_s"] / wall if wall > 0 else 0.0
        lines.append(
            f"  {row['name']:<36} {row['count']:>6} "
            f"{row['total_s'] * 1000:>8.1f}ms {row['self_s'] * 1000:>8.1f}ms "
            f"{pct:>5.1f}%"
        )
    lines.append("")
    lines.append("critical path:")
    for depth, span in enumerate(critical_path(roots)):
        lines.append(f"  {'  ' * depth}{span.name}  {span.duration * 1000:.1f}ms")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Journal-side analytics
# ----------------------------------------------------------------------
def fallback_summary(records: Iterable[dict]) -> dict[str, Any]:
    """Planner fallback-chain statistics from ``plan.*`` records."""
    attempts: TallyCounter = TallyCounter()
    delegates: TallyCounter = TallyCounter()
    degraded = 0
    chains = 0
    for record in records:
        kind = record.get("kind")
        if kind == "plan.attempt":
            attempts[(record.get("step", "?"), record.get("outcome", "?"))] += 1
        elif kind == "plan.fallback":
            chains += 1
            delegates[str(record.get("delegate"))] += 1
            if record.get("degraded"):
                degraded += 1
    return {
        "chains": chains,
        "degraded": degraded,
        "attempts": {
            f"{step}:{outcome}": count
            for (step, outcome), count in sorted(attempts.items())
        },
        "delegates": dict(sorted(delegates.items())),
    }


def online_periods(records: Iterable[dict]) -> list[dict]:
    """The ``online.period`` records, in journal order."""
    return [r for r in records if r.get("kind") == "online.period"]


def chaos_summary(records: Iterable[dict]) -> dict[str, Any] | None:
    """Fault/epoch/availability roll-up of a chaos run, if one ran."""
    faults: TallyCounter = TallyCounter()
    epochs = 0
    unserved = 0
    repaired = 0
    end: dict | None = None
    seen = False
    for record in records:
        kind = record.get("kind")
        if kind == "chaos.start":
            seen = True
        elif kind == "chaos.fault":
            faults[str(record.get("fault", "?"))] += 1
        elif kind == "chaos.epoch":
            epochs += 1
            unserved += int(record.get("unserved", 0))
            repaired += 1 if record.get("repaired") else 0
        elif kind == "chaos.end":
            end = record
    if not seen and not faults and end is None:
        return None
    summary: dict[str, Any] = {
        "faults": dict(sorted(faults.items())),
        "epochs": epochs,
        "unserved_operations": unserved,
        "repaired_epochs": repaired,
    }
    if end is not None:
        summary["availability_single"] = end.get("availability_single")
        summary["availability_replicated"] = end.get("availability_replicated")
        summary["repair_bytes"] = end.get("repair_bytes")
    return summary


def serve_summary(records: Iterable[dict]) -> dict[str, Any] | None:
    """Batch/swap/shed roll-up of a serving (loadgen) run, if one ran."""
    batches = 0
    queries = 0
    unique = 0
    by_version: TallyCounter = TallyCounter()
    shed: TallyCounter = TallyCounter()
    swaps: list[dict] = []
    end: dict | None = None
    seen = False
    for record in records:
        kind = record.get("kind")
        if kind == "serve.start":
            seen = True
        elif kind == "serve.batch":
            batches += 1
            queries += int(record.get("size", 0))
            unique += int(record.get("unique", 0))
            by_version[int(record.get("version", 0))] += int(
                record.get("size", 0)
            )
        elif kind == "serve.shed":
            shed[str(record.get("reason", "?"))] += 1
        elif kind == "serve.swap":
            swaps.append(record)
        elif kind == "serve.end":
            end = record
    if not seen and not batches and end is None:
        return None
    summary: dict[str, Any] = {
        "batches": batches,
        "batched_queries": queries,
        "unique_executions": unique,
        "queries_by_version": {str(k): v for k, v in sorted(by_version.items())},
        "shed": dict(sorted(shed.items())),
        "swaps": [
            {"version": s.get("version"), "planner": s.get("planner")}
            for s in swaps
        ],
    }
    if end is not None:
        summary["throughput_qps"] = end.get("throughput_qps")
        summary["p99_ms"] = end.get("p99_ms")
    return summary


def _attempts_for_period(records: Sequence[dict], period_seq: int) -> list[dict]:
    """``plan.attempt`` records belonging to one ``online.period``.

    Journal order is the logical clock: a period's planning records
    land between the previous ``online.period`` record and its own.
    """
    boundary = -1
    for record in records:
        if (
            record.get("kind") == "online.period"
            and record.get("seq", -1) < period_seq
        ):
            boundary = max(boundary, int(record["seq"]))
    return [
        r
        for r in records
        if r.get("kind") == "plan.attempt"
        and boundary < r.get("seq", -1) < period_seq
    ]


def explain_period(records: Sequence[dict], period: int) -> str:
    """The "replan explain" view for one online period.

    Reconstructs the decision from the journal alone: what the drift
    detector measured, which thresholds it crossed (pulled from the
    run's ``online.run.start`` record), which fallback attempts the
    planner made, and what migration was applied under what budget.

    Raises:
        ValueError: When the journal has no such period.
    """
    start = next(
        (r for r in records if r.get("kind") == "online.run.start"), None
    )
    target = next(
        (
            r
            for r in records
            if r.get("kind") == "online.period" and r.get("period") == period
        ),
        None,
    )
    if target is None:
        known = [r.get("period") for r in online_periods(records)]
        raise ValueError(
            f"no online.period record for period {period} "
            f"(journal covers periods {known[:1]}..{known[-1:]})"
            if known
            else f"no online.period records in this journal (period {period})"
        )

    action = target.get("action", "?")
    lines = [
        f"period {period} "
        f"[t={target.get('start_s', '?')}s..{target.get('end_s', '?')}s] "
        f"— action: {action}",
        f"  operations: {target.get('operations')}, "
        f"tracked pairs: {target.get('tracked_pairs')}",
    ]

    thresholds = (start or {}).get("thresholds", {})
    drift = target.get("drift")
    if drift is None:
        lines.append("  drift: not assessed (pre-bootstrap)")
    elif not drift.get("judged", True):
        lines.append(
            f"  drift: not judged — fewer than "
            f"{thresholds.get('min_operations', '?')} operations this period"
        )
    else:
        churn_limit = thresholds.get("churn")
        churn = drift.get("churn")
        verdict = ""
        if churn_limit is not None and churn is not None:
            verdict = " EXCEEDED" if churn > churn_limit else " ok"
        lines.append(
            f"  drift churn: {churn} (threshold {churn_limit}){verdict}"
        )
        inflation = drift.get("inflation")
        inflation_limit = thresholds.get("inflation")
        verdict = ""
        if inflation_limit is not None and inflation is not None:
            verdict = " EXCEEDED" if inflation > inflation_limit else " ok"
        lines.append(
            f"  drift inflation: {inflation} "
            f"(threshold {inflation_limit}){verdict}"
        )
        reasons = drift.get("reasons") or []
        lines.append(
            "  verdict: replan requested ("
            + ", ".join(reasons)
            + ")"
            if drift.get("replan")
            else "  verdict: stable, no replan"
        )

    attempts = _attempts_for_period(records, int(target.get("seq", -1)))
    if attempts:
        lines.append("  planner attempts:")
        for attempt in attempts:
            detail = attempt.get("detail") or ""
            suffix = f" ({detail})" if detail else ""
            lines.append(
                f"    {attempt.get('step'):<16} {attempt.get('outcome')}{suffix}"
            )
    if target.get("planner") is not None:
        lines.append(f"  chosen planner: {target['planner']}")
    if action in ("replan", "migrate"):
        lines.append(
            f"  migration: {target.get('moves')} moves, "
            f"{target.get('bytes_moved')} bytes "
            f"(budget {target.get('budget_bytes')})"
        )
    lines.append(f"  cost estimate after: {target.get('cost_estimate')}")
    return "\n".join(lines)


def render_journal_report(records: Sequence[dict]) -> str:
    """One-shot terminal report over a whole journal."""
    header = next(
        (r for r in records if r.get("kind") == "journal.header"), None
    )
    kinds: TallyCounter = TallyCounter(
        r.get("kind", "?") for r in records if r.get("kind") != "journal.header"
    )
    lines: list[str] = []
    if header is not None:
        dropped = header.get("dropped", 0)
        note = f" ({dropped} older records evicted)" if dropped else ""
        lines.append(
            f"journal: {header.get('records')} records, "
            f"schema {header.get('schema')}{note}"
        )
    lines.append("record kinds:")
    for kind, count in sorted(kinds.items()):
        lines.append(f"  {kind:<24} {count}")

    fallback = fallback_summary(records)
    if fallback["chains"]:
        lines.append("")
        lines.append(
            f"fallback chains: {fallback['chains']} "
            f"({fallback['degraded']} degraded)"
        )
        for step, count in fallback["attempts"].items():
            lines.append(f"  {step:<28} {count}")
        lines.append(
            "  delegates: "
            + ", ".join(f"{k}={v}" for k, v in fallback["delegates"].items())
        )

    chaos = chaos_summary(records)
    if chaos is not None:
        lines.append("")
        lines.append(
            f"chaos: {chaos['epochs']} epochs, "
            f"{chaos['unserved_operations']} unserved operations, "
            f"{chaos['repaired_epochs']} repaired epochs"
        )
        if chaos["faults"]:
            lines.append(
                "  faults: "
                + ", ".join(f"{k}={v}" for k, v in chaos["faults"].items())
            )
        if chaos.get("availability_single") is not None:
            lines.append(
                f"  availability: single {chaos['availability_single']}, "
                f"replicated {chaos['availability_replicated']}"
            )

    serve = serve_summary(records)
    if serve is not None:
        lines.append("")
        lines.append(
            f"serve: {serve['batches']} batches, "
            f"{serve['batched_queries']} queries "
            f"({serve['unique_executions']} unique executions)"
        )
        if serve["queries_by_version"]:
            lines.append(
                "  queries by plan version: "
                + ", ".join(
                    f"v{k}={v}" for k, v in serve["queries_by_version"].items()
                )
            )
        for swap in serve["swaps"]:
            lines.append(
                f"  swap -> version {swap['version']} "
                f"(planner {swap['planner']})"
            )
        if serve["shed"]:
            lines.append(
                "  shed: "
                + ", ".join(f"{k}={v}" for k, v in serve["shed"].items())
            )
        if serve.get("throughput_qps") is not None:
            lines.append(
                f"  throughput: {serve['throughput_qps']} qps, "
                f"p99 {serve['p99_ms']}ms"
            )

    periods = online_periods(records)
    if periods:
        actions: TallyCounter = TallyCounter(p.get("action") for p in periods)
        moved = sum(
            p.get("bytes_moved", 0.0)
            for p in periods
            if p.get("action") in ("replan", "migrate")
        )
        lines.append("")
        lines.append(
            f"online: {len(periods)} periods — "
            + ", ".join(f"{k}={v}" for k, v in sorted(actions.items()))
            + f"; {moved:g} bytes migrated"
        )
        eventful = [
            p for p in periods if p.get("action") in ("bootstrap", "replan", "migrate")
        ]
        for p in eventful:
            lines.append(
                f"  period {p.get('period'):>3} {p.get('action'):<10} "
                f"planner={p.get('planner')} moves={p.get('moves')} "
                f"bytes={p.get('bytes_moved')}"
            )

    return "\n".join(lines)
