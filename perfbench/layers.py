"""Self-time attribution of a traced pass to the repo's layers.

The benchmark opens ``bench.*`` spans around each public call it makes;
the program's own spans (``plan``, ``lp.solve``, ``online.period``, ...)
nest underneath.  A span's self time is its duration minus its
children's, so the self times of one span tree partition the root's
wall time exactly, and every row below sums to the traced pass.
"""

from __future__ import annotations

# Span name -> layer row.  A span not listed inherits its parent's row,
# so e.g. ``lprr.plan`` or ``lp`` under ``bench.plan`` count as plan
# overhead, and anything under ``lp.solve`` counts as the solve.
ROWS = {
    "bench.pass": "bench.loop_s",
    "bench.mine": "mine.s",
    "bench.plan": "plan.other_s",
    "plan.resilient": "plan.other_s",
    "plan": "plan.other_s",
    "lp.build": "plan.lp_build_s",
    "lp.solve": "plan.lp_solve_s",
    "rounding": "plan.rounding_s",
    "lprr.repair": "plan.repair_s",
    "bench.replay": "replay.s",
    "replay": "replay.s",
    "bench.period": "online.loop_s",
    "online.period": "online.ingest_s",
    "online.replan": "online.replan_s",
    "online.migrate": "online.migrate_s",
    "bench.drive": "serve.route_s",
    "bench.swap": "serve.publish_s",
    "bench.snapshot": "serve.snapshot_s",
}

# Every row is reported on every workload (zero where the layer is idle).
ALL_ROWS = sorted(set(ROWS.values()))


def attribute(roots) -> dict[str, float]:
    """Seconds of self time per row over the given span trees."""
    rows = dict.fromkeys(ALL_ROWS, 0.0)
    stack = [(root, ROWS.get(root.name, "bench.loop_s")) for root in roots]
    while stack:
        span, inherited = stack.pop()
        row = ROWS.get(span.name, inherited)
        rows[row] += span.duration - sum(child.duration for child in span.children)
        stack.extend((child, row) for child in span.children)
    return rows
