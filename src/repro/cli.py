"""Command-line interface.

Subcommands::

    repro gen-queries  — generate a synthetic query log file
    repro place        — compute a placement from a query log
    repro evaluate     — replay a query log against a placement
    repro analyze      — Figure-2 style skew and stability analysis of a log
    repro experiment   — regenerate a paper figure (fig2/fig5/fig6/fig7/all)
    repro chaos        — seeded fault-injection run with a degraded report
    repro online       — streaming control loop over a drifting query stream
    repro loadgen      — replay the drifting stream through the serving router
    repro pg           — plan a synthetic scenario through placement groups
    repro gap          — optimality gap of LPRR vs an exact reference
    repro trace        — analyze a journal or metrics artifact from a run

Instrumented subcommands accept ``--metrics-out PATH`` (machine-readable
run report), ``--trace`` (print the span tree), ``--trace-out PATH``
(Chrome/Perfetto ``trace_event`` JSON), and ``--journal PATH``
(deterministic flight-recorder JSONL, analyzed by ``repro trace``); see
``docs/OBSERVABILITY.md``.

Run ``repro <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from repro import obs
from repro.core.strategies import PlanConfig, PlanScope, available_planners, plan
from repro.exceptions import ReproError
from repro.experiments.common import CaseStudy, CaseStudyConfig
from repro.search.engine import (
    DistributedSearchEngine,
    EvaluationSummary,
    QueryProfile,
    build_placement_problem,
)
from repro.search.index import InvertedIndex
from repro.search.query import QueryLog
from repro.workloads.corpus_gen import generate_corpus
from repro.workloads.query_gen import QueryWorkloadModel


def _build_study(args: argparse.Namespace) -> CaseStudy:
    config = CaseStudyConfig(
        num_documents=args.documents,
        vocabulary_size=args.vocabulary,
        num_queries=args.queries,
        seed=args.seed,
    )
    return CaseStudy.build(config)


def _add_study_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--documents", type=int, default=1500, help="corpus size")
    parser.add_argument("--vocabulary", type=int, default=4000, help="vocabulary size")
    parser.add_argument("--queries", type=int, default=30000, help="trace length")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")


def _scope_from_args(args: argparse.Namespace) -> int | PlanScope | None:
    """Resolve ``--scope`` / ``--pg-groups`` / ``--pg-important`` to a scope.

    ``--pg-groups K`` switches planning to placement-group indirection
    (``PlanScope.pg``); otherwise the plain integer ``--scope`` keeps
    its historical exact-subproblem meaning.
    """
    groups = getattr(args, "pg_groups", None)
    if groups is not None:
        return PlanScope.pg(groups=groups, important=getattr(args, "pg_important", 0))
    return args.scope


def _add_pg_scope_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--pg-groups",
        type=int,
        default=None,
        metavar="K",
        help=(
            "plan through K placement groups instead of per-object "
            "(overrides --scope; see docs/SCALE.md)"
        ),
    )
    parser.add_argument(
        "--pg-important",
        type=int,
        default=0,
        metavar="M",
        help="with --pg-groups, keep the top-M objects exact",
    )


def _plan_config(args: argparse.Namespace) -> PlanConfig:
    return PlanConfig(scope=_scope_from_args(args), seed=args.seed)


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write a metrics/span report for this run to PATH",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the span tree of this run to stderr",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "write the span forest as Chrome trace_event JSON "
            "(loads in chrome://tracing and ui.perfetto.dev)"
        ),
    )
    parser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help=(
            "record control-loop decisions to a flight-recorder journal "
            "(JSONL; byte-identical across same-seed runs)"
        ),
    )


def cmd_gen_queries(args: argparse.Namespace) -> int:
    """Generate a synthetic query log and write it to a file."""
    vocabulary = [f"w{i:06d}" for i in range(args.vocabulary)]
    model = QueryWorkloadModel(vocabulary, num_topics=args.topics, seed=args.seed)
    log = model.generate(args.count, rng=args.seed)
    log.save(args.output)
    print(f"wrote {len(log)} queries (avg {log.average_keywords():.2f} keywords) to {args.output}")
    return 0


def cmd_place(args: argparse.Namespace) -> int:
    """Compute a placement for the keywords of a query log."""
    log = QueryLog.load(args.log)
    corpus = generate_corpus(args.documents, args.vocabulary, seed=args.seed)
    index = InvertedIndex.from_corpus(corpus)
    problem = build_placement_problem(index, log, args.nodes, min_support=args.min_support)

    result = plan(problem, args.strategy, _plan_config(args))
    placement = result.placement

    mapping = {str(obj): int(node) for obj, node in placement.to_mapping().items()}
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(mapping, fh, indent=0, sort_keys=True)
    print(
        f"placed {problem.num_objects} keyword indices on {args.nodes} nodes "
        f"with {args.strategy}; model cost {placement.communication_cost():.4g}; "
        f"wrote {args.output}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Replay a query log against a stored (or freshly planned) placement.

    With a placement file, replays the log against it.  Without one,
    plans a placement inline with ``--strategy`` first — the end-to-end
    path whose trace shows the nested lp/rounding/replay phases.
    """
    log = QueryLog.load(args.log)
    corpus = generate_corpus(args.documents, args.vocabulary, seed=args.seed)
    index = InvertedIndex.from_corpus(corpus)
    profile = QueryProfile(index, log)
    if args.placement is not None:
        with open(args.placement, encoding="utf-8") as fh:
            placement = {word: int(node) for word, node in json.load(fh).items()}
    else:
        problem = build_placement_problem(
            index, profile, args.nodes, min_support=args.min_support
        )
        placement = plan(problem, args.strategy, _plan_config(args)).placement
    engine = DistributedSearchEngine(index, placement)
    stats = engine.replay(profile)
    summary = EvaluationSummary.from_stats(stats)
    print(summary.render())
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Skewness/stability analysis of a query-log file (Figure 2 style)."""
    from repro.analysis.skewness import pair_probability_curve, skew_ratio
    from repro.analysis.stability import stability_report
    from repro.core.correlation import cooccurrence_correlations
    from repro.workloads.adapters import load_aol_query_log, split_log_by_fraction

    if args.format == "aol":
        log = load_aol_query_log(args.log, max_queries=args.max_queries)
    else:
        log = QueryLog.load(args.log)
        if args.max_queries is not None:
            log = QueryLog(list(log)[: args.max_queries])
    if len(log) < 2:
        print("log too small to analyze")
        return 1

    period1, period2 = split_log_by_fraction(log, 0.5)
    corr1 = cooccurrence_correlations(period1.operations())
    corr2 = cooccurrence_correlations(period2.operations())
    _, probs = pair_probability_curve(corr1, top_k=args.top_pairs)
    supported = cooccurrence_correlations(
        period1.operations(), min_support=args.min_count
    )
    report = stability_report(supported, corr2, top_k=args.top_pairs)

    print(f"queries: {len(log)} (avg {log.average_keywords():.2f} keywords)")
    print(f"distinct keywords: {len(log.vocabulary())}")
    if probs:
        print(
            f"skewness: top pair is {skew_ratio(probs):.1f}x pair "
            f"#{len(probs)} (paper: 177x at rank 1000)"
        )
    print(
        f"stability: {report.unstable_fraction:.1%} of {len(report.pairs)} "
        f"well-supported pairs changed >2x between halves (paper: 1.2%)"
    )
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Regenerate a paper figure."""
    # Imported here so the quick subcommands stay fast to start.
    from repro.experiments.fig2 import run_skewness_stability
    from repro.experiments.fig5 import run_dominance
    from repro.experiments.fig6 import ScopeSweepConfig, run_scope_sweep
    from repro.experiments.fig7 import NodeSweepConfig, run_node_sweep
    from repro.experiments.report import run_full_report

    study = _build_study(args)
    if args.figure == "all":
        report = run_full_report(
            study, node_counts=tuple(args.nodes or (10, 20, 40, 70, 100))
        )
        text = report.render()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"wrote report to {args.output}")
        else:
            print(text)
    elif args.figure == "fig2":
        print(run_skewness_stability(study).render())
    elif args.figure == "fig5":
        print(run_dominance(study).render())
    elif args.figure == "fig6":
        print(run_scope_sweep(study, ScopeSweepConfig()).render())
    elif args.figure == "fig7":
        config = NodeSweepConfig(node_counts=tuple(args.nodes or (10, 20, 40, 70, 100)))
        print(run_node_sweep(study, config).render())
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(args.figure)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a seeded fault-injection scenario end to end.

    Builds a synthetic problem and trace, draws a fault schedule, plans
    through the requested planner (default: the ``resilient`` fallback
    chain), serves the trace across the fault epochs with incremental
    repair, and prints the availability comparison.  The full
    :class:`~repro.resilience.degraded.DegradedReport` — a pure
    function of the seed and sizes, byte-identical across runs — goes
    to ``--out``.

    With ``--topology zones:Z,racks:K`` the run switches to domain
    mode: both sides are replicated under the same failure-domain
    spread constraints (optimized ``lprr:rep`` chain vs domain-aware
    hash), faults arrive as domain-correlated crash/heal events, and
    the exit code is nonzero when any object loses *all* replicas in
    some epoch (``data_loss``).
    """
    from repro.resilience import (
        ChaosConfig,
        FaultSchedule,
        run_chaos,
        synthetic_scenario,
    )

    topology = None
    if args.topology:
        from repro.cluster import parse_topology_spec

        topology = parse_topology_spec(args.topology, args.nodes)

    # Domain mode places R copies of every object, so the synthetic
    # capacity headroom must scale with the replica count to stay
    # feasible; legacy runs keep the historical factor (and their
    # byte-stable reports).
    capacity_factor = 2.0 * args.replicas if topology is not None else 2.0
    problem, operations = synthetic_scenario(
        num_objects=args.objects,
        num_nodes=args.nodes,
        num_operations=args.operations,
        seed=args.seed,
        capacity_factor=capacity_factor,
    )
    if topology is not None:
        schedule = FaultSchedule.random_domains(
            topology, len(operations), seed=args.seed, events=args.events
        )
    else:
        schedule = FaultSchedule.random(
            problem.num_nodes, len(operations), seed=args.seed, events=args.events
        )
    config = ChaosConfig(
        replicas=args.replicas,
        planner=args.strategy,
        plan_config=_plan_config(args),
        mode=args.mode,
        repair=not args.no_repair,
        topology=topology,
    )
    report = run_chaos(problem, operations, schedule, config, seed=args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote degraded report to {args.out}", file=sys.stderr)
    print(report.render())
    if report.data_loss and topology is not None:
        # Domain mode makes a durability promise (spread replicas);
        # losing every copy of an object breaks it loudly.  Legacy runs
        # keep exit 0 — their replicated side is an illustrative
        # comparison, and the flag still lands in the JSON report.
        print("chaos: DATA LOSS — an object lost all replicas", file=sys.stderr)
        return 1
    return 0


def cmd_online(args: argparse.Namespace) -> int:
    """Run the streaming control loop over a synthetic drifting stream.

    Generates a diurnal query stream whose topic popularity shifts
    halfway through, mines pair correlations with the memory-bounded
    sketch estimator, and drives
    :class:`~repro.online.controller.OnlinePlanner`: drift-triggered
    replans through the resilient fallback chain, migrations under a
    per-period byte budget.  The :class:`~repro.online.OnlineReport` —
    a pure function of the seeds, byte-identical across runs — goes to
    ``--out``.
    """
    from repro.online import DriftThresholds, OnlineConfig, OnlinePlanner
    from repro.workloads.stream import TimedQuery, generate_stream

    vocabulary = [f"w{i:06d}" for i in range(args.vocabulary)]
    model = QueryWorkloadModel(vocabulary, num_topics=args.topics, seed=args.seed)
    shifted = model.drifted(args.shift_fraction, seed=args.seed + 1)
    half = args.duration / 2.0
    stream = generate_stream(model, half, base_qps=args.qps, seed=args.seed)
    stream += [
        TimedQuery(timed.time_s + half, timed.query)
        for timed in generate_stream(
            shifted, half, base_qps=args.qps, seed=args.seed + 1
        )
    ]

    config = OnlineConfig(
        num_nodes=args.nodes,
        window_s=args.window,
        sketch_width=args.sketch_width,
        heavy_hitters=args.heavy_hitters,
        decay=args.decay,
        min_support=args.min_support,
        seed=args.seed,
        thresholds=DriftThresholds(churn=args.churn),
        budget_fraction=args.budget_fraction,
        planning=_plan_config(args),
    )
    planner = OnlinePlanner({word: 1.0 for word in vocabulary}, config)
    report = planner.run(stream)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote online report to {args.out}", file=sys.stderr)
    print(report.render())
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive the query router with the seeded diurnal drifting stream.

    Builds a synthetic serving scenario, replays the stream through the
    batching router on the deterministic virtual-time loop
    (:mod:`repro.serve.vtime`), replans mid-run with the configured
    planner tier and hot-swaps the plan ``--swaps`` times, then writes
    the :class:`~repro.serve.loadgen.ServeReport` — throughput, exact
    p50/p95/p99 latency, shed and swap accounting — as byte-reproducible
    JSON.  The CI serve-smoke job runs this twice and ``cmp``'s report
    and journal; see docs/SERVING.md.
    """
    from repro.serve import LoadgenConfig, ServeConfig, run_loadgen

    report = run_loadgen(
        LoadgenConfig(
            vocabulary=args.vocabulary,
            topics=args.topics,
            documents=args.documents,
            nodes=args.nodes,
            duration_s=args.duration,
            qps=args.qps,
            shift_fraction=args.shift_fraction,
            swaps=args.swaps,
            seed=args.seed,
            planner=args.planner,
            serve=ServeConfig(
                max_batch=args.max_batch,
                max_delay_s=args.max_delay,
                rate=args.rate,
                burst=args.burst,
                max_queue=args.max_queue,
            ),
        )
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote serve report to {args.out}", file=sys.stderr)
    print(report.render())
    return 0


def cmd_pg(args: argparse.Namespace) -> int:
    """Plan a synthetic scenario through placement-group indirection.

    Builds a seeded synthetic problem, plans it with ``lprr:pg``
    (:class:`~repro.core.strategies.PlanScope.pg` scope), and writes the
    resulting :class:`~repro.pg.PGMap` as sorted-key JSON.  The map and
    the ``--journal`` artifact are pure functions of the arguments —
    byte-identical across same-seed runs — which is what the CI pg-smoke
    job asserts with ``cmp``; see ``docs/SCALE.md``.
    """
    from repro.resilience import synthetic_scenario

    problem, _ = synthetic_scenario(
        num_objects=args.objects,
        num_nodes=args.nodes,
        num_operations=0,
        seed=args.seed,
    )
    config = PlanConfig(
        scope=PlanScope.pg(groups=args.groups, important=args.important),
        seed=args.seed,
    )
    result = plan(problem, "lprr:pg", config)
    diag = result.diagnostics
    print(
        f"planned {problem.num_objects} objects on {problem.num_nodes} nodes "
        f"through {diag['nonempty_groups']}/{diag['groups']} placement groups "
        f"(+{diag['important']} exact); model cost {result.cost:.6g}"
    )
    if args.out:
        payload = json.dumps(result.details.to_dict(), indent=2, sort_keys=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"wrote PG map to {args.out}", file=sys.stderr)
    return 0


def cmd_gap(args: argparse.Namespace) -> int:
    """Measure the LPRR optimality gap on small instances.

    Draws seeded small instances, solves each to proven optimality
    (the Figure 4 integer program under HiGHS MILP), plans the same
    instances with LPRR, and prints per-instance cost ratios.  The
    :class:`~repro.gap.GapReport` — a pure function of
    the seed, byte-identical across runs — goes to ``--out``.
    """
    from repro.gap import run_gap

    try:
        report = run_gap(
            seed=args.seed,
            instances=args.instances,
            objects=args.objects,
            nodes=args.nodes,
        )
    except (ValueError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote gap report to {args.out}", file=sys.stderr)
    print(report.render())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Analyze a journal or metrics artifact from an earlier run.

    Auto-detects the artifact: a ``--journal`` JSONL file yields the
    flight-recorder report (record counts, fallback summary,
    online/chaos roll-ups) and, with ``--period``, the replan-explain
    view; a ``--metrics-out`` JSON document yields per-phase time
    attribution and the critical path from its span forest.
    """
    from repro.obs.analytics import (
        explain_period,
        render_journal_report,
        render_trace_report,
        spans_from_document,
    )
    from repro.obs.journal import JOURNAL_SCHEMA, load_journal

    try:
        with open(args.path, encoding="utf-8") as fh:
            first_line = fh.readline()
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    try:
        probe = json.loads(first_line) if first_line.strip() else None
    except ValueError:
        probe = None

    if isinstance(probe, dict) and probe.get("schema") == JOURNAL_SCHEMA:
        try:
            records = load_journal(args.path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.period is not None:
            try:
                print(explain_period(records, args.period))
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        else:
            print(render_journal_report(records))
        return 0

    try:
        with open(args.path, encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot parse {args.path}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(document, dict) or "spans" not in document:
        print(
            f"error: {args.path} is neither a journal (JSONL with a "
            f"{JOURNAL_SCHEMA} header) nor a metrics document with spans",
            file=sys.stderr,
        )
        return 2
    if args.period is not None:
        print(
            "error: --period needs a journal artifact, not a metrics document",
            file=sys.stderr,
        )
        return 2
    print(render_trace_report(spans_from_document(document)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Correlation-aware object placement (ICDCS 2008 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-queries", help="generate a synthetic query log")
    p.add_argument("output", help="output file path")
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--vocabulary", type=int, default=4000)
    p.add_argument("--topics", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_queries)

    p = sub.add_parser("place", help="compute a keyword-index placement")
    p.add_argument("log", help="query log file")
    p.add_argument("output", help="placement JSON output path")
    p.add_argument("--strategy", choices=available_planners(), default="lprr")
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--scope", type=int, default=None, help="optimization scope")
    p.add_argument("--min-support", type=int, default=2)
    p.add_argument("--documents", type=int, default=1500)
    p.add_argument("--vocabulary", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    _add_pg_scope_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_place)

    p = sub.add_parser("evaluate", help="replay a query log against a placement")
    p.add_argument("log", help="query log file")
    p.add_argument(
        "placement",
        nargs="?",
        default=None,
        help="placement JSON from `repro place` (omit to plan inline)",
    )
    p.add_argument(
        "--strategy",
        choices=available_planners(),
        default="lprr",
        help="inline planning strategy when no placement file is given",
    )
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--scope", type=int, default=None, help="optimization scope")
    p.add_argument("--min-support", type=int, default=2)
    p.add_argument("--documents", type=int, default=1500)
    p.add_argument("--vocabulary", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    _add_pg_scope_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="Figure-2 style analysis of a query log")
    p.add_argument("log", help="query log file")
    p.add_argument("--format", choices=("plain", "aol"), default="plain")
    p.add_argument("--top-pairs", type=int, default=1000)
    p.add_argument("--min-count", type=int, default=10)
    p.add_argument("--max-queries", type=int, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("experiment", help="regenerate a paper figure")
    p.add_argument("figure", choices=("fig2", "fig5", "fig6", "fig7", "all"))
    p.add_argument("--nodes", type=int, nargs="*", help="node counts (fig7/all)")
    p.add_argument("--output", help="write the report to a file (all)")
    _add_study_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "chaos", help="seeded fault-injection run over a synthetic scenario"
    )
    p.add_argument("--objects", type=int, default=30, help="scenario objects")
    p.add_argument("--nodes", type=int, default=5, help="scenario nodes")
    p.add_argument("--operations", type=int, default=60, help="trace length")
    p.add_argument("--events", type=int, default=6, help="fault events to draw")
    p.add_argument("--replicas", type=int, default=2, help="copies per object")
    p.add_argument(
        "--strategy",
        choices=available_planners(),
        default="resilient",
        help="planner for the single-copy placement",
    )
    p.add_argument("--scope", type=int, default=None, help="optimization scope")
    _add_pg_scope_args(p)
    p.add_argument("--mode", choices=("intersection", "union"), default="intersection")
    p.add_argument("--seed", type=int, default=0, help="scenario + schedule seed")
    p.add_argument("--no-repair", action="store_true", help="skip incremental repair")
    p.add_argument(
        "--topology",
        metavar="SPEC",
        default=None,
        help=(
            "failure-domain spec 'zones:Z,racks:K' (racks per zone); "
            "switches to domain mode: replicated lprr:rep vs replicated "
            "hash under domain-correlated faults"
        ),
    )
    p.add_argument("--out", metavar="PATH", default=None, help="write report JSON")
    _add_obs_args(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "online", help="streaming control loop over a drifting query stream"
    )
    p.add_argument("--vocabulary", type=int, default=200, help="keyword universe")
    p.add_argument("--topics", type=int, default=30, help="workload topics")
    p.add_argument("--nodes", type=int, default=5, help="placement nodes")
    p.add_argument("--duration", type=float, default=3600.0, help="stream seconds")
    p.add_argument("--qps", type=float, default=1.0, help="mean arrival rate")
    p.add_argument("--window", type=float, default=600.0, help="period seconds")
    p.add_argument(
        "--shift-fraction",
        type=float,
        default=0.5,
        help="fraction of topics whose popularity shifts mid-stream",
    )
    p.add_argument("--sketch-width", type=int, default=512, help="Count-Min width")
    p.add_argument(
        "--heavy-hitters", type=int, default=128, help="Space-Saving capacity"
    )
    p.add_argument("--decay", type=float, default=0.7, help="per-period decay")
    p.add_argument("--min-support", type=int, default=1, help="pair support floor")
    p.add_argument("--churn", type=float, default=0.4, help="replan churn threshold")
    p.add_argument(
        "--budget-fraction",
        type=float,
        default=0.1,
        help="per-replan migration budget as a fraction of total size",
    )
    p.add_argument("--scope", type=int, default=None, help="optimization scope cap")
    _add_pg_scope_args(p)
    p.add_argument("--seed", type=int, default=0, help="stream + sketch seed")
    p.add_argument("--out", metavar="PATH", default=None, help="write report JSON")
    _add_obs_args(p)
    p.set_defaults(func=cmd_online)

    p = sub.add_parser(
        "loadgen",
        help="replay the drifting stream through the serving router",
    )
    p.add_argument(
        "--vocabulary", type=int, default=200, help="keyword universe"
    )
    p.add_argument("--topics", type=int, default=30, help="workload topics")
    p.add_argument(
        "--documents", type=int, default=400, help="corpus documents"
    )
    p.add_argument("--nodes", type=int, default=5, help="placement nodes")
    p.add_argument(
        "--duration", type=float, default=8.0, help="stream seconds"
    )
    p.add_argument(
        "--qps", type=float, default=6000.0, help="mean offered load"
    )
    p.add_argument(
        "--shift-fraction",
        type=float,
        default=0.6,
        help="fraction of topics whose popularity shifts mid-stream",
    )
    p.add_argument(
        "--swaps", type=int, default=3, help="mid-run plan hot-swaps"
    )
    p.add_argument(
        "--planner",
        default="stream:greedy",
        help="planner tier for the initial plan and every replan",
    )
    p.add_argument("--seed", type=int, default=0, help="scenario seed")
    p.add_argument(
        "--max-batch", type=int, default=32, help="router batch size cap"
    )
    p.add_argument(
        "--max-delay",
        type=float,
        default=0.005,
        help="router batching delay cap in seconds",
    )
    p.add_argument(
        "--rate",
        type=float,
        default=8000.0,
        help="admission token-bucket refill rate (queries/s)",
    )
    p.add_argument(
        "--burst",
        type=float,
        default=800.0,
        help="admission token-bucket burst capacity",
    )
    p.add_argument(
        "--max-queue", type=int, default=2048, help="router backlog cap"
    )
    p.add_argument(
        "--out", metavar="PATH", default=None, help="write serve report JSON"
    )
    _add_obs_args(p)
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "pg", help="plan a synthetic scenario through placement groups"
    )
    p.add_argument("--objects", type=int, default=100000, help="scenario objects")
    p.add_argument("--nodes", type=int, default=8, help="scenario nodes")
    p.add_argument("--groups", type=int, default=64, help="placement groups (K)")
    p.add_argument(
        "--important", type=int, default=64, help="top objects kept exact (M)"
    )
    p.add_argument("--seed", type=int, default=0, help="scenario seed")
    p.add_argument("--out", metavar="PATH", default=None, help="write PG map JSON")
    _add_obs_args(p)
    p.set_defaults(func=cmd_pg)

    p = sub.add_parser(
        "gap", help="optimality gap of LPRR vs an exact reference"
    )
    p.add_argument("--seed", type=int, default=0, help="instance seed")
    p.add_argument(
        "--instances", type=int, default=8, help="seeded instances to draw"
    )
    p.add_argument(
        "--objects", type=int, default=12,
        help="objects per instance (at most 64, the exact solver's guard)",
    )
    p.add_argument("--nodes", type=int, default=3, help="nodes per instance")
    p.add_argument("--out", metavar="PATH", default=None, help="write report JSON")
    _add_obs_args(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser(
        "trace", help="analyze a journal or metrics artifact from a run"
    )
    p.add_argument("path", help="journal JSONL (--journal) or metrics JSON (--metrics-out)")
    p.add_argument(
        "--period",
        type=int,
        default=None,
        metavar="N",
        help="explain one online period's decision (journal artifacts only)",
    )
    p.set_defaults(func=cmd_trace)
    return parser


def _write_artifact(path: str, payload: str, label: str) -> int:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"error: cannot write {label} to {path}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {label} to {path}", file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    journal_out = getattr(args, "journal", None)
    trace_out = getattr(args, "trace_out", None)
    instrumented = bool(
        getattr(args, "metrics_out", None)
        or getattr(args, "trace", False)
        or journal_out
        or trace_out
    )
    if not instrumented:
        return args.func(args)

    from repro.obs.export import render_span_tree, to_chrome_trace, to_json

    journal = obs.Journal() if journal_out else None
    inst = obs.enable(obs.Instrumentation(journal=journal))
    try:
        with obs.span(args.command):
            code = args.func(args)
    finally:
        obs.disable()
    if args.trace:
        print(render_span_tree(inst.tracer), file=sys.stderr)
    if args.metrics_out:
        payload = to_json(inst.metrics, inst.tracer) + "\n"
        code = _write_artifact(args.metrics_out, payload, "json metrics") or code
    if trace_out:
        code = (
            _write_artifact(
                trace_out, to_chrome_trace(inst.tracer) + "\n", "Chrome trace"
            )
            or code
        )
    if journal_out:
        assert journal is not None
        code = _write_artifact(journal_out, journal.to_jsonl(), "journal") or code
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Reports are routinely piped into head/less; a closed pipe is
        # not an error.  Detach stdout so interpreter shutdown does not
        # raise again while flushing it.
        sys.stdout = open(os.devnull, "w")
        sys.exit(0)
