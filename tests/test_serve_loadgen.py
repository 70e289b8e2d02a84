"""Tests for deterministic load generation (repro.serve.loadgen) and the
loadgen CLI."""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.strategies import PlanConfig, plan
from repro.search.engine import build_placement_problem
from repro.search.query import QueryLog
from repro.serve import (
    LoadgenConfig,
    PlanSnapshot,
    ServeConfig,
    build_scenario,
    run_loadgen,
)

SMALL = dict(duration_s=1.0, qps=1500.0, seed=3)


def small_config(**overrides):
    params = dict(SMALL)
    params.update(overrides)
    return LoadgenConfig(**params)


class TestLoadgenDeterminism:
    def test_same_seed_is_byte_identical(self):
        first = run_loadgen(small_config())
        second = run_loadgen(small_config())
        assert first.to_json() == second.to_json()

    def test_different_seed_differs(self):
        first = run_loadgen(small_config())
        other = run_loadgen(small_config(seed=4))
        assert first.to_json() != other.to_json()


class TestLoadgenReport:
    @pytest.fixture(scope="class")
    def report(self):
        return run_loadgen(small_config())

    def test_conservation(self, report):
        assert report.completed + sum(report.shed.values()) == report.offered
        assert report.completed == report.admitted
        assert sum(report.queries_by_version.values()) == report.completed

    def test_hot_swaps_drop_nothing(self, report):
        assert report.swaps == 3
        assert report.dropped_in_flight == 0
        # Every published version served traffic, and a plan cost was
        # journaled for each.
        assert set(report.queries_by_version) == {1, 2, 3, 4}
        assert set(report.plan_costs) == {1, 2, 3, 4}

    def test_latency_percentiles_ordered(self, report):
        assert 0 < report.p50_ms <= report.p95_ms <= report.p99_ms
        assert report.makespan_s > 0
        assert report.throughput_qps > 0
        assert report.availability == 1.0

    def test_render_mentions_the_essentials(self, report):
        text = report.render()
        assert "plan swaps: 3" in text
        assert "in-flight dropped: 0" in text
        assert "p99" in text


def _batched_and_per_query(config):
    batched = run_loadgen(config)
    per_query = run_loadgen(replace(config, serve=ServeConfig(max_batch=1)))
    assert batched.mode == "batched"
    assert per_query.mode == "per_query"
    return batched, per_query


class TestBatchingThroughput:
    def test_batched_beats_per_query_dispatch(self):
        # This scenario is deliberately small, so just require an
        # unambiguous win at no latency cost; the full-size ratio is
        # pinned below.
        batched, per_query = _batched_and_per_query(small_config())
        assert batched.throughput_qps > 2.0 * per_query.throughput_qps
        assert batched.p99_ms <= per_query.p99_ms

    def test_full_size_batching_is_ten_times_per_query(self):
        # The acceptance scenario: 2 s at 6,000 qps.  Virtual time makes
        # both throughputs a pure function of the seed (4,255.1 vs
        # 327.7 qps at seed 0).
        batched, per_query = _batched_and_per_query(
            LoadgenConfig(duration_s=2.0, qps=6000.0, seed=0)
        )
        assert batched.throughput_qps >= 10.0 * per_query.throughput_qps
        assert batched.p99_ms <= per_query.p99_ms
        assert batched.dropped_in_flight == per_query.dropped_in_flight == 0
        assert batched.availability == 1.0


class TestStreamPlannerQuality:
    def test_post_shift_replan_within_1_5x_of_lprr(self):
        # The hot-swap planner on the post-shift half of the full-size
        # scenario's stream, against LPRR on the same co-occurrence
        # problem: 1,566.47 vs 1,440.02 (1.088x) at seed 0.
        config = LoadgenConfig(duration_s=2.0, qps=6000.0, seed=0)
        index, stream, _ = build_scenario(config)
        half = config.duration_s / 2.0
        window = QueryLog(
            timed.query for timed in stream if timed.time_s >= half
        )
        problem = build_placement_problem(
            index,
            window,
            config.node_capacities(float(index.total_bytes)),
            correlation_mode="cooccurrence",
        )
        plan_config = PlanConfig(seed=config.seed)
        lprr = plan(problem, "lprr", plan_config)
        greedy = plan(problem, "stream:greedy", plan_config)
        assert lprr.cost > 0
        assert greedy.cost <= 1.5 * lprr.cost


class TestBuildScenario:
    def test_stream_spans_both_halves(self):
        config = small_config()
        index, stream, warmup = build_scenario(config)
        assert len(index) > 0
        assert len(warmup) == config.warmup_queries
        times = [timed.time_s for timed in stream]
        assert times == sorted(times)
        half = config.duration_s / 2.0
        assert any(t < half for t in times)
        assert any(t >= half for t in times)

    def test_queries_only_use_indexed_words(self):
        # At seed 3 a one-document corpus misses 4 of 100 words.  A
        # query over a missed word has no postings to place, so planning
        # would reject it as an unknown object.
        config = small_config(vocabulary=100, documents=1)
        index, stream, warmup = build_scenario(config)
        indexed = set(index.vocabulary)
        assert len(indexed) < config.vocabulary
        queried = {w for timed in stream for w in timed.query.keywords}
        queried |= {w for query in warmup for w in query.keywords}
        assert queried <= indexed
        report = run_loadgen(config)
        assert report.completed + sum(report.shed.values()) == report.offered
        assert report.swaps == config.swaps


CLI_ARGS = [
    "loadgen",
    "--duration", "1.0",
    "--qps", "1500",
    "--seed", "3",
]


class TestLoadgenCli:
    def test_writes_report_and_renders(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        assert main([*CLI_ARGS, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.serve/v1"
        assert payload["dropped_in_flight"] == 0
        assert payload["swaps"] == 3
        stdout = capsys.readouterr().out
        assert "loadgen (batched)" in stdout

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        ja, jb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main([*CLI_ARGS, "--out", str(a), "--journal", str(ja)])
        main([*CLI_ARGS, "--out", str(b), "--journal", str(jb)])
        assert a.read_bytes() == b.read_bytes()
        assert ja.read_bytes() == jb.read_bytes()

    def test_journal_records_serve_events(self, tmp_path, capsys):
        journal = tmp_path / "serve.jsonl"
        main([*CLI_ARGS, "--journal", str(journal)])
        kinds = {
            json.loads(line)["kind"]
            for line in journal.read_text().splitlines()
        }
        assert {"serve.start", "serve.swap", "serve.batch", "serve.end"} <= kinds

    def test_per_query_mode_via_max_batch(self, capsys):
        assert main([*CLI_ARGS, "--max-batch", "1", "--qps", "300"]) == 0
        assert "loadgen (per_query)" in capsys.readouterr().out
