"""Flight recorder, journal analytics, and the ``repro trace`` CLI."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.analytics import (
    _attempts_for_period,
    chaos_summary,
    explain_period,
    fallback_summary,
    online_periods,
    render_journal_report,
    serve_summary,
)
from repro.obs.journal import JOURNAL_SCHEMA, Journal, load_journal


@pytest.fixture(autouse=True)
def _no_ambient_instrumentation():
    """Isolate each test from any session-wide instrumentation."""
    previous = obs.current()
    obs.disable()
    yield
    if previous is not None:
        obs.enable(previous)
    else:
        obs.disable()


class TestJournal:
    def test_records_are_stamped_in_order(self):
        journal = Journal()
        journal.record("a.one", value=1)
        journal.record("a.two", value=2)
        records = journal.records()
        assert [r["seq"] for r in records] == [0, 1]
        assert [r["kind"] for r in records] == ["a.one", "a.two"]

    def test_record_cap_evicts_oldest_first(self):
        journal = Journal(max_records=3)
        for i in range(10):
            journal.record("tick", i=i)
        assert len(journal) == 3
        assert journal.dropped == 7
        assert [r["i"] for r in journal.records()] == [7, 8, 9]
        # the logical clock keeps advancing across evictions
        assert journal.records()[-1]["seq"] == 9

    def test_byte_cap_evicts_but_keeps_latest(self):
        journal = Journal(max_bytes=200)
        for i in range(50):
            journal.record("tick", payload="x" * 40)
        assert journal.total_bytes <= 200
        assert journal.dropped > 0
        assert len(journal) >= 1  # the newest record always survives

    def test_oversized_single_record_survives(self):
        journal = Journal(max_bytes=10)
        journal.record("huge", payload="y" * 1000)
        assert len(journal) == 1

    def test_unencodable_record_fails_at_call_site(self):
        journal = Journal()
        with pytest.raises(TypeError):
            journal.record("bad", payload=object())
        assert len(journal) == 0 or journal.records()[-1]["kind"] != "bad"

    def test_header_reports_retention(self):
        journal = Journal(max_records=2)
        for i in range(5):
            journal.record("tick", i=i)
        header = journal.header()
        assert header["schema"] == JOURNAL_SCHEMA
        assert header["kind"] == "journal.header"
        assert header["records"] == 2
        assert header["dropped"] == 3

    def test_to_jsonl_is_deterministic_and_header_first(self):
        def build():
            journal = Journal()
            journal.record("b", zebra=1, alpha=2)
            journal.record("a", value=0.5)
            return journal.to_jsonl()

        text = build()
        assert text == build()
        first = json.loads(text.splitlines()[0])
        assert first["kind"] == "journal.header"
        # canonical encoding: sorted keys, no spaces
        assert '"alpha":2,"kind":"b"' in text

    def test_reset_restarts_the_logical_clock(self):
        journal = Journal()
        journal.record("x")
        journal.reset()
        assert len(journal) == 0
        assert journal.record("y")["seq"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Journal(max_records=0)
        with pytest.raises(ValueError):
            Journal(max_bytes=0)
        Journal(max_bytes=None)  # byte cap is optional

    def test_write_and_load_round_trip(self, tmp_path):
        journal = Journal()
        journal.record("one", t=0.5)
        journal.record("two", nested={"a": [1, 2]})
        path = tmp_path / "journal.jsonl"
        journal.write(path)
        records = load_journal(path)
        assert records[0]["kind"] == "journal.header"
        assert records[1:] == journal.records()

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"kind":"ok"}\nnot json\n')
        with pytest.raises(ValueError, match="not valid JSON"):
            load_journal(path)

    def test_load_rejects_non_object_lines(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text("[1,2,3]\n")
        with pytest.raises(ValueError, match="must be objects"):
            load_journal(path)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            '{"kind":"journal.header","schema":"repro.journal/v99"}\n'
        )
        with pytest.raises(ValueError, match="unsupported journal schema"):
            load_journal(path)


class TestRecordHelper:
    def test_noop_when_disabled(self):
        assert obs.record("anything", value=1) is None

    def test_noop_without_a_journal(self):
        obs.enable(obs.Instrumentation())
        assert obs.record("anything", value=1) is None

    def test_routes_to_the_active_journal(self):
        journal = Journal()
        obs.enable(obs.Instrumentation(journal=journal))
        stored = obs.record("event", value=1)
        assert stored["seq"] == 0
        assert journal.records("event") == [stored]

    def test_planning_populates_the_journal(self):
        from repro.core.problem import PlacementProblem
        from repro.core.strategies import plan

        problem = PlacementProblem.build(
            objects={"a": 2.0, "b": 2.0, "c": 2.0, "d": 2.0},
            nodes={0: 5.0, 1: 5.0},
            correlations={("a", "b"): 0.4, ("c", "d"): 0.4},
        )
        journal = Journal()
        obs.enable(obs.Instrumentation(journal=journal))
        plan(problem, "greedy")
        results = journal.records("plan.result")
        assert len(results) == 1
        assert results[0]["planner"] == "greedy"
        assert isinstance(results[0]["feasible"], bool)
        assert isinstance(results[0]["cost"], float)


def _synthetic_online_journal() -> list[dict]:
    """A hand-built journal covering the analytics code paths."""
    journal = Journal()
    journal.record(
        "online.run.start",
        nodes=4,
        window_s=300.0,
        seed=3,
        thresholds={
            "churn": 0.4,
            "inflation": 1.25,
            "top_k": 32,
            "min_operations": 20,
        },
        budget_fraction=0.1,
        memory_cells=512,
    )
    journal.record(
        "online.period",
        t=0.0,
        period=0,
        start_s=0.0,
        end_s=300.0,
        operations=5,
        tracked_pairs=12,
        action="observe",
        drift=None,
        planner=None,
        moves=0,
        bytes_moved=0.0,
        budget_bytes=None,
        cost_estimate=10.0,
    )
    journal.record("plan.attempt", step="lp", outcome="failed", detail="infeasible")
    journal.record("plan.attempt", step="greedy", outcome="ok", detail=None)
    journal.record(
        "plan.fallback", delegate="greedy", degraded=True, chain=[]
    )
    journal.record(
        "online.period",
        t=300.0,
        period=1,
        start_s=300.0,
        end_s=600.0,
        operations=80,
        tracked_pairs=30,
        action="replan",
        drift={
            "replan": True,
            "judged": True,
            "churn": 0.638,
            "cost_now": 25.0,
            "cost_reference": 10.0,
            "inflation": 2.5,
            "reasons": ["churn", "inflation"],
        },
        planner="greedy",
        moves=6,
        bytes_moved=6.0,
        budget_bytes=8.0,
        cost_estimate=12.0,
    )
    return [journal.header()] + journal.records()


class TestAnalytics:
    def test_fallback_summary(self):
        records = _synthetic_online_journal()
        summary = fallback_summary(records)
        assert summary["chains"] == 1
        assert summary["degraded"] == 1
        assert summary["attempts"] == {"greedy:ok": 1, "lp:failed": 1}
        assert summary["delegates"] == {"greedy": 1}

    def test_online_periods_in_order(self):
        periods = online_periods(_synthetic_online_journal())
        assert [p["period"] for p in periods] == [0, 1]

    def test_chaos_summary_absent_without_chaos_records(self):
        assert chaos_summary(_synthetic_online_journal()) is None

    def test_chaos_summary_rolls_up(self):
        journal = Journal()
        journal.record("chaos.start", operations=100, events=2)
        journal.record("chaos.fault", t=1.0, epoch=0, fault="crash", nodes=[1])
        journal.record("chaos.epoch", t=1.0, epoch=0, down=[1], unserved=4, repaired=True)
        journal.record(
            "chaos.end",
            epochs=1,
            availability_single=0.96,
            availability_replicated=1.0,
            repair_moves=3,
            repair_bytes=3.0,
        )
        summary = chaos_summary(journal.records())
        assert summary["faults"] == {"crash": 1}
        assert summary["unserved_operations"] == 4
        assert summary["repaired_epochs"] == 1
        assert summary["availability_replicated"] == 1.0

    def test_serve_summary_absent_without_serve_records(self):
        assert serve_summary(_synthetic_online_journal()) is None

    def test_serve_summary_rolls_up(self):
        journal = Journal()
        journal.record("serve.start", mode="batched", seed=0, queries=8)
        journal.record("serve.batch", seq=0, size=3, unique=2, version=1)
        journal.record("serve.shed", reason="throttled")
        journal.record("serve.swap", version=2, planner="stream:greedy")
        journal.record("serve.batch", seq=1, size=5, unique=4, version=2)
        journal.record(
            "serve.end",
            mode="batched",
            completed=8,
            shed=1,
            swaps=1,
            throughput_qps=123.456,
            p99_ms=9.876,
        )
        summary = serve_summary(journal.records())
        assert summary["batches"] == 2
        assert summary["batched_queries"] == 8
        assert summary["unique_executions"] == 6
        assert summary["queries_by_version"] == {"1": 3, "2": 5}
        assert summary["shed"] == {"throttled": 1}
        assert summary["swaps"] == [
            {"version": 2, "planner": "stream:greedy"}
        ]
        assert summary["throughput_qps"] == 123.456
        assert summary["p99_ms"] == 9.876

        text = render_journal_report(journal.records())
        assert "serve: 2 batches, 8 queries (6 unique executions)" in text
        assert "queries by plan version: v1=3, v2=5" in text
        assert "swap -> version 2 (planner stream:greedy)" in text
        assert "shed: throttled=1" in text
        assert "throughput: 123.456 qps, p99 9.876ms" in text

    def test_attempts_attach_to_the_following_period(self):
        records = _synthetic_online_journal()
        target = next(
            r for r in records if r.get("kind") == "online.period" and r["period"] == 1
        )
        attempts = _attempts_for_period(records, target["seq"])
        assert [a["step"] for a in attempts] == ["lp", "greedy"]
        first = next(
            r for r in records if r.get("kind") == "online.period" and r["period"] == 0
        )
        assert _attempts_for_period(records, first["seq"]) == []

    def test_explain_period_renders_the_decision(self):
        text = explain_period(_synthetic_online_journal(), 1)
        assert "action: replan" in text
        assert "drift churn: 0.638 (threshold 0.4) EXCEEDED" in text
        assert "drift inflation: 2.5 (threshold 1.25) EXCEEDED" in text
        assert "replan requested (churn, inflation)" in text
        assert "lp" in text and "failed (infeasible)" in text
        assert "migration: 6 moves, 6.0 bytes (budget 8.0)" in text

    def test_explain_period_pre_bootstrap(self):
        text = explain_period(_synthetic_online_journal(), 0)
        assert "drift: not assessed (pre-bootstrap)" in text

    def test_explain_unknown_period_raises(self):
        with pytest.raises(ValueError, match="no online.period record"):
            explain_period(_synthetic_online_journal(), 99)

    def test_render_journal_report_sections(self):
        text = render_journal_report(_synthetic_online_journal())
        assert f"schema {JOURNAL_SCHEMA}" in text
        assert "record kinds:" in text
        assert "fallback chains: 1 (1 degraded)" in text
        assert "online: 2 periods" in text
        assert "period   1 replan" in text


class TestTraceCLI:
    ONLINE = [
        "online",
        "--vocabulary", "120",
        "--topics", "15",
        "--duration", "1200",
        "--window", "300",
        "--qps", "0.5",
        "--seed", "3",
    ]

    def test_journal_byte_identical_across_runs(self, tmp_path, capsys):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        assert main(self.ONLINE + ["--journal", str(first)]) == 0
        assert main(self.ONLINE + ["--journal", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        records = load_journal(first)
        kinds = {r["kind"] for r in records}
        assert {"online.run.start", "online.period", "online.run.end"} <= kinds

    def test_trace_reports_on_a_real_journal(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        main(self.ONLINE + ["--journal", str(path)])
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "record kinds:" in out
        assert "online:" in out

    def test_trace_explains_a_period(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        main(self.ONLINE + ["--journal", str(path)])
        periods = online_periods(load_journal(path))
        capsys.readouterr()
        assert main(["trace", str(path), "--period", str(periods[0]["period"])]) == 0
        out = capsys.readouterr().out
        assert f"period {periods[0]['period']}" in out
        assert "operations:" in out

    def test_trace_reads_metrics_documents(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        main(
            [
                "gen-queries", str(tmp_path / "q.txt"),
                "--count", "200", "--vocabulary", "100", "--seed", "1",
            ]
        )
        main(
            [
                "place", str(tmp_path / "q.txt"), str(tmp_path / "p.json"),
                "--strategy", "greedy", "--metrics-out", str(path),
            ]
        )
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "phase attribution" in out
        assert "critical path:" in out

    def test_trace_period_rejects_metrics_documents(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        path.write_text('{"spans": []}')
        assert main(["trace", str(path), "--period", "0"]) == 2
        assert "--period needs a journal" in capsys.readouterr().err

    def test_trace_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_trace_unrecognized_artifact(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}')
        assert main(["trace", str(path)]) == 2
        assert "neither a journal" in capsys.readouterr().err

    def test_chrome_trace_export_from_cli(self, tmp_path, capsys):
        main(
            [
                "gen-queries", str(tmp_path / "q.txt"),
                "--count", "200", "--vocabulary", "100", "--seed", "1",
            ]
        )
        trace_path = tmp_path / "chrome.json"
        main(
            [
                "place", str(tmp_path / "q.txt"), str(tmp_path / "p.json"),
                "--strategy", "greedy", "--trace-out", str(trace_path),
            ]
        )
        doc = json.loads(trace_path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "place" in names
