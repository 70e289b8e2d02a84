"""Tests for the command-line interface (repro.cli)."""

import argparse
import json

import pytest

from repro import cli
from repro.cli import build_parser, main


@pytest.fixture
def query_log_file(tmp_path):
    path = tmp_path / "queries.txt"
    main(
        [
            "gen-queries",
            str(path),
            "--count",
            "300",
            "--vocabulary",
            "150",
            "--topics",
            "20",
            "--seed",
            "1",
        ]
    )
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_strategy_choices_enforced(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["place", "log", "out", "--strategy", "magic"]
            )

    def test_docstring_lists_every_subcommand(self):
        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert subparsers.choices
        for name in subparsers.choices:
            assert f"repro {name} " in cli.__doc__, name


class TestGenQueries:
    def test_writes_log(self, query_log_file, capsys):
        assert query_log_file.exists()
        lines = query_log_file.read_text().strip().splitlines()
        assert len(lines) == 300

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["--count", "50", "--vocabulary", "100", "--seed", "3"]
        main(["gen-queries", str(a), *args])
        main(["gen-queries", str(b), *args])
        assert a.read_text() == b.read_text()


class TestPlaceAndEvaluate:
    COMMON = ["--documents", "150", "--vocabulary", "300", "--seed", "1"]

    def test_place_hash_writes_json(self, query_log_file, tmp_path, capsys):
        out = tmp_path / "placement.json"
        code = main(
            [
                "place",
                str(query_log_file),
                str(out),
                "--strategy",
                "hash",
                "--nodes",
                "4",
                *self.COMMON,
            ]
        )
        assert code == 0
        mapping = json.loads(out.read_text())
        assert mapping
        assert all(0 <= node < 4 for node in mapping.values())
        assert "placed" in capsys.readouterr().out

    def test_place_lprr_beats_hash_cost(self, query_log_file, tmp_path, capsys):
        hash_out = tmp_path / "hash.json"
        lprr_out = tmp_path / "lprr.json"
        for strategy, path in (("hash", hash_out), ("lprr", lprr_out)):
            main(
                [
                    "place",
                    str(query_log_file),
                    str(path),
                    "--strategy",
                    strategy,
                    "--nodes",
                    "4",
                    "--scope",
                    "60",
                    *self.COMMON,
                ]
            )
        text = capsys.readouterr().out
        costs = [
            float(line.split("model cost ")[1].split(";")[0])
            for line in text.splitlines()
            if "model cost" in line
        ]
        assert costs[1] <= costs[0]

    def test_evaluate_reports_bytes(self, query_log_file, tmp_path, capsys):
        out = tmp_path / "placement.json"
        main(
            [
                "place",
                str(query_log_file),
                str(out),
                "--strategy",
                "greedy",
                "--nodes",
                "4",
                *self.COMMON,
            ]
        )
        capsys.readouterr()
        code = main(["evaluate", str(query_log_file), str(out), *self.COMMON])
        assert code == 0
        text = capsys.readouterr().out
        assert "bytes moved" in text
        assert "local" in text


class TestMetricsRoundTrip:
    COMMON = ["--documents", "150", "--vocabulary", "300", "--seed", "1"]
    FLAGS = ["--nodes", "4", "--scope", "40", *COMMON]

    def test_evaluate_metrics_out_matches_summary(
        self, query_log_file, tmp_path, capsys
    ):
        """End-to-end: inline-planned evaluate emits a JSON report whose
        query-count and bytes metrics match the printed summary."""
        metrics_path = tmp_path / "m.json"
        code = main(
            [
                "evaluate",
                str(query_log_file),
                *self.FLAGS,
                "--metrics-out",
                str(metrics_path),
                "--trace",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        # "replayed N queries: B bytes moved, ..."
        replayed = next(l for l in captured.out.splitlines() if "replayed" in l)
        queries = int(replayed.split("replayed ")[1].split(" queries")[0])
        total_bytes = int(replayed.split("queries: ")[1].split(" bytes")[0])

        doc = json.loads(metrics_path.read_text())
        counters = doc["metrics"]["counters"]
        assert counters["engine.queries"] == queries
        assert counters["engine.bytes"] == total_bytes
        bytes_hist = doc["metrics"]["histograms"]["engine.query.bytes"]
        assert bytes_hist["count"] == queries
        assert bytes_hist["sum"] == total_bytes
        # The full pipeline ran, so planning metrics are present too.
        assert doc["metrics"]["histograms"]["planner.plan_seconds"]["count"] >= 1
        assert doc["metrics"]["histograms"]["rounding.trial_cost"]["count"] >= 1

        def names(span):
            yield span["name"]
            for child in span["children"]:
                yield from names(child)

        (root,) = doc["spans"]
        spanned = set(names(root))
        assert root["name"] == "evaluate"
        assert {"lprr.plan", "lp.pack", "rounding", "replay"} <= spanned
        # --trace prints the same tree on stderr.
        assert "lprr.plan" in captured.err
        assert "replay" in captured.err

    def test_inline_evaluate_compiles_the_log_once(self, query_log_file, tmp_path):
        """Mining and replay share one compiled profile."""
        metrics_path = tmp_path / "m.json"
        args = ["evaluate", str(query_log_file), *self.FLAGS]
        assert main([*args, "--metrics-out", str(metrics_path)]) == 0

        def names(span):
            yield span["name"]
            for child in span["children"]:
                yield from names(child)

        (root,) = json.loads(metrics_path.read_text())["spans"]
        spans = list(names(root))
        assert spans.count("replay.compile") == 1
        assert spans.count("replay") == 1

    def test_disabled_run_is_identical_and_writes_nothing(
        self, query_log_file, tmp_path, capsys
    ):
        args = ["evaluate", str(query_log_file), *self.FLAGS]
        assert main(args) == 0
        plain = capsys.readouterr()
        metrics_path = tmp_path / "m.json"
        assert main([*args, "--metrics-out", str(metrics_path), "--trace"]) == 0
        instrumented = capsys.readouterr()
        assert instrumented.out == plain.out  # byte-identical stdout
        assert plain.err == ""
        assert metrics_path.exists()
        assert not list(tmp_path.glob("*.json")) == []  # file only when asked
        assert main(args) == 0
        assert capsys.readouterr().err == ""  # no trace when not asked

    def test_place_prometheus_export(self, query_log_file, tmp_path, capsys):
        out = tmp_path / "placement.json"
        prom = tmp_path / "metrics.prom"
        code = main(
            [
                "place",
                str(query_log_file),
                str(out),
                "--strategy",
                "lprr",
                *self.FLAGS,
                "--metrics-out",
                str(prom),
                "--metrics-format",
                "prometheus",
            ]
        )
        assert code == 0
        text = prom.read_text()
        assert "# TYPE planner_plan_seconds summary" in text
        assert "planner_plan_seconds_count" in text
        assert "# TYPE lprr_plans_total counter" in text


class TestExperimentCommand:
    SMALL = [
        "--documents",
        "120",
        "--vocabulary",
        "300",
        "--queries",
        "800",
        "--seed",
        "2",
    ]

    def test_fig2(self, capsys):
        assert main(["experiment", "fig2", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "Figure 2(A)" in out
        assert "Figure 2(B)" in out

    def test_fig5(self, capsys):
        assert main(["experiment", "fig5", *self.SMALL]) == 0
        assert "Figure 5" in capsys.readouterr().out


class TestAnalyzeCommand:
    def test_analyze_generated_log(self, query_log_file, capsys):
        code = main(
            [
                "analyze",
                str(query_log_file),
                "--top-pairs",
                "50",
                "--min-count",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "skewness" in out
        assert "stability" in out

    def test_analyze_aol_format(self, tmp_path, capsys):
        path = tmp_path / "aol.txt"
        path.write_text(
            "AnonID\tQuery\tQueryTime\n"
            + "".join(f"1\tcar dealer\t2006-0{1 + i % 2}-01\n" for i in range(20))
        )
        code = main(["analyze", str(path), "--format", "aol", "--min-count", "2"])
        assert code == 0
        assert "stability" in capsys.readouterr().out

    def test_analyze_tiny_log_fails_gracefully(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("car dealer\n")
        assert main(["analyze", str(path)]) == 1

    def test_max_queries_limits(self, query_log_file, capsys):
        main(["analyze", str(query_log_file), "--max-queries", "10"])
        assert "queries: 10" in capsys.readouterr().out


class TestOnlineCommand:
    ARGS = [
        "online",
        "--vocabulary", "120",
        "--topics", "15",
        "--duration", "1200",
        "--window", "300",
        "--qps", "0.5",
        "--seed", "3",
    ]

    def test_runs_and_reports(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "online run:" in out
        assert "bounded" in out

    def test_infinite_window_rejected(self):
        args = list(self.ARGS)
        args[args.index("--window") + 1] = "inf"
        with pytest.raises(ValueError, match="window_s"):
            main(args)

    def test_report_byte_identical_across_runs(self, tmp_path, capsys):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        main(self.ARGS + ["--out", str(first)])
        main(self.ARGS + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()
        doc = json.loads(first.read_text())
        assert doc["schema"] == "repro.online.report/v1"
        assert doc["total_operations"] > 0


class TestGapCommand:
    @pytest.mark.parametrize("flag", ["--nodes", "--objects"])
    def test_empty_instances_rejected(self, flag, tmp_path, capsys):
        out = tmp_path / "gap.json"
        assert main(["gap", "--instances", "1", flag, "0", "--out", str(out)]) == 2
        assert f"{flag[2:]} must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_objects_over_the_exact_limit_rejected(self, tmp_path, capsys):
        # The exact solver's own guard would tell the user to raise
        # max_objects, which the command has no flag for.
        out = tmp_path / "gap.json"
        argv = ["gap", "--instances", "1", "--objects", "65", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "objects must be at most 64" in err
        assert "max_objects" not in err
        assert not out.exists()
