"""Bench report round-trip, regression gate, and the obs CLI."""

import json

import pytest

from repro.obs import build_report, check_regression, read_json, render_text, write_json
from repro.obs.__main__ import main
from repro.obs.export import REPORT_VERSION, render_markdown
from repro.obs.workload import run_smoke


def tiny_report(stage_seconds, latency=None):
    """A minimal valid report with the given {stage: seconds}."""
    return {
        "version": REPORT_VERSION,
        "workload": {"nodes": 1},
        "stages": {
            name: {"calls": 1, "seconds": seconds, "mean": seconds,
                   "min": seconds, "max": seconds}
            for name, seconds in stage_seconds.items()
        },
        "counters": {"exact.calls_total": 1},
        "gauges": {},
        "histograms": {},
        "latency": {
            name: {"count": 10, "p50": p50, "p99": p50 * 2.0,
                   "mean": p50, "qps": 1.0 / p50}
            for name, p50 in (latency if latency is not None
                              else {}).items()
        },
    }


class TestExportRoundTrip:
    def test_write_then_read_is_identity(self, tmp_path):
        report = tiny_report({"exact.single_source": 0.25})
        path = tmp_path / "bench.json"
        write_json(report, path)
        assert read_json(path) == report

    def test_read_rejects_versionless_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"stages": {}}))
        with pytest.raises(ValueError):
            read_json(path)

    def test_build_report_wraps_snapshot(self):
        snapshot = {"stages": {"s": {"calls": 1, "seconds": 0.1,
                                     "mean": 0.1, "min": 0.1, "max": 0.1}},
                    "counters": {"c": 2}, "gauges": {}, "histograms": {}}
        report = build_report(snapshot, workload={"nodes": 5})
        assert report["version"] == REPORT_VERSION
        assert report["workload"] == {"nodes": 5}
        assert report["counters"] == {"c": 2}

    def test_render_text_lists_stages_and_counters(self):
        text = render_text(tiny_report({"exact.single_source": 0.25}))
        assert "exact.single_source" in text
        assert "exact.calls_total = 1" in text


class TestMarkdownSummary:
    def test_tables_stages_latency_and_rollover_gauges(self):
        report = tiny_report({"exact.single_source": 0.25},
                             latency={"workload.query.sparse": 0.002})
        report["gauges"] = {"workload.rollover.events_per_sec": 250.0,
                            "workload.rollover.hedge_win_rate": 1.0,
                            "graph.snapshot_epoch": 3.0}
        markdown = render_markdown(report)
        assert "## Bench gate summary" in markdown
        assert "| `exact.single_source` | 1 " in markdown
        assert "| `workload.query.sparse` | 10 " in markdown
        assert "`workload.rollover.events_per_sec` = 250" in markdown
        # non-rollover gauges stay out of the summary
        assert "graph.snapshot_epoch" not in markdown
        assert "Chaos verdicts" not in markdown

    def test_chaos_verdict_rows(self):
        report = tiny_report({"exact.single_source": 0.25})
        chaos = [{"cell": "r2-none-seed7", "passed": True,
                  "deterministic": True,
                  "stale_errors": 0, "degraded_responses": 0},
                 {"cell": "r1-down-replica-seed7", "passed": False,
                  "deterministic": False,
                  "stale_errors": 2, "degraded_responses": 5}]
        markdown = render_markdown(report, chaos=chaos)
        assert "### Chaos verdicts" in markdown
        assert "| `r2-none-seed7` | yes | 0 | 0 | ✅ |" in markdown
        assert "| `r1-down-replica-seed7` | NO | 2 | 5 | ❌ |" \
            in markdown
        assert "engines" not in markdown

    def test_summary_subcommand_appends_to_out_file(self, tmp_path):
        report_path = tmp_path / "bench.json"
        write_json(tiny_report({"exact.single_source": 0.25}), report_path)
        verdicts = tmp_path / "chaos-r2-none.json"
        verdicts.write_text(json.dumps([{"cell": "r2-none-seed7",
                                         "passed": True,
                                         "deterministic": True,
                                         "stale_errors": 0,
                                         "degraded_responses": 0}]))
        out = tmp_path / "summary.md"
        out.write_text("# prior content\n")
        code = main(["summary", str(report_path),
                     "--chaos", str(tmp_path / "chaos-*.json"),
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("# prior content\n")  # appends, not clobbers
        assert "## Bench gate summary" in text
        assert "r2-none-seed7" in text


class TestRegressionGate:
    def test_within_budget_passes(self):
        baseline = tiny_report({"stage.a": 0.2})
        current = tiny_report({"stage.a": 0.3})
        assert check_regression(current, baseline) == []

    def test_beyond_factor_fails(self):
        baseline = tiny_report({"stage.a": 0.2})
        current = tiny_report({"stage.a": 0.5})
        problems = check_regression(current, baseline, factor=2.0)
        assert len(problems) == 1
        assert "stage.a" in problems[0]

    def test_noise_floor_shields_micro_stages(self):
        """A 10x blowup of a sub-millisecond stage is noise, not a
        regression — the floor keeps the gate quiet."""
        baseline = tiny_report({"stage.tiny": 0.001})
        current = tiny_report({"stage.tiny": 0.01})
        assert check_regression(current, baseline,
                                factor=2.0, min_seconds=0.05) == []

    def test_missing_stage_fails(self):
        baseline = tiny_report({"stage.a": 0.2})
        current = tiny_report({"stage.b": 0.2})
        problems = check_regression(current, baseline)
        assert any("stage.a" in p for p in problems)

    def test_missing_counter_fails(self):
        baseline = tiny_report({"stage.a": 0.2})
        current = tiny_report({"stage.a": 0.2})
        del current["counters"]["exact.calls_total"]
        problems = check_regression(current, baseline)
        assert any("exact.calls_total" in p for p in problems)

    def test_latency_within_budget_passes(self):
        baseline = tiny_report({}, latency={"workload.query.sparse": 0.010})
        current = tiny_report({}, latency={"workload.query.sparse": 0.018})
        assert check_regression(current, baseline) == []

    def test_latency_beyond_factor_fails_on_p50_and_p99(self):
        baseline = tiny_report({}, latency={"workload.query.sparse": 0.010})
        current = tiny_report({}, latency={"workload.query.sparse": 0.050})
        problems = check_regression(current, baseline, factor=2.0)
        assert len(problems) == 2
        assert any("p50" in p for p in problems)
        assert any("p99" in p for p in problems)

    def test_latency_noise_floor_shields_microsecond_queries(self):
        """Sub-floor query latencies compare against the floor, so a
        200us -> 900us wobble cannot flap the gate."""
        baseline = tiny_report({}, latency={"workload.query.sparse": 0.0002})
        current = tiny_report({}, latency={"workload.query.sparse": 0.0009})
        assert check_regression(current, baseline,
                                min_latency_seconds=0.005) == []

    def test_missing_latency_entry_fails(self):
        baseline = tiny_report({}, latency={"workload.query.sparse": 0.010})
        current = tiny_report({})
        problems = check_regression(current, baseline)
        assert any("workload.query.sparse" in p for p in problems)


class TestSmokeWorkload:
    def test_smoke_covers_all_three_pipeline_stages(self):
        report = run_smoke(nodes=120, landmarks=8, queries=3, query_reps=2)
        stages = report["stages"]
        assert "exact.single_source" in stages
        assert "landmarks.build" in stages
        assert "approx.recommend" in stages
        # the query stage, then the ram + mmap storage backends: each
        # runs one warmup pass + query_reps timed passes
        assert report["counters"]["approx.queries_total"] \
            == (1 + 2) * (1 + 2) * 3
        assert report["workload"]["nodes"] == 120

    def test_smoke_reports_per_engine_query_latency(self):
        report = run_smoke(nodes=120, landmarks=8, queries=3, query_reps=2)
        latency = report["latency"]
        assert set(latency) == {"workload.query.sparse",
                                "workload.mmap.ram",
                                "workload.mmap.mmap",
                                "workload.ingest"}
        for name, entry in latency.items():
            if name == "workload.ingest":
                assert entry["count"] == report["workload"]["ingest_events"]
            else:
                assert entry["count"] == 2 * 3
            assert 0.0 < entry["p50"] <= entry["p99"]
            assert entry["qps"] > 0.0

    def test_smoke_counters_are_deterministic(self):
        first = run_smoke(nodes=120, landmarks=8, queries=3, query_reps=2)
        second = run_smoke(nodes=120, landmarks=8, queries=3, query_reps=2)
        assert first["counters"] == second["counters"]
        assert first["workload"] == second["workload"]
        calls = {name: entry["calls"]
                 for name, entry in first["stages"].items()}
        again = {name: entry["calls"]
                 for name, entry in second["stages"].items()}
        assert calls == again


class TestCli:
    def test_run_writes_report_and_check_passes_against_itself(
            self, tmp_path, capsys):
        bench = tmp_path / "BENCH_ci.json"
        latency = tmp_path / "latency_ci.json"
        assert main(["run", "--nodes", "120", "--landmarks", "8",
                     "--queries", "3", "--query-reps", "2",
                     "--json", str(bench),
                     "--latency-json", str(latency)]) == 0
        report = read_json(bench)
        assert report["version"] == REPORT_VERSION
        artifact = read_json(latency)
        assert artifact["latency"] == report["latency"]
        assert "stages" not in artifact
        assert main(["check", str(bench), str(bench)]) == 0
        out = capsys.readouterr().out
        assert "gate passed" in out

    def test_report_renders_existing_file(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        write_json(tiny_report({"exact.single_source": 0.25}), path)
        assert main(["report", str(path)]) == 0
        assert "exact.single_source" in capsys.readouterr().out

    def test_check_exits_nonzero_on_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        write_json(tiny_report({"stage.a": 0.1}), baseline)
        write_json(tiny_report({"stage.a": 1.0}), current)
        assert main(["check", str(current), str(baseline)]) == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err
        assert "stage.a" in err
