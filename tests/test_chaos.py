"""The chaos harness itself: cell verdicts, CLI, and invariants."""

import json

import pytest

from repro.chaos import (
    FAILURES,
    CellSpec,
    CellVerdict,
    main,
    render_markdown,
    run_cell,
    run_matrix,
)
from repro.errors import ConfigurationError


class TestCellSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CellSpec(replicas=0, failure="none")
        with pytest.raises(ConfigurationError):
            CellSpec(replicas=2, failure="meteor-strike")

    def test_name_is_stable(self):
        assert CellSpec(2, "down-replica", seed=5).name \
            == "r2-down-replica-seed5"

    def test_matrix_axes(self):
        assert FAILURES == ("none", "down-replica", "slow-replica",
                            "rollover-mid-stream", "ingest-under-rollover")


@pytest.mark.slow
class TestCellVerdicts:
    def test_healthy_cell_passes_with_no_degradation(self):
        verdict = run_cell(CellSpec(replicas=1, failure="none"))
        assert verdict.passed
        assert verdict.deterministic
        assert verdict.stale_errors == 0
        assert verdict.degraded_responses == 0
        assert verdict.parity_ok

    def test_down_replica_degrades_r1_but_not_r2(self):
        r1 = run_cell(CellSpec(replicas=1, failure="down-replica"))
        r2 = run_cell(CellSpec(replicas=2, failure="down-replica"))
        assert r1.passed and r2.passed
        assert r1.degraded_responses > 0
        assert r2.degraded_responses == 0

    def test_slow_replica_hedges_with_backup(self):
        verdict = run_cell(CellSpec(replicas=2, failure="slow-replica"))
        assert verdict.passed
        assert verdict.hedges_sent > 0
        assert verdict.hedges_won > 0
        assert verdict.degraded_responses == 0

    def test_rollover_mid_stream_surfaces_no_stale_errors(self):
        verdict = run_cell(
            CellSpec(replicas=2, failure="rollover-mid-stream"))
        assert verdict.passed
        assert verdict.stale_errors == 0
        assert verdict.degraded_responses == 0
        assert verdict.parity_ok

    def test_ingest_under_rollover_surfaces_no_stale_errors(self):
        verdict = run_cell(
            CellSpec(replicas=2, failure="ingest-under-rollover"))
        assert verdict.passed
        assert verdict.stale_errors == 0
        assert verdict.degraded_responses == 0
        assert verdict.parity_ok

    def test_run_matrix_covers_requested_cells_in_order(self):
        verdicts = run_matrix(replicas=(2,),
                              failures=("none", "down-replica"))
        assert [v.spec.name for v in verdicts] \
            == ["r2-none-seed7", "r2-down-replica-seed7"]
        assert all(v.passed for v in verdicts)

    def test_cli_writes_verdict_json_and_markdown(self, tmp_path, capsys):
        out = tmp_path / "verdict.json"
        md = tmp_path / "summary.md"
        code = main(["--replicas", "2", "--failure", "none",
                     "--json", str(out), "--markdown", str(md)])
        assert code == 0
        verdicts = json.loads(out.read_text())
        assert len(verdicts) == 1
        assert verdicts[0]["cell"] == "r2-none-seed7"
        assert verdicts[0]["passed"] is True
        assert "Chaos matrix" in md.read_text()
        assert "PASS r2-none-seed7" in capsys.readouterr().out


class TestMarkdown:
    def test_render_includes_failure_reasons(self):
        failing = CellVerdict(
            spec=CellSpec(replicas=2, failure="none"),
            digest="deadbeef", deterministic=False,
            stale_errors=1, responses=10, degraded_responses=0,
            hedges_sent=0, hedges_won=0, parity_ok=True, passed=False,
            reasons=["ranking stream differs between identical seeded runs",
                     "1 StaleSnapshotError(s) reached clients"])
        table = render_markdown([failing])
        assert "❌" in table
        assert "ranking stream differs" in table
        assert "| 1 |" in table
