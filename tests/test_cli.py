"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "graph.jsonl"
    code = main(["generate", str(path), "--nodes", "200", "--seed", "1"])
    assert code == 0
    return path


class TestGenerate:
    def test_twitter_generation(self, graph_file, capsys):
        assert graph_file.exists()

    def test_dblp_generation(self, tmp_path, capsys):
        path = tmp_path / "dblp.jsonl"
        code = main(["generate", str(path), "--dataset", "dblp",
                     "--nodes", "120", "--seed", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "nodes" in captured.out

    def test_stream_generation_writes_snapshot_dir(self, tmp_path,
                                                   capsys):
        path = tmp_path / "snapshot_dir"
        code = main(["generate", str(path), "--stream",
                     "--nodes", "300", "--seed", "4"])
        captured = capsys.readouterr()
        assert code == 0
        assert (path / "header.json").exists()
        assert "300 nodes" in captured.out
        # The printed counts come from emission-time counters, and
        # they match what actually landed on disk.
        from repro.graph.storage import read_header
        header = read_header(path)
        assert f"{header.num_edges} edges" in captured.out

    def test_stream_requires_twitter_dataset(self, tmp_path, capsys):
        code = main(["generate", str(tmp_path / "x"), "--stream",
                     "--dataset", "dblp", "--nodes", "100"])
        captured = capsys.readouterr()
        assert code == 2
        assert "twitter" in captured.err


class TestStats:
    def test_prints_table2_rows(self, graph_file, capsys):
        code = main(["stats", str(graph_file)])
        captured = capsys.readouterr()
        assert code == 0
        assert "Total number of nodes" in captured.out
        assert "max in-degree" in captured.out


class TestRecommend:
    def test_prints_ranked_accounts(self, graph_file, capsys):
        code = main(["recommend", str(graph_file), "--user", "0",
                     "--topic", "technology", "--top", "3",
                     "--beta", "0.004"])
        captured = capsys.readouterr()
        assert code == 0
        assert "account" in captured.out

    def test_no_results_exit_code(self, tmp_path, capsys):
        from repro.graph.builders import graph_from_edges
        from repro.graph.io import write_jsonl

        lonely = graph_from_edges([(0, 1, [])])
        path = tmp_path / "lonely.jsonl"
        write_jsonl(lonely, path)
        code = main(["recommend", str(path), "--user", "1",
                     "--topic", "technology"])
        assert code == 1


class TestEvaluate:
    def test_runs_protocol(self, graph_file, capsys):
        code = main(["evaluate", str(graph_file), "--methods", "Katz",
                     "--test-size", "5", "--negatives", "30"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Katz" in captured.out

    def test_unknown_method_exit_code(self, graph_file, capsys):
        code = main(["evaluate", str(graph_file),
                     "--methods", "MagicRank"])
        assert code == 2

    def test_salsa_method_available(self, graph_file, capsys):
        code = main(["evaluate", str(graph_file), "--methods", "SALSA",
                     "--test-size", "3", "--negatives", "20"])
        captured = capsys.readouterr()
        assert code == 0
        assert "SALSA" in captured.out


class TestPartition:
    def test_reports_metrics(self, graph_file, capsys):
        code = main(["partition", str(graph_file), "--parts", "3",
                     "--strategy", "greedy"])
        captured = capsys.readouterr()
        assert code == 0
        assert "edge_cut=" in captured.out
        assert "balance=" in captured.out

    def test_unknown_strategy_rejected(self, graph_file):
        # argparse enforces choices -> SystemExit(2)
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            main(["partition", str(graph_file), "--strategy", "magic"])


class TestChurn:
    def test_applies_events_and_writes_graph(self, graph_file, tmp_path,
                                             capsys):
        out = tmp_path / "churned.jsonl"
        code = main(["churn", str(graph_file), "--events", "50",
                     "--seed", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert out.exists()
        assert "applied" in captured.out


class TestIngest:
    def test_streams_events_through_compactions(self, graph_file, capsys):
        code = main(["ingest", str(graph_file), "--events", "30",
                     "--seed", "2", "--shards", "2",
                     "--compact-every", "10", "--count", "4"])
        captured = capsys.readouterr()
        assert code == 0
        assert "ingested" in captured.out
        assert "compactions" in captured.out
        assert "servable epoch" in captured.out


class TestShard:
    def test_serves_without_an_engine_knob(self, graph_file, capsys):
        code = main(["shard", str(graph_file), "--user", "0",
                     "--topic", "technology", "--shards", "2",
                     "--count", "4"])
        captured = capsys.readouterr()
        assert code in (0, 1)  # 1 = no recommendation for this user
        assert "shards=2" in captured.out
        assert "engine=" not in captured.out

    def test_query_engine_flag_is_gone(self, graph_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["shard", str(graph_file), "--user", "0",
                  "--topic", "technology", "--query-engine", "dict"])
        assert excinfo.value.code == 2
        assert "--query-engine" in capsys.readouterr().err


class TestLandmarks:
    def test_builds_and_saves_index(self, graph_file, tmp_path, capsys):
        out = tmp_path / "index.rplm"
        code = main(["landmarks", str(graph_file), "--count", "3",
                     "--top", "10", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert out.exists()
        assert "built index" in captured.out

        from repro.landmarks import load_index

        index = load_index(out)
        assert len(index.landmarks) == 3

    def test_engine_and_workers_flags(self, graph_file, tmp_path, capsys):
        out = tmp_path / "index_dict.rplm"
        code = main(["landmarks", str(graph_file), "--count", "3",
                     "--top", "10", "--out", str(out),
                     "--engine", "dict", "--workers", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "engine=dict" in captured.out

    def test_engine_choices_enforced(self, graph_file, tmp_path):
        with pytest.raises(SystemExit):
            main(["landmarks", str(graph_file), "--engine", "quantum"])

    def test_engine_flag_on_evaluate(self, graph_file, capsys):
        code = main(["evaluate", str(graph_file), "--methods", "Tr",
                     "--test-size", "3", "--negatives", "20",
                     "--engine", "auto"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Tr" in captured.out
