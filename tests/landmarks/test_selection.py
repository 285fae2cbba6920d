"""Tests for the eleven Table-4 landmark selection strategies."""

import pytest

from repro.datasets import generate_twitter_graph
from repro.errors import ConfigurationError
from repro.graph.builders import graph_from_edges
from repro.graph.io import open_snapshot, save_snapshot
from repro.graph.overlay import DeltaSnapshot
from repro.landmarks.selection import (
    STRATEGIES,
    select_between_followers,
    select_central,
    select_combine,
    select_in_degree,
    select_landmarks,
    select_out_degree,
    select_random,
)
from tests.oracles import top_by_degree


@pytest.fixture(scope="module")
def graph():
    return generate_twitter_graph(300, seed=13)


class TestRegistry:
    def test_all_eleven_table4_strategies_present(self):
        assert set(STRATEGIES) == {
            "Random", "Follow", "Publish", "In-Deg", "Btw-Fol", "Out-Deg",
            "Btw-Pub", "Central", "Out-Cen", "Combine", "Combine2",
        }

    def test_unknown_strategy_raises(self, graph):
        with pytest.raises(ConfigurationError):
            select_landmarks(graph, "Best-Ever", 5)

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_every_strategy_returns_distinct_valid_nodes(self, graph,
                                                         strategy):
        landmarks = select_landmarks(graph, strategy, 20, rng=7)
        assert len(landmarks) == 20
        assert len(set(landmarks)) == 20
        assert all(node in graph for node in landmarks)

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_every_strategy_is_deterministic_for_seed(self, graph, strategy):
        first = select_landmarks(graph, strategy, 10, rng=42)
        second = select_landmarks(graph, strategy, 10, rng=42)
        assert first == second


class TestDegreeStrategies:
    def test_in_deg_returns_most_followed(self, graph):
        landmarks = select_in_degree(graph, 5)
        degrees = sorted((graph.in_degree(n) for n in graph.nodes()),
                         reverse=True)
        assert sorted((graph.in_degree(n) for n in landmarks),
                      reverse=True) == degrees[:5]

    def test_out_deg_returns_most_active(self, graph):
        landmarks = select_out_degree(graph, 5)
        degrees = sorted((graph.out_degree(n) for n in graph.nodes()),
                         reverse=True)
        assert sorted((graph.out_degree(n) for n in landmarks),
                      reverse=True) == degrees[:5]

    def test_follow_biases_towards_popular(self, graph):
        """Weighted sampling should pick clearly more popular nodes
        than uniform sampling on average."""
        popular = select_landmarks(graph, "Follow", 30, rng=1)
        uniform = select_random(graph, 30, rng=1)
        mean = lambda nodes: sum(graph.in_degree(n) for n in nodes) / len(nodes)
        assert mean(popular) > mean(uniform)


class TestDegreeRankingMatchesOracle:
    """The CSR ``lexsort`` picks the key-function sort's exact list."""

    @staticmethod
    def _views(graph, tmp_path):
        save_snapshot(graph.snapshot(), tmp_path / "snap")
        return {
            "live": graph,
            "graph-built": graph.snapshot(),
            "ram": open_snapshot(tmp_path / "snap", store="ram"),
            "mmap": open_snapshot(tmp_path / "snap", store="mmap"),
            "overlay": DeltaSnapshot(graph.snapshot()),
        }

    @pytest.mark.parametrize("count", [1, 7, 40, 300])
    def test_generated_graph(self, graph, tmp_path, count):
        for name, view in self._views(graph, tmp_path).items():
            assert select_in_degree(view, count) == top_by_degree(
                graph, count), name
            assert select_out_degree(view, count) == top_by_degree(
                graph, count, out=True), name

    def test_ties_break_by_node_id_with_sparse_ids(self, tmp_path):
        # Ids 40..10 descending; every target has two followers, so
        # the whole ranking is decided by the id tie-break.
        edges = [(40, 10, ["food"]), (30, 10, ["food"]),
                 (40, 20, ["food"]), (30, 20, ["food"]),
                 (10, 30, ["food"]), (20, 30, ["food"]),
                 (10, 40, ["food"]), (20, 40, ["food"])]
        graph = graph_from_edges(edges)
        for name, view in self._views(graph, tmp_path).items():
            for count in (1, 2, 3, 4):
                assert select_in_degree(view, count) == [10, 20, 30, 40][
                    :count], name
                assert select_out_degree(view, count) == top_by_degree(
                    graph, count, out=True), name


class TestBandStrategies:
    def test_btw_fol_band_respected(self, graph):
        landmarks = select_between_followers(graph, 20, rng=3,
                                             low=0.5, high=0.9)
        degrees = sorted(graph.in_degree(n) for n in graph.nodes())
        low_cut = degrees[int(0.5 * len(degrees))]
        high_cut = degrees[int(0.9 * len(degrees))]
        for node in landmarks:
            assert low_cut <= graph.in_degree(node) <= high_cut

    def test_band_falls_back_when_too_narrow(self, graph):
        # a degenerate band still returns the requested count
        landmarks = select_between_followers(graph, 50, rng=3,
                                             low=0.99, high=0.999)
        assert len(landmarks) == 50


class TestCoverageStrategies:
    def test_central_prefers_reachable_nodes(self, graph):
        landmarks = select_central(graph, 10, rng=5, num_seeds=40, depth=2)
        in_degrees = [graph.in_degree(n) for n in landmarks]
        average = sum(graph.in_degree(n) for n in graph.nodes()) / len(graph)
        assert sum(in_degrees) / len(in_degrees) > average

    def test_combine_weight_validation(self, graph):
        with pytest.raises(ConfigurationError):
            select_combine(graph, 5, weight=1.5)


class TestEdgeCases:
    def test_count_larger_than_graph_rejected(self, graph):
        with pytest.raises(ConfigurationError):
            select_landmarks(graph, "Random", graph.num_nodes + 1)

    def test_zero_count_rejected(self, graph):
        with pytest.raises(ConfigurationError):
            select_landmarks(graph, "Random", 0)

    def test_whole_graph_selection(self, graph):
        landmarks = select_landmarks(graph, "Random", graph.num_nodes, rng=1)
        assert sorted(landmarks) == sorted(graph.nodes())
