"""Tests for partitioned propagation and its message accounting.

``distributed_single_source_scores`` runs the package's one depth-k
kernel with a partition array; scores and :class:`MessageStats` must
equal the dict Pregel oracle's, bit for bit and count for count.
"""

import random

import pytest

from repro import ScoreParams
from repro.core.exact import single_source_scores
from repro.datasets import generate_twitter_graph
from repro.distributed import (
    DistributedLandmarkService,
    distributed_single_source_scores,
    greedy_partition,
    hash_partition,
    partition_array,
)
from repro.errors import ConfigurationError
from repro.graph.builders import path_graph
from repro.landmarks import LandmarkIndex, QueryEngine, select_landmarks
from tests.oracles import pregel_scores

PARAMS = ScoreParams(beta=0.004)
TOPIC = "technology"


@pytest.fixture(scope="module")
def graph():
    return generate_twitter_graph(300, seed=88)


@pytest.fixture(scope="module")
def engine(graph, web_sim):
    return QueryEngine(graph.snapshot(), web_sim, PARAMS)


def run(engine, assignment, source, max_depth=None, absorbing=None):
    partition = partition_array(engine.snapshot, assignment)
    return distributed_single_source_scores(
        engine, partition, source, TOPIC, max_depth=max_depth,
        absorbing=absorbing)


def assignments(graph):
    rng = random.Random(5)
    return {
        "hash": hash_partition(graph, 4),
        "greedy": greedy_partition(graph, 4, seed=1),
        "random": {node: rng.randrange(5) for node in graph.nodes()},
    }


class TestCorrectness:
    @pytest.mark.parametrize("num_parts", [1, 2, 4, 8])
    def test_scores_identical_to_single_machine(self, graph, engine,
                                                web_sim, num_parts):
        """Partitioning must never change answers, only traffic."""
        assignment = hash_partition(graph, num_parts)
        source = next(iter(sorted(graph.nodes())))
        reference = single_source_scores(graph, source, [TOPIC], web_sim,
                                         params=PARAMS)
        exploration, _ = run(engine, assignment, source)
        state = exploration.to_state(engine.snapshot, TOPIC)
        assert state.scores[TOPIC] == reference.scores[TOPIC]
        assert state.topo_beta == reference.topo_beta
        assert state.topo_alphabeta == reference.topo_alphabeta
        assert state.iterations == reference.iterations
        assert state.converged == reference.converged

    def test_absorbing_matches_single_machine(self, graph, engine, web_sim):
        landmarks = frozenset(sorted(graph.nodes())[:10])
        source = sorted(graph.nodes())[20]
        reference = single_source_scores(graph, source, [TOPIC], web_sim,
                                         params=PARAMS, max_depth=2,
                                         absorbing=landmarks)
        exploration, _ = run(engine, hash_partition(graph, 3), source,
                             max_depth=2, absorbing=landmarks)
        state = exploration.to_state(engine.snapshot, TOPIC)
        assert state.scores[TOPIC] == reference.scores[TOPIC]

    def test_unassigned_source_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            run(engine, {}, 0)


class TestPartitionArray:
    """Regression: an incomplete assignment used to surface as a raw
    ``KeyError`` mid-query; it is now refused when the per-position
    array is built, naming the node."""

    @staticmethod
    def _incomplete(web_sim):
        graph = generate_twitter_graph(200, seed=3)
        source = next(node for node in sorted(graph.nodes())
                      if graph.out_degree(node) >= 2)
        followee = min(graph.out_neighbors(source))
        assignment = hash_partition(graph, 3)
        del assignment[followee]
        return graph, source, followee, assignment

    def test_missing_followee_raises_configuration_error(self, web_sim):
        graph, source, followee, assignment = self._incomplete(web_sim)
        engine = QueryEngine(graph.snapshot(), web_sim, PARAMS)
        with pytest.raises(ConfigurationError, match=f"node {followee} "):
            run(engine, assignment, source, max_depth=2)

    def test_service_raises_configuration_error(self, web_sim):
        graph, source, followee, assignment = self._incomplete(web_sim)
        landmarks = select_landmarks(graph, "In-Deg", 5, rng=1)
        index = LandmarkIndex.build(graph, landmarks, [TOPIC], web_sim,
                                    params=PARAMS)
        service = DistributedLandmarkService(graph, assignment, web_sim,
                                             index)
        with pytest.raises(ConfigurationError, match=f"node {followee} "):
            service.recommend(source, TOPIC)

    @pytest.mark.parametrize("bad", [-1, 1.0, None, True, "0"])
    def test_non_int_or_negative_partition_rejected(self, graph, bad):
        assignment = hash_partition(graph, 2)
        node = sorted(assignment)[7]
        assignment[node] = bad
        with pytest.raises(ConfigurationError, match=f"node {node} "):
            partition_array(graph.snapshot(), assignment)

    def test_array_follows_snapshot_positions(self, graph):
        assignment = hash_partition(graph, 4)
        snapshot = graph.snapshot()
        parts = partition_array(snapshot, assignment)
        assert parts.tolist() == [assignment[node]
                                  for node in snapshot.node_ids]


class TestOracleParity:
    @pytest.mark.parametrize("strategy", ["hash", "greedy", "random"])
    @pytest.mark.parametrize("max_depth", [0, 2, None])
    def test_message_stats_match_pregel_oracle(self, graph, engine, web_sim,
                                               strategy, max_depth):
        assignment = assignments(graph)[strategy]
        landmarks = frozenset(sorted(graph.nodes(),
                                     key=graph.in_degree)[-8:])
        sources = sorted(graph.nodes())[::37]
        for source in sources:
            for absorbing in (None, landmarks):
                exploration, stats = run(engine, assignment, source,
                                         max_depth=max_depth,
                                         absorbing=absorbing)
                reference, expected = pregel_scores(
                    graph, assignment, source, [TOPIC], web_sim,
                    params=PARAMS, max_depth=max_depth, absorbing=absorbing)
                assert stats == expected
                state = exploration.to_state(engine.snapshot, TOPIC)
                assert state.scores[TOPIC] == reference.scores[TOPIC]
                assert state.topo_alphabeta == reference.topo_alphabeta
                assert state.iterations == reference.iterations


class TestMessageAccounting:
    def test_single_partition_sends_no_remote_messages(self, graph, engine):
        _, stats = run(engine, hash_partition(graph, 1), 0, max_depth=3)
        assert stats.remote_messages == 0
        assert stats.remote_values == 0
        assert stats.local_transfers > 0

    def test_remote_fraction_tracks_edge_cut(self, graph, engine):
        """A lower-cut partitioning must produce fewer remote values."""
        source = max(graph.nodes(), key=graph.out_degree)
        _, hash_stats = run(engine, hash_partition(graph, 4), source,
                            max_depth=3)
        _, greedy_stats = run(engine, greedy_partition(graph, 4, seed=1),
                              source, max_depth=3)
        assert greedy_stats.remote_values < hash_stats.remote_values

    def test_combiner_never_exceeds_raw_values(self, graph, engine):
        _, stats = run(engine, hash_partition(graph, 4), 0, max_depth=3)
        assert stats.remote_messages <= stats.remote_values

    def test_per_link_totals_match_message_count(self, graph, engine):
        _, stats = run(engine, hash_partition(graph, 4), 0, max_depth=3)
        assert sum(stats.per_link.values()) == stats.remote_messages  # repro: ignore[R2] -- per-link message counts are integers; the sum is exact in any order
        assert all(s != r for s, r in stats.per_link)

    def test_supersteps_equal_walk_depth(self, web_sim):
        graph = path_graph(5, topics=[TOPIC])
        engine = QueryEngine(graph.snapshot(), web_sim,
                             ScoreParams(beta=0.3))
        _, stats = run(engine, hash_partition(graph, 2), 0, max_depth=3)
        assert stats.supersteps == 3

    def test_remote_fraction_bounds(self, graph, engine):
        _, stats = run(engine, hash_partition(graph, 4), 0, max_depth=2)
        assert 0.0 <= stats.remote_fraction <= 1.0
