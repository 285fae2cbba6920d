"""Property-based tests for partitioners and message accounting."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ScoreParams
from repro.core.exact import single_source_scores
from repro.distributed import (
    balance,
    distributed_single_source_scores,
    edge_cut_fraction,
    greedy_partition,
    hash_partition,
    partition_array,
    topic_partition,
)
from repro.graph.builders import graph_from_edges
from repro.landmarks import QueryEngine
from repro.semantics import SimilarityMatrix, web_taxonomy
from repro.semantics.vocabularies import WEB_TOPICS
from tests.oracles import pregel_scores

edges_strategy = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(
        lambda e: e[0] != e[1]),
    min_size=3, max_size=50, unique=True)


def _labeled(edges, seed=0):
    rng = random.Random(seed)
    return graph_from_edges(
        (s, t, [rng.choice(WEB_TOPICS)]) for s, t in sorted(edges))


class TestPartitionProperties:
    @given(edges_strategy, st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_all_partitioners_cover_all_nodes(self, edges, parts):
        graph = _labeled(edges)
        for assignment in (hash_partition(graph, parts),
                           greedy_partition(graph, parts, seed=1),
                           topic_partition(graph, parts)):
            assert set(assignment) == set(graph.nodes())
            assert all(0 <= part < parts
                       for part in assignment.values())
            assert 0.0 <= edge_cut_fraction(graph, assignment) <= 1.0
            assert balance(assignment) >= 0.99

    @given(edges_strategy)
    @settings(max_examples=20, deadline=None)
    def test_arbitrary_assignment_never_changes_scores(self, edges):
        """The partitioned engine's core contract, fuzzed: ANY node→
        partition map yields the single-machine scores, and the
        vectorised message counts equal the dict Pregel oracle's."""
        rng = random.Random(42)
        graph = _labeled(edges, seed=7)
        sim = SimilarityMatrix.from_taxonomy(web_taxonomy())
        params = ScoreParams(beta=0.05, max_iter=100, tolerance=1e-13)
        snapshot = graph.snapshot()
        engine = QueryEngine(snapshot, sim, params)
        source = sorted(graph.nodes())[0]
        for assignment in (hash_partition(graph, 3),
                           greedy_partition(graph, 3, seed=1),
                           {node: rng.randrange(4)
                            for node in graph.nodes()}):
            partition = partition_array(snapshot, assignment)
            for max_depth in (0, 2, None):
                exploration, stats = distributed_single_source_scores(
                    engine, partition, source, "technology",
                    max_depth=max_depth)
                reference = single_source_scores(
                    graph, source, ["technology"], sim, params=params,
                    max_depth=max_depth)
                _, expected = pregel_scores(
                    graph, assignment, source, ["technology"], sim,
                    params=params, max_depth=max_depth)
                state = exploration.to_state(snapshot, "technology")
                assert state.scores["technology"] == \
                    reference.scores["technology"]
                assert stats == expected
