"""Algorithm 1's bulk path ranks straight from the engine's columns.

The sparse build and the incremental refresh take each landmark's
top-n from ``ScoreState.top_entries`` and never materialise a per-node
dict; the stored lists must still equal the one-sort dict ranking of
the same states bit for bit, ties at the cutoff included. Authority
on that path comes from one per-topic column built over the
follower-count CSR, never from a per-node decode of it, and the
authority index holds nothing but those columns.
"""

import numpy as np
import pytest

from repro import ScoreParams
from repro.config import LandmarkParams
from repro.core import exact
from repro.core.fast import SparseEngine, scipy_available
from repro.core.scores import AuthorityIndex
from repro.datasets import generate_twitter_graph
from repro.graph import storage
from repro.graph.builders import graph_from_edges
from repro.graph.io import open_snapshot, save_snapshot
from repro.landmarks import LandmarkIndex
from repro.landmarks.frontier import refresh_landmarks
from repro.landmarks.query_engine import QueryEngine
from tests.oracles import ranked as oracle_ranked

pytestmark = pytest.mark.skipif(not scipy_available(),
                                reason="scipy not installed")

TOPICS = ["technology", "food"]
PARAMS = ScoreParams(beta=0.05)


def _tied_graph():
    """Two landmarks over mirrored fans: equal scores by construction.

    Landmark 0 follows 1..6 on one label and each of those follows
    two of 7..12 on another, so the six first-hop and the six
    second-hop nodes tie among themselves; landmark 20 mirrors the
    fan over 21..32.
    """
    edges = []
    for root, first in ((0, 1), (20, 21)):
        for i in range(6):
            hop = first + i
            edges.append((root, hop, ["technology", "food"]))
            edges.append((hop, first + 6 + i, ["technology"]))
            edges.append((hop, first + 6 + (i + 1) % 6, ["technology"]))
    return graph_from_edges(edges)


def _hexed(entries):
    return [(e.node, e.score.hex(), e.topo.hex(), e.topo_ab.hex())
            for e in entries]


def _oracle_lists(graph, similarity, landmarks, landmark_params):
    engine = SparseEngine(graph, similarity, PARAMS)
    states = engine.multi_source(landmarks, TOPICS,
                                 max_depth=landmark_params.precompute_depth)
    lists = {}
    for landmark, state in zip(landmarks, states):
        for topic in TOPICS:
            lists[landmark, topic] = [
                (node, score.hex(),
                 state.topo_beta.get(node, 0.0).hex(),
                 state.topo_alphabeta.get(node, 0.0).hex())
                for node, score in oracle_ranked(
                    state.scores[topic], landmark_params.top_n,
                    exclude=(landmark,))]
    return lists, states


class TestBulkPathBuildsNoDict:
    def test_build_and_refresh_never_materialise_a_view(self, web_sim,
                                                        monkeypatch):
        graph = generate_twitter_graph(300, seed=5)
        landmarks = [3, 14, 15, 92]
        landmark_params = LandmarkParams(num_landmarks=4, top_n=15)

        def refuse(*_args, **_kwargs):
            raise AssertionError("bulk path built a per-node dict")

        monkeypatch.setattr(exact, "_column_dict", refuse)
        index = LandmarkIndex.build(graph, landmarks, TOPICS, web_sim,
                                    params=PARAMS,
                                    landmark_params=landmark_params,
                                    engine="sparse", batch_size=3)
        assert refresh_landmarks(index, graph, landmarks[:3], TOPICS,
                                 web_sim, engine="sparse") == 3
        assert all(index.recommendations(landmark, topic)
                   for landmark in landmarks for topic in TOPICS)
        # The patch is live: any view access would have tripped it.
        state = SparseEngine(graph, web_sim, PARAMS).single_source(
            3, TOPICS, max_depth=2)
        with pytest.raises(AssertionError):
            state.scores


class TestBulkPathMatchesDictRanking:
    @pytest.mark.parametrize("top_n", [1, 3, 4, 6, 9, 100])
    def test_tied_scores_match_the_oracle_bitwise(self, web_sim, top_n):
        graph = _tied_graph()
        landmarks = [0, 20]
        landmark_params = LandmarkParams(num_landmarks=2, top_n=top_n)
        expected, _ = _oracle_lists(graph, web_sim, landmarks,
                                    landmark_params)
        index = LandmarkIndex.build(graph, landmarks, TOPICS, web_sim,
                                    params=PARAMS,
                                    landmark_params=landmark_params,
                                    engine="sparse")
        for (landmark, topic), entries in expected.items():
            assert _hexed(index.recommendations(landmark, topic)) == entries
        refresh_landmarks(index, graph, landmarks, TOPICS, web_sim,
                          engine="sparse")
        for (landmark, topic), entries in expected.items():
            assert _hexed(index.recommendations(landmark, topic)) == entries

    def test_the_graph_really_ties_at_the_cutoff(self, web_sim):
        _, states = _oracle_lists(graph=_tied_graph(), similarity=web_sim,
                                  landmarks=[0],
                                  landmark_params=LandmarkParams(top_n=3))
        full = oracle_ranked(states[0].scores["technology"], exclude=(0,))
        scores = [score for _, score in full]
        assert scores[2] == scores[3]
        assert len(set(scores)) < len(scores) - 4

    def test_random_graph_matches_the_oracle_bitwise(self, web_sim):
        graph = generate_twitter_graph(400, seed=11)
        landmarks = [1, 2, 30, 77, 150, 299]
        landmark_params = LandmarkParams(num_landmarks=6, top_n=20)
        expected, _ = _oracle_lists(graph, web_sim, landmarks,
                                    landmark_params)
        index = LandmarkIndex.build(graph, landmarks, TOPICS, web_sim,
                                    params=PARAMS,
                                    landmark_params=landmark_params,
                                    engine="sparse", batch_size=4)
        for (landmark, topic), entries in expected.items():
            assert _hexed(index.recommendations(landmark, topic)) == entries


class TestBulkPathReadsNoAuthorityRow:
    def test_build_warm_and_refresh_never_decode_a_count_row(
            self, web_sim, monkeypatch, tmp_path):
        save_snapshot(generate_twitter_graph(300, seed=5).snapshot(),
                      tmp_path / "snap")
        mapped = open_snapshot(tmp_path / "snap", store="mmap")
        landmarks = [3, 14, 15, 92]
        landmark_params = LandmarkParams(num_landmarks=4, top_n=15)

        def refuse(*_args, **_kwargs):
            raise AssertionError("bulk path decoded a follower-count row")

        monkeypatch.setattr(storage.CsrCountsSequence, "__getitem__", refuse)
        index = LandmarkIndex.build(mapped, landmarks, TOPICS, web_sim,
                                    params=PARAMS,
                                    landmark_params=landmark_params,
                                    engine="sparse", batch_size=3)
        QueryEngine(mapped, web_sim, PARAMS).warm(TOPICS)
        assert refresh_landmarks(index, mapped, landmarks[:3], TOPICS,
                                 web_sim, engine="sparse") == 3
        assert all(index.recommendations(landmark, topic)
                   for landmark in landmarks for topic in TOPICS)
        # The patch is live: a per-node count read would have tripped it.
        with pytest.raises(AssertionError):
            mapped.follower_count_on(3, "technology")

    def test_authority_retains_one_column_per_topic(self):
        snapshot = generate_twitter_graph(300, seed=5).snapshot()
        authority = AuthorityIndex(snapshot)
        topics = sorted(snapshot.topics())
        for topic in topics:
            for node in snapshot.nodes():
                authority.auth(node, topic)
        n = len(snapshot)
        state = vars(authority)
        assert set(state) == {"_graph", "_view", "_columns", "_lists"}
        assert state["_view"] is snapshot
        assert sorted(state["_columns"]) == topics
        assert sorted(state["_lists"]) == topics
        for topic in topics:
            column = state["_columns"][topic]
            assert isinstance(column, np.ndarray) and column.shape == (n,)
            assert state["_lists"][topic] == column.tolist()
