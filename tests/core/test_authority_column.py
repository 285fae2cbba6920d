"""``AuthorityIndex.column`` equals the per-node formula bit for bit.

One topic's authority over every node is computed once, in numpy,
from the view's follower-count column; the scalar ``auth`` reads the
same column. Both must match the node-by-node oracle
(:func:`tests.oracles.auth`) by ``float.hex`` on every view the
scorers read: graph-built snapshots, RAM and mmap stores, and a
:class:`DeltaSnapshot` holding pending follow / unfollow / retopic
events.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LandmarkParams, ScoreParams
from repro.core.fast import scipy_available
from repro.core.scores import AuthorityIndex
from repro.datasets import generate_twitter_graph
from repro.errors import NodeNotFoundError
from repro.graph import LabeledSocialGraph
from repro.graph.events import EdgeEvent, EventKind
from repro.graph.io import open_snapshot, save_snapshot
from repro.graph.overlay import DeltaSnapshot
from repro.landmarks import LandmarkIndex
from repro.landmarks.frontier import refresh_landmarks
from tests.oracles import auth as oracle_auth

# Non-contiguous ids, so dense positions differ from node ids.
NODES = [0, 2, 5, 9, 13, 20, 21]
EDGE_TOPICS = ["technology", "bigdata", "food", "social"]
#: On a profile but on no edge: present, with max_v |Γv(t)| == 0.
PROFILE_ONLY = "art"
#: In no profile and on no edge.
ABSENT = "music"
ALL_TOPICS = EDGE_TOPICS + [PROFILE_ONLY, ABSENT]

edge_strategy = st.tuples(
    st.sampled_from(NODES), st.sampled_from(NODES)).filter(
    lambda pair: pair[0] != pair[1])
label_strategy = st.lists(st.sampled_from(EDGE_TOPICS), max_size=3,
                          unique=True)
edges_strategy = st.lists(st.tuples(edge_strategy, label_strategy),
                          min_size=1, max_size=30)
event_strategy = st.tuples(
    st.sampled_from([EventKind.FOLLOW, EventKind.UNFOLLOW,
                     EventKind.RETOPIC]),
    edge_strategy, label_strategy)


def _graph(edges):
    graph = LabeledSocialGraph()
    for node in NODES:
        graph.add_node(node, [PROFILE_ONLY] if node == 0 else ())
    for (source, target), label in edges:
        graph.add_edge(source, target, label)
    return graph


def _column_hex(view, authority, topic):
    column = authority.column(topic)
    return [column[view.index_of(node)].hex() for node in view.nodes()]


def _oracle_hex(view, topic):
    return [oracle_auth(view, node, topic).hex() for node in view.nodes()]


def _assert_matches_oracle(view):
    authority = AuthorityIndex(view)
    for topic in ALL_TOPICS:
        assert _column_hex(view, authority, topic) == _oracle_hex(view, topic)
        assert ([authority.auth(node, topic).hex() for node in view.nodes()]
                == _oracle_hex(view, topic))


class TestColumnMatchesOracle:
    @given(edges_strategy)
    @settings(max_examples=60, deadline=None)
    def test_graph_built_ram_and_mmap_snapshots(self, edges):
        graph = _graph(edges)
        _assert_matches_oracle(graph.snapshot())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "snap"
            save_snapshot(graph.snapshot(), path)
            for store in ("ram", "mmap"):
                _assert_matches_oracle(open_snapshot(path, store=store))

    @given(edges_strategy, st.lists(event_strategy, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_delta_snapshot_with_pending_events(self, edges, events):
        overlay = DeltaSnapshot(_graph(edges).snapshot())
        half = len(events) // 2
        stale = overlay.authority()
        applied_since = 0
        for time, (kind, (source, target), label) in enumerate(events):
            if time == half:
                stale = overlay.authority()
                stale.warm(EDGE_TOPICS)
                applied_since = 0
            topics = () if kind is EventKind.UNFOLLOW else tuple(label)
            applied_since += overlay.apply(
                EdgeEvent(kind, source, target, topics, time))
        _assert_matches_oracle(overlay)
        # An applied event drops the overlay's shared index.
        shared = overlay.authority()
        assert (shared is not stale) == bool(applied_since)
        for topic in EDGE_TOPICS:
            assert (_column_hex(overlay, shared, topic)
                    == _oracle_hex(overlay, topic))

    def test_contiguous_ids_over_a_generated_graph(self, tmp_path):
        graph = generate_twitter_graph(300, seed=3)
        save_snapshot(graph.snapshot(), tmp_path / "snap")
        mapped = open_snapshot(tmp_path / "snap", store="mmap")
        topics = sorted(mapped.topics()) + [ABSENT]
        authority = mapped.authority()
        for topic in topics:
            assert (_column_hex(mapped, authority, topic)
                    == _oracle_hex(mapped, topic))


class TestEdgeCases:
    def test_zero_followers_absent_topic_and_zero_max(self):
        graph = _graph([((2, 5), ["technology"])])
        snapshot = graph.snapshot()
        authority = snapshot.authority()
        assert snapshot.max_followers_on(PROFILE_ONLY) == 0
        assert PROFILE_ONLY in snapshot.topics()
        assert ABSENT not in snapshot.topics()
        for topic in (PROFILE_ONLY, ABSENT):
            column = authority.column(topic)
            assert column.shape == (len(NODES),)
            assert not column.any()
        tech = authority.column("technology")
        assert tech[snapshot.index_of(5)] == 1.0
        # Nodes nobody follows score 0, whatever the topic.
        for node in NODES:
            if node != 5:
                assert tech[snapshot.index_of(node)] == 0.0

    def test_column_is_read_only(self):
        authority = _graph([((2, 5), ["food"])]).snapshot().authority()
        with pytest.raises(ValueError):
            authority.column("food")[0] = 1.0

    def test_invalidate_after_a_live_graph_mutation(self):
        graph = _graph([((2, 5), ["technology"]), ((9, 5), ["food"])])
        authority = AuthorityIndex(graph)
        before = authority.column("technology").copy()
        assert authority.auth(5, "technology") == 0.5
        graph.add_edge(13, 5, ["technology"])
        graph.add_edge(13, 9, ["technology"])
        # Without invalidate() the index keeps reading its pinned view.
        assert np.array_equal(authority.column("technology"), before)
        authority.invalidate()
        fresh = graph.snapshot()
        assert (_column_hex(fresh, authority, "technology")
                == _oracle_hex(fresh, "technology"))
        assert authority.auth(5, "technology") == (2 / 3) * (
            math.log1p(2) / math.log1p(2))

    def test_column_for_a_snapshot_in_another_order(self):
        graph = _graph([((2, 5), ["food"]), ((9, 21), ["food"]),
                        ((13, 21), ["food", "social"])])
        authority = AuthorityIndex(graph.snapshot())
        with tempfile.TemporaryDirectory() as tmp:
            save_snapshot(graph.snapshot(), Path(tmp) / "s")
            loaded = open_snapshot(Path(tmp) / "s", store="ram")
            # Same node order in another container: the column itself.
            assert authority.column("food", loaded) is authority.column("food")
        # Fewer nodes: positions shift, values follow the node ids.
        other = LabeledSocialGraph()
        other.add_edge(21, 9, ["food"])
        other.add_edge(2, 13, ["food"])
        subset = other.snapshot()
        gathered = authority.column("food", subset)
        assert [gathered[subset.index_of(node)] for node in (2, 9, 13, 21)] \
            == [authority.auth(node, "food") for node in (2, 9, 13, 21)]
        other.add_edge(99, 21, ["food"])
        with pytest.raises(NodeNotFoundError):
            authority.column("food", other.snapshot())


class TestSharedIndex:
    def test_contiguous_range_and_tuple_orders_share_the_column(self,
                                                                tmp_path):
        graph = generate_twitter_graph(60, seed=5)
        save_snapshot(graph.snapshot(), tmp_path / "snap")
        mapped = open_snapshot(tmp_path / "snap", store="mmap")
        assert isinstance(mapped.node_ids, range)
        built = graph.snapshot()
        assert isinstance(built.node_ids, tuple)
        assert list(mapped.node_ids) == list(built.node_ids)
        topic = sorted(mapped.topics())[0]
        authority = mapped.authority()
        # Equal order in another container: no per-node re-gather.
        assert authority.column(topic, built) is authority.column(topic)
        assert built.authority().column(topic, mapped) is \
            built.authority().column(topic)

    def test_refresh_without_authority_uses_the_views_index(
            self, monkeypatch, web_sim):
        graph = generate_twitter_graph(120, seed=11)
        topics = ["technology", "food"]
        index = LandmarkIndex.build(
            graph, [0, 1], topics, web_sim, params=ScoreParams(beta=0.05),
            landmark_params=LandmarkParams(top_n=10), engine="dict")
        built = []
        original = AuthorityIndex._build_column

        def counting(self, topic):
            built.append((id(self), topic))
            return original(self, topic)

        monkeypatch.setattr(AuthorityIndex, "_build_column", counting)
        shared = graph.snapshot().authority()
        shared.invalidate()
        engines = ["dict"] + (["sparse"] if scipy_available() else [])
        for engine in engines:
            refresh_landmarks(index, graph, [0, 1], topics, web_sim,
                              engine=engine)
        # Every engine reads the live graph's cached snapshot's index,
        # which builds each topic's column once.
        assert sorted(built) == sorted((id(shared), t) for t in topics)
