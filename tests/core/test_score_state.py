"""The array-backed ScoreState: ranking, entries and dict views.

``ranked`` / ``top_entries`` partition the score column down to the
top-n boundary instead of sorting a dict; every answer must equal the
one-sort dict oracle bit for bit, including ties at the cutoff.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ScoreParams
from repro.core.exact import ScoreState, single_source_scores
from repro.graph.builders import graph_from_edges
from tests.oracles import ranked as oracle_ranked

TOPIC = "technology"
# Non-contiguous, unsorted ids: the tie-break must follow node ids,
# not column positions.
NODE_IDS = (40, 7, 93, 12, 5, 61, 28, 3, 77, 50, 19, 88)


def _state(values, topo=None, node_ids=NODE_IDS):
    column = np.asarray(values, dtype=float)
    position = {node: i for i, node in enumerate(node_ids)}
    if topo is None:
        topo = np.arange(len(node_ids), dtype=float) + 0.5
    return ScoreState(node_ids[0], node_ids, position, {TOPIC: column},
                      np.asarray(topo, dtype=float),
                      np.asarray(topo, dtype=float) / 3.0)


def _old_to_dict(node_ids, column):
    """The bulk engine's former per-column dict extraction."""
    return {node_ids[int(i)]: float(column[int(i)])
            for i in np.nonzero(column)[0]}


def _hexed(pairs):
    return [(node, value.hex()) for node, value in pairs]


def _assert_matches_oracle(state, top_n, exclude):
    column = state.columns[TOPIC]
    expected = oracle_ranked(_old_to_dict(NODE_IDS, column), top_n, exclude)
    got = state.ranked(TOPIC, top_n=top_n, exclude=exclude)
    assert _hexed(got) == _hexed(expected)
    nodes, scores, topo, topo_ab = state.top_entries(TOPIC, top_n, exclude)
    assert nodes.tolist() == [node for node, _ in expected]
    assert [v.hex() for v in scores.tolist()] == [
        value.hex() for _, value in expected]
    assert [v.hex() for v in topo.tolist()] == [
        state.topo_beta.get(node, 0.0).hex() for node, _ in expected]
    assert [v.hex() for v in topo_ab.tolist()] == [
        state.topo_alphabeta.get(node, 0.0).hex() for node, _ in expected]


VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 0.5, 1.0, 2.0, -1.0, 5e-324,
                     math.inf, math.nan]),
    st.floats(min_value=-3.0, max_value=3.0))


class TestRankedProperty:
    @given(st.lists(VALUES, min_size=len(NODE_IDS), max_size=len(NODE_IDS)),
           st.one_of(st.none(), st.integers(min_value=0,
                                            max_value=len(NODE_IDS) + 3)),
           st.lists(st.sampled_from(NODE_IDS + (1000, -4)), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_matches_dict_oracle(self, values, top_n, exclude):
        _assert_matches_oracle(_state(values), top_n, exclude)

    @given(st.lists(VALUES, min_size=len(NODE_IDS), max_size=len(NODE_IDS)))
    @settings(max_examples=100, deadline=None)
    def test_views_equal_old_to_dict(self, values):
        state = _state(values)
        column = state.columns[TOPIC]
        expected = _old_to_dict(NODE_IDS, column)
        assert {k: v.hex() for k, v in state.scores[TOPIC].items()} == {
            k: v.hex() for k, v in expected.items()}
        assert dict(state.topo_beta) == _old_to_dict(
            NODE_IDS, state.topo_beta_column)
        assert dict(state.topo_alphabeta) == _old_to_dict(
            NODE_IDS, state.topo_alphabeta_column)


class TestRankedCases:
    def test_ties_straddling_the_cutoff_break_by_node_id(self):
        values = [0.0] * len(NODE_IDS)
        for node, value in {40: 3.0, 93: 2.0, 12: 2.0, 5: 2.0, 3: 2.0,
                            77: 1.0}.items():
            values[NODE_IDS.index(node)] = value
        state = _state(values)
        assert state.ranked(TOPIC, top_n=3) == [(40, 3.0), (3, 2.0),
                                                (5, 2.0)]
        for top_n in range(len(NODE_IDS) + 2):
            _assert_matches_oracle(state, top_n, ())

    @pytest.mark.parametrize("fill", [0.0, -0.0])
    def test_all_zero_column_ranks_nothing(self, fill):
        state = _state([fill] * len(NODE_IDS))
        assert state.ranked(TOPIC) == []
        assert state.ranked(TOPIC, top_n=3) == []
        assert all(column.size == 0
                   for column in state.top_entries(TOPIC, top_n=3))
        assert dict(state.scores[TOPIC]) == {}

    def test_excluded_nodes_in_and_out_of_the_snapshot(self):
        values = np.linspace(1.0, 2.0, len(NODE_IDS))
        state = _state(values)
        best = NODE_IDS[-1]
        ranked = state.ranked(TOPIC, top_n=2, exclude=(best, 12345))
        assert best not in [node for node, _ in ranked]
        assert len(ranked) == 2
        for exclude in [(best,), (12345,), (best, 12345)]:
            _assert_matches_oracle(state, 2, exclude)

    def test_top_n_none_and_larger_than_the_candidates(self):
        values = [0.0] * len(NODE_IDS)
        values[1], values[4], values[7] = 0.25, 0.75, 0.25
        state = _state(values)
        full = state.ranked(TOPIC)
        assert full == [(5, 0.75), (3, 0.25), (7, 0.25)]
        assert state.ranked(TOPIC, top_n=50) == full
        _assert_matches_oracle(state, None, ())
        _assert_matches_oracle(state, 50, (3,))

    def test_unknown_topic_is_empty(self):
        state = _state([1.0] * len(NODE_IDS))
        assert state.ranked("food") == []
        assert state.score(40, "food") == 0.0
        assert state.score(12345, TOPIC) == 0.0


class TestDictViews:
    def test_views_are_read_only_and_cached(self):
        state = _state([1.0] + [0.0] * (len(NODE_IDS) - 1))
        assert state.scores is state.scores
        assert state.topo_beta is state.topo_beta
        with pytest.raises(TypeError):
            state.scores[TOPIC][40] = 2.0
        with pytest.raises(TypeError):
            state.topo_beta[40] = 2.0

    def test_from_dicts_round_trips_the_dict_engine(self, web_sim):
        graph = graph_from_edges([(0, 1, [TOPIC]), (1, 2, [TOPIC]),
                                  (0, 3, ["food"]), (3, 2, [TOPIC])])
        state = single_source_scores(graph, 0, [TOPIC, "food"], web_sim,
                                     params=ScoreParams(beta=0.2))
        again = ScoreState.from_dicts(
            graph.snapshot(), state.source, state.scores, state.topo_beta,
            state.topo_alphabeta, iterations=state.iterations,
            converged=state.converged)
        assert again.scores == state.scores
        assert again.topo_beta == state.topo_beta
        assert again.topo_alphabeta == state.topo_alphabeta
        for node in range(4):
            assert again.score(node, TOPIC) == state.scores[TOPIC].get(
                node, 0.0)
        assert state.topo_beta[0] >= 1.0
