"""The shared ranker against the per-shard ``TopK`` merge oracle.

:func:`repro.core.exact.rank_dense` ranks every Algorithm-2 answer:
a positive, kept entry ranks by descending score, ties by ascending
node id; a lost shard is a masked position range; off-snapshot extras
rank beside the column and belong to no shard. The oracle reduces each
shard to a local top-n with ``TopK`` and merges the partials
(:func:`tests.oracles.merge_shard_partials`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import rank_dense
from repro.distributed.sharded import shard_bounds
from tests.oracles import merge_shard_partials, ranked

# A small value pool forces ties, at the n-th value too.
VALUES = st.one_of(
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 3.0]),
    st.floats(min_value=-1.0, max_value=10.0, allow_nan=False, width=32))
NO_SHARD = -1


@st.composite
def cases(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    column = np.array(draw(st.lists(VALUES, min_size=n, max_size=n)),
                      dtype=np.float64)
    # Unique ids in arbitrary order: the tie-break reads ids, not
    # positions.
    node_ids = draw(st.permutations(range(3 * n)))[:n]
    dropped = draw(st.lists(st.integers(min_value=0, max_value=max(n - 1, 0)),
                            max_size=4)) if n else []
    extras = draw(st.dictionaries(
        st.integers(min_value=1000, max_value=1020), VALUES, max_size=5))
    num_shards = draw(st.sampled_from([1, 2, 7]))
    lost = draw(st.sets(st.integers(min_value=0, max_value=num_shards - 1),
                        max_size=num_shards - 1))
    top_n = draw(st.integers(min_value=1, max_value=50))
    return column, node_ids, dropped, extras, num_shards, lost, top_n


def _rank(column, node_ids, keep, top_n, extras=None):
    nodes, _, values = rank_dense(column, node_ids, keep, top_n, extras)
    return list(zip(nodes.tolist(), values.tolist()))


@settings(max_examples=300, deadline=None)
@given(cases())
def test_matches_per_shard_topk_merge(case):
    column, node_ids, dropped, extras, num_shards, lost, top_n = case
    n = column.size
    keep = np.ones(n, dtype=bool)
    keep[dropped] = False
    owner = {}
    for spec in shard_bounds(n, num_shards) if n else []:
        for position in range(spec.lo, spec.hi):
            owner[node_ids[position]] = spec.shard_id
        if spec.shard_id in lost:
            keep[spec.lo:spec.hi] = False
    scores = {node_ids[i]: float(column[i]) for i in range(n)
              if i not in set(dropped)}
    scores.update(extras)
    expected = merge_shard_partials(
        scores, top_n, lambda node: owner.get(node, NO_SHARD), lost)
    assert _rank(column, node_ids, keep, top_n, extras) == expected


def test_forced_tie_at_the_cut_breaks_by_node_id():
    column = np.array([1.0, 2.0, 1.0, 1.0, 0.5])
    node_ids = [40, 7, 30, 10, 1]
    keep = np.ones(5, dtype=bool)
    assert _rank(column, node_ids, keep, 2) == [(7, 2.0), (10, 1.0)]
    assert _rank(column, node_ids, keep, 3) == [(7, 2.0), (10, 1.0),
                                                (30, 1.0)]


def test_top_n_at_least_candidates_ranks_all():
    column = np.array([0.0, 3.0, -1.0, 2.0, 2.0])
    node_ids = [0, 1, 2, 3, 4]
    keep = np.ones(5, dtype=bool)
    full = [(1, 3.0), (3, 2.0), (4, 2.0)]
    scores = dict(zip(node_ids, column.tolist()))
    for top_n in (3, 4, 100, None):
        assert _rank(column, node_ids, keep, top_n) == full
        assert _rank(column, node_ids, keep, top_n) == ranked(scores, top_n)


def test_all_zero_column_ranks_nothing():
    column = np.zeros(6)
    keep = np.ones(6, dtype=bool)
    assert _rank(column, list(range(6)), keep, 3) == []
    assert _rank(column, list(range(6)), keep, None) == []


def test_extras_rank_beside_the_column_and_ignore_the_mask():
    column = np.array([1.0, 0.5, 2.0])
    node_ids = [0, 1, 2]
    keep = np.array([True, True, False])
    extras = {99: 1.0, 50: 0.75, 77: 0.0}
    nodes, positions, values = rank_dense(column, node_ids, keep, None,
                                          extras)
    assert nodes.tolist() == [0, 99, 50, 1]
    assert values.tolist() == [1.0, 1.0, 0.75, 0.5]
    # On-snapshot entries keep their position; the k-th extra is -1-k.
    assert positions.tolist() == [0, -1, -2, 1]


@pytest.mark.parametrize("top_n", [1, 2, 5])
def test_extras_compete_for_the_cut(top_n):
    column = np.array([3.0, 1.0, 1.0])
    node_ids = [5, 6, 4]
    keep = np.ones(3, dtype=bool)
    extras = {3: 1.0, 2000: 4.0}
    scores = dict(zip(node_ids, column.tolist()))
    scores.update(extras)
    assert _rank(column, node_ids, keep, top_n, extras) == ranked(scores,
                                                                  top_n)
