"""Off-snapshot landmark-list entries on every Algorithm-2 serving path.

A landmark list may name a node the serving snapshot does not hold
(installed through ``set_recommendations``, or a list loaded from an
older index). Composition keeps such entries beside the dense column
as *extras*; every ranker must rank them the same way — the sharded
tier too, where an extra belongs to no shard and so is never lost.
"""

import pytest

from repro import ScoreParams
from repro.config import LandmarkParams
from repro.datasets import generate_twitter_graph
from repro.distributed import DistributedLandmarkService, hash_partition
from repro.distributed.sharded import ShardedPlatform
from repro.landmarks import (
    ApproximateRecommender,
    LandmarkEntry,
    LandmarkIndex,
    select_landmarks,
)
from tests.oracles import approximate_ranking

PARAMS = ScoreParams(beta=0.004)
TOPIC = "technology"
OFF_SNAPSHOT = 1299


def _index(graph, web_sim):
    landmarks = select_landmarks(graph, "In-Deg", 8, rng=1)
    return LandmarkIndex.build(
        graph, landmarks, [TOPIC], web_sim, params=PARAMS,
        landmark_params=LandmarkParams(num_landmarks=8, top_n=50))


@pytest.fixture(scope="module", params=["only", "mixed"])
def world(request, web_sim):
    """``only``: every list is one off-snapshot entry. ``mixed``: the
    built lists plus a shared and a per-landmark off-snapshot entry."""
    graph = generate_twitter_graph(300, seed=9)
    index = _index(graph, web_sim)
    for i, landmark in enumerate(sorted(index.landmarks)):
        extra = [LandmarkEntry(OFF_SNAPSHOT, 0.5, 0.25, 0.125)]
        if request.param == "only":
            index.set_recommendations(landmark, TOPIC, extra)
        else:
            extra.append(LandmarkEntry(2000 + i, 1e-4 * (i + 1), 1e-5, 1e-5))
            index.set_recommendations(
                landmark, TOPIC,
                list(index.recommendations(landmark, TOPIC)) + extra)
    users = [n for n in sorted(graph.nodes())
             if graph.out_degree(n) >= 2
             and n not in set(index.landmarks)][:6]
    return graph, index, users


@pytest.mark.parametrize("num_shards", [1, 2, 7])
def test_sharded_matches_single_machine(world, web_sim, num_shards):
    graph, index, users = world
    single = ApproximateRecommender(graph, web_sim, index, params=PARAMS)
    platform = ShardedPlatform.build(graph, web_sim, index, num_shards,
                                     params=PARAMS)
    hit = False
    for user in users:
        expected = single.recommend(user, TOPIC, top_n=10).pairs()
        got = platform.recommend(user, TOPIC, top_n=10)
        assert got.pairs() == expected, user  # bitwise
        assert got.degraded is False
        assert got.pairs() == approximate_ranking(
            graph, web_sim, index, user, TOPIC, params=PARAMS), user
        hit = hit or OFF_SNAPSHOT in got.nodes()
    assert hit  # the off-snapshot node did reach the answers


@pytest.mark.parametrize("num_shards", [2, 7])
def test_down_shard_keeps_extras(world, web_sim, num_shards):
    graph, index, users = world
    platform = ShardedPlatform.build(graph, web_sim, index, num_shards,
                                     params=PARAMS)
    for user in users:
        home = platform.router.shard_of(user)
        down = next(shard for shard in range(num_shards)
                    if shard != home
                    and not platform.router.specs[shard].is_empty)
        platform.mark_down(down)
        try:
            got = platform.recommend(user, TOPIC, top_n=10)
        finally:
            platform.mark_up(down)
        lost = frozenset(platform.workers[down].node_ids)
        assert got.degraded is True
        assert got.pairs() == approximate_ranking(
            graph, web_sim, index, user, TOPIC, params=PARAMS,
            lost=lost), (user, down)


def test_partitioned_service_matches_single_machine(world, web_sim):
    graph, index, users = world
    single = ApproximateRecommender(graph, web_sim, index, params=PARAMS)
    service = DistributedLandmarkService(
        graph, hash_partition(graph, 3), web_sim, index, params=PARAMS)
    for user in users:
        expected = single.recommend(user, TOPIC, top_n=10).pairs()
        assert service.recommend(user, TOPIC, top_n=10).pairs() == expected
        scores, _ = service.scores_with_cost(user, TOPIC)
        assert scores == single.query(user, TOPIC).scores
