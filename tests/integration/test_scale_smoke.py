"""Scale smoke: the full out-of-core path on a medium graph.

Stream-generate → versioned snapshot directory → mmap-backed
``GraphSnapshot`` → sampled landmark build → serve, without ever
materialising the graph as Python objects. CI runs this file by path
as the ``scale-smoke`` job; ``benchmarks/bench_ext_scaling.py`` pushes
the identical pipeline to 1M nodes / 10M edges.
"""

import pytest

from repro.config import LandmarkParams, ScoreParams
from repro.datasets import generate_twitter_snapshot_stream
from repro.datasets.twitter import TwitterConfig
from repro.graph import open_snapshot
from repro.landmarks import (
    ApproximateRecommender,
    LandmarkIndex,
    select_landmarks,
)
from tests.oracles import approximate_ranking

NODES = 30_000
TOPIC = "technology"
PARAMS = ScoreParams(beta=0.005, alpha=0.85)
LANDMARK_PARAMS = LandmarkParams(num_landmarks=16, top_n=50,
                                 precompute_depth=2)


@pytest.fixture(scope="module")
def streamed_snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("scale") / "medium"
    stats = generate_twitter_snapshot_stream(
        path, NODES, seed=13, config=TwitterConfig(avg_out_degree=10.0),
        checkpoint_every=10_000)
    return path, stats


@pytest.mark.slow
class TestScaleSmoke:
    def test_streamed_graph_serves_through_mmap(self, streamed_snapshot,
                                                web_sim):
        path, stats = streamed_snapshot
        assert stats.checkpoints >= 2  # the resumable path really ran
        snapshot = open_snapshot(path, store="mmap", verify=True)
        assert snapshot.num_nodes == NODES
        assert snapshot.bytes_resident == 0

        landmarks = select_landmarks(snapshot, "Random",
                                     LANDMARK_PARAMS.num_landmarks, rng=9)
        index = LandmarkIndex.build(
            snapshot, landmarks, [TOPIC], web_sim, params=PARAMS,
            landmark_params=LANDMARK_PARAMS, engine="dict")
        recommender = ApproximateRecommender(snapshot, web_sim, index)
        served = 0
        for query in range(0, NODES, NODES // 40):
            if snapshot.out_degree(query) < 2 or query in set(landmarks):
                continue
            results = recommender.recommend(query, TOPIC, top_n=10)
            assert query not in [r.node for r in results]
            served += 1
        assert served >= 20

    def test_mmap_and_ram_agree_at_scale(self, streamed_snapshot,
                                         web_sim):
        path, _ = streamed_snapshot
        mapped = open_snapshot(path, store="mmap")
        resident = open_snapshot(path, store="ram")
        landmarks = select_landmarks(mapped, "Random",
                                     LANDMARK_PARAMS.num_landmarks, rng=9)
        index = LandmarkIndex.build(
            mapped, landmarks, [TOPIC], web_sim, params=PARAMS,
            landmark_params=LANDMARK_PARAMS, engine="dict")
        queries = [q for q in range(0, NODES, NODES // 10)
                   if mapped.out_degree(q) >= 2
                   and q not in set(landmarks)][:5]
        for query in queries:
            served = ApproximateRecommender(mapped, web_sim, index).recommend(
                query, TOPIC, top_n=10)
            assert served == ApproximateRecommender(
                resident, web_sim, index).recommend(query, TOPIC, top_n=10)
            assert served.pairs() == approximate_ranking(
                mapped, web_sim, index, query, TOPIC)
