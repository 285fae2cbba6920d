"""Tests for the sharded serving tier."""

import pytest

from repro import ScoreParams
from repro.config import LandmarkParams
from repro.datasets import generate_twitter_graph
from repro.distributed.sharded import (
    ShardChannel,
    ShardedPlatform,
    ShardRouter,
    shard_bounds,
)
from repro.errors import (
    ConfigurationError,
    ShardDownError,
    StaleSnapshotError,
)
from repro.landmarks import (
    ApproximateRecommender,
    LandmarkIndex,
    select_landmarks,
)
from repro.landmarks.query_engine import LandmarkVectorCache
from repro.obs import runtime as rt
from tests.oracles import approximate_ranking

PARAMS = ScoreParams(beta=0.004)
TOPIC = "technology"


@pytest.fixture(scope="module")
def world(web_sim):
    graph = generate_twitter_graph(250, seed=4)
    landmarks = select_landmarks(graph, "In-Deg", 15, rng=2)
    index = LandmarkIndex.build(
        graph, landmarks, [TOPIC], web_sim, params=PARAMS,
        landmark_params=LandmarkParams(num_landmarks=15, top_n=100))
    return graph, index


@pytest.fixture(scope="module")
def query_users(world):
    graph, index = world
    return [n for n in sorted(graph.nodes())
            if graph.out_degree(n) >= 3
            and n not in set(index.landmarks)][:6]


class TestShardBounds:
    def test_partition_of_positions(self):
        specs = shard_bounds(10, 3)
        assert [spec.shard_id for spec in specs] == [0, 1, 2]
        assert specs[0].lo == 0 and specs[-1].hi == 10
        for left, right in zip(specs, specs[1:]):
            assert left.hi == right.lo
        sizes = [spec.num_nodes for spec in specs]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_bounds_agree_with_router_division(self, world):
        graph, _ = world
        snapshot = graph.snapshot()
        router = ShardRouter(snapshot, 7)
        for position, node in enumerate(snapshot.node_ids):
            shard = router.shard_of(node)
            spec = router.specs[shard]
            assert spec.lo <= position < spec.hi

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ConfigurationError):
            shard_bounds(10, 0)
        with pytest.raises(ConfigurationError):
            shard_bounds(0, 3)

    def test_more_shards_than_nodes_leaves_empty_shards(self):
        specs = shard_bounds(3, 5)
        assert sum(spec.num_nodes for spec in specs) == 3
        assert [spec.is_empty for spec in specs].count(True) == 2
        assert all(spec.num_nodes == 1 for spec in specs
                   if not spec.is_empty)


class TestRouter:
    def test_routing_to_empty_shard_is_refused(self):
        graph = generate_twitter_graph(30, seed=1)
        snapshot = graph.snapshot()
        router = ShardRouter(snapshot, 40)
        # every real node still routes somewhere valid ...
        for node in snapshot.node_ids:
            spec = router.route(router.shard_of(node))
            assert not spec.is_empty
        # ... but the empty trailing shards are not routable
        with pytest.raises(ConfigurationError):
            router.route(39)
        with pytest.raises(ConfigurationError):
            router.route(40)

    def test_assignment_view_matches_range_partition(self, world):
        from repro.distributed import range_partition

        graph, _ = world
        snapshot = graph.snapshot()
        for num_shards in (1, 4, 7):
            router = ShardRouter(snapshot, num_shards)
            partition = router.partition()
            expected = range_partition(snapshot, num_shards)
            assert len(partition) == snapshot.num_nodes
            assert partition.tolist() == [expected[node]
                                          for node in snapshot.node_ids]


class TestParity:
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_bitwise_identical_to_single_machine(self, world, web_sim,
                                                 query_users, num_shards):
        graph, index = world
        single = ApproximateRecommender(graph, web_sim, index,
                                        params=PARAMS)
        platform = ShardedPlatform.build(graph, web_sim, index, num_shards,
                                         params=PARAMS)
        for user in query_users:
            expected = single.recommend(user, TOPIC, top_n=10)
            got = platform.recommend(user, TOPIC, top_n=10)
            assert got.pairs() == expected.pairs()  # bitwise, not approx
            assert got.degraded is False
            assert got.engine == "sharded"
            assert got.snapshot_epoch == platform.epoch

    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_query_engines_agree_bitwise(self, world, web_sim, query_users,
                                         num_shards):
        """The sharded tier answers exactly like the dict oracle, and
        its cost accounting covers exactly the landmarks the oracle
        composed (home-shard lists local, the rest shipped)."""
        from tests.oracles import approximate_scores

        graph, index = world
        platform = ShardedPlatform.build(graph, web_sim, index, num_shards,
                                         params=PARAMS)
        router = platform.router
        for user in query_users:
            got = platform.recommend(user, TOPIC, top_n=10)
            assert got.pairs() == approximate_ranking(
                graph, web_sim, index, user, TOPIC, params=PARAMS), user
            _, encountered, _ = approximate_scores(
                graph, web_sim, index, user, TOPIC, params=PARAMS)
            home = router.shard_of(user)
            remote = [landmark for landmark in encountered
                      if router.shard_of(landmark) != home]
            assert got.cost.local_landmarks == len(encountered) - len(remote)
            assert got.cost.remote_landmarks == len(remote)
            assert got.cost.entries_transferred == sum(
                len(index.recommendations(landmark, TOPIC))
                for landmark in remote)

    def test_cost_accounting_populated(self, world, web_sim, query_users):
        graph, index = world
        platform = ShardedPlatform.build(graph, web_sim, index, 4,
                                         params=PARAMS)
        response = platform.recommend(query_users[0], TOPIC, top_n=10)
        cost = response.cost
        assert cost is not None
        encountered = cost.local_landmarks + cost.remote_landmarks
        assert encountered >= 1
        if cost.remote_landmarks:
            assert cost.entries_transferred > 0
        assert cost.propagation.supersteps >= 1

    def test_single_shard_has_no_remote_traffic(self, world, web_sim,
                                                query_users):
        graph, index = world
        platform = ShardedPlatform.build(graph, web_sim, index, 1,
                                         params=PARAMS)
        response = platform.recommend(query_users[0], TOPIC, top_n=10)
        assert response.cost.remote_landmarks == 0
        assert response.cost.entries_transferred == 0
        assert platform.channel.fetches_total == 0


class TestDegradation:
    def _non_home_shard(self, platform, user):
        home = platform.router.shard_of(user)
        return next(shard for shard in range(platform.num_shards)
                    if shard != home
                    and not platform.router.specs[shard].is_empty)

    def test_remote_shard_down_degrades_but_answers(self, world, web_sim,
                                                    query_users):
        graph, index = world
        platform = ShardedPlatform.build(graph, web_sim, index, 4,
                                         params=PARAMS)
        user = query_users[0]
        platform.mark_down(self._non_home_shard(platform, user))
        response = platform.recommend(user, TOPIC, top_n=10)
        assert response.degraded is True
        pairs = response.pairs()
        assert pairs == sorted(pairs, key=lambda kv: (-kv[1], kv[0]))
        assert pairs  # still answers from the healthy shards

    def test_home_shard_down_fails_fast(self, world, web_sim, query_users):
        graph, index = world
        platform = ShardedPlatform.build(graph, web_sim, index, 4,
                                         params=PARAMS)
        user = query_users[0]
        platform.mark_down(platform.router.shard_of(user))
        with pytest.raises(ShardDownError):
            platform.recommend(user, TOPIC, top_n=10)
        platform.mark_up(platform.router.shard_of(user))
        assert platform.recommend(user, TOPIC, top_n=10)

    def test_degraded_is_subset_of_healthy_answer(self, world, web_sim,
                                                  query_users):
        graph, index = world
        platform = ShardedPlatform.build(graph, web_sim, index, 4,
                                         params=PARAMS)
        user = query_users[0]
        healthy = platform.recommend(user, TOPIC, top_n=10)
        down = self._non_home_shard(platform, user)
        platform.mark_down(down)
        degraded = platform.recommend(user, TOPIC, top_n=10)
        lost_nodes = set(platform.workers[down].node_ids)
        assert not lost_nodes & set(degraded.nodes())
        assert set(degraded.nodes()) <= set(
            healthy.nodes()) | (set(graph.nodes()) - lost_nodes)

    def test_totally_flaky_channel_degrades(self, world, web_sim,
                                            query_users):
        graph, index = world
        platform = ShardedPlatform.build(
            graph, web_sim, index, 4, params=PARAMS,
            channel=ShardChannel(failure_rate=1.0, seed=7))
        response = platform.recommend(query_users[0], TOPIC, top_n=10)
        assert response.degraded is True
        assert platform.channel.failures_total > 0

    def test_tiny_deadline_degrades(self, world, web_sim, query_users):
        graph, index = world
        platform = ShardedPlatform.build(
            graph, web_sim, index, 4, params=PARAMS,
            channel=ShardChannel(latency_ms=5.0))
        rt.enable(reset=True)
        try:
            response = platform.recommend(query_users[0], TOPIC, top_n=10,
                                          deadline_ms=6.0)
            counters = rt.snapshot()["counters"]
        finally:
            rt.disable()
        assert response.degraded is True
        assert counters.get("shard.deadline_exceeded_total", 0) >= 1

    def test_retry_recovers_from_transient_failures(self, world, web_sim,
                                                    query_users):
        graph, index = world
        single = ApproximateRecommender(graph, web_sim, index,
                                        params=PARAMS)
        platform = ShardedPlatform.build(
            graph, web_sim, index, 4, params=PARAMS, max_retries=8,
            deadline_ms=10_000.0,
            channel=ShardChannel(failure_rate=0.3, seed=11))
        user = query_users[0]
        response = platform.recommend(user, TOPIC, top_n=10)
        assert response.degraded is False
        assert response.pairs() == single.recommend(
            user, TOPIC, top_n=10).pairs()
        assert platform.channel.failures_total > 0


class TestOracleParity:
    """Bitwise parity with the dict oracle off the healthy path."""

    @pytest.mark.parametrize("num_shards", [2, 7])
    def test_down_shard_matches_oracle_with_lost_range(
            self, world, web_sim, query_users, num_shards):
        graph, index = world
        platform = ShardedPlatform.build(graph, web_sim, index, num_shards,
                                         params=PARAMS)
        for user in query_users:
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

    def test_failover_matches_oracle(self, world, web_sim, query_users):
        graph, index = world
        platform = ShardedPlatform.build(graph, web_sim, index, 4,
                                         replicas=2, params=PARAMS)
        for shard in range(platform.num_shards):
            platform.mark_down(shard, replica=0)
        for user in query_users:
            got = platform.recommend(user, TOPIC, top_n=10)
            assert got.degraded is False
            assert got.pairs() == approximate_ranking(
                graph, web_sim, index, user, TOPIC, params=PARAMS)

    def test_post_flip_matches_oracle_on_new_epoch(self, web_sim):
        from repro.dynamics import GraphStream, simulate_churn

        graph = generate_twitter_graph(200, seed=12)
        landmarks = select_landmarks(graph, "In-Deg", 8, rng=3)
        index = LandmarkIndex.build(
            graph, landmarks, [TOPIC], web_sim, params=PARAMS,
            landmark_params=LandmarkParams(num_landmarks=8, top_n=60))
        platform = ShardedPlatform.build(graph, web_sim, index, 3,
                                         replicas=2, params=PARAMS)
        users = [n for n in sorted(graph.nodes())
                 if graph.out_degree(n) >= 3 and n not in set(landmarks)][:5]
        for user in users:
            platform.recommend(user, TOPIC, top_n=10)
        GraphStream(graph).apply_all(simulate_churn(graph, 20, seed=4))
        platform.rollover()
        assert platform.epoch == graph.epoch
        for user in users:
            got = platform.recommend(user, TOPIC, top_n=10)
            assert got.served_epoch == graph.epoch
            assert got.pairs() == approximate_ranking(
                graph, web_sim, platform.index, user, TOPIC, params=PARAMS)


class TestNoPerRequestState:
    def test_workers_hold_no_per_node_state(self, web_sim):
        """2,000 distinct users later, every worker still holds only
        what it was built with: its homed lists and their vectors,
        bounded by landmarks × topics — nothing per node served."""
        topics = [TOPIC, "sports"]
        graph = generate_twitter_graph(2100, seed=21)
        landmarks = select_landmarks(graph, "In-Deg", 12, rng=5)
        index = LandmarkIndex.build(
            graph, landmarks, topics, web_sim, params=PARAMS,
            landmark_params=LandmarkParams(num_landmarks=12, top_n=40))
        platform = ShardedPlatform.build(graph, web_sim, index, 4,
                                         replicas=2, params=PARAMS)
        users = sorted(graph.nodes())[:2000]
        for i, user in enumerate(users):
            platform.recommend(user, topics[i % 2], top_n=10)
        bound = len(landmarks) * len(topics)
        for replica_set in platform.replica_sets:
            for worker in replica_set.replicas:
                homed = len(worker.landmarks) * len(topics)
                assert len(worker._vector_cache) <= homed
                for name, value in vars(worker).items():
                    if name == "node_ids":  # the shard's range, fixed
                        continue
                    if isinstance(value, (dict, list, set, tuple,
                                          LandmarkVectorCache)):
                        assert len(value) <= bound, (name, len(value))


class TestEpochs:
    def test_epoch_mismatch_raises_then_allow_stale_serves(self, web_sim):
        graph = generate_twitter_graph(80, seed=9)
        landmarks = select_landmarks(graph, "In-Deg", 6, rng=1)
        index = LandmarkIndex.build(
            graph, landmarks, [TOPIC], web_sim, params=PARAMS,
            landmark_params=LandmarkParams(num_landmarks=6, top_n=50))
        platform = ShardedPlatform.build(graph, web_sim, index, 3,
                                         params=PARAMS)
        user = next(n for n in sorted(graph.nodes())
                    if graph.out_degree(n) >= 3
                    and n not in set(landmarks))
        before = platform.recommend(user, TOPIC, top_n=5)
        source, target = sorted(graph.nodes())[:2]
        graph.add_edge(source, target, (TOPIC,))
        with pytest.raises(StaleSnapshotError):
            platform.recommend(user, TOPIC, top_n=5)
        after = platform.recommend(user, TOPIC, top_n=5, allow_stale=True)
        assert after.pairs() == before.pairs()


class TestObservability:
    def test_per_shard_counters_and_gauges(self, world, web_sim,
                                           query_users):
        graph, index = world
        platform = ShardedPlatform.build(graph, web_sim, index, 4,
                                         params=PARAMS)
        user = query_users[0]
        home = platform.router.shard_of(user)
        platform.mark_down(self._other_shard(platform, user))
        rt.enable(reset=True)
        try:
            platform.recommend(user, TOPIC, top_n=10)
            snap = rt.snapshot()
        finally:
            rt.disable()
        counters, gauges = snap["counters"], snap["gauges"]
        assert counters["shard.requests_total"] == 1
        assert counters["shard.degraded_total"] == 1
        assert f"shard.{home}.queue_depth" in gauges
        assert gauges[f"shard.{home}.queue_depth"] == 0.0
        stages = snap["stages"]
        for stage in ("shard.serve", "shard.explore", "shard.compose",
                      "shard.merge"):
            assert stage in stages

    def test_remote_fetch_counter(self, world, web_sim, query_users):
        graph, index = world
        platform = ShardedPlatform.build(graph, web_sim, index, 4,
                                         params=PARAMS)
        rt.enable(reset=True)
        try:
            response = platform.recommend(query_users[0], TOPIC, top_n=10)
            counters = rt.snapshot()["counters"]
        finally:
            rt.disable()
        assert (counters.get("shard.remote_fetches_total", 0)
                == response.cost.remote_landmarks)

    @staticmethod
    def _other_shard(platform, user):
        home = platform.router.shard_of(user)
        return next(shard for shard in range(platform.num_shards)
                    if shard != home
                    and not platform.router.specs[shard].is_empty)

    def test_worker_request_counter_on_home_shard(self, world, web_sim,
                                                  query_users):
        graph, index = world
        platform = ShardedPlatform.build(graph, web_sim, index, 4,
                                         params=PARAMS)
        user = query_users[0]
        home = platform.workers[platform.router.shard_of(user)]
        before = home.requests_total
        platform.recommend(user, TOPIC, top_n=5)
        assert home.requests_total == before + 1
        assert home.queue_depth == 0
