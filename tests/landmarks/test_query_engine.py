"""Vectorized query engine: parity, cache correctness, staleness override.

The engine's contract is *bitwise* parity with the dict oracle in
``tests/oracles`` — same floats, same ranking, same encountered
landmarks — plus an epoch/version-keyed vector cache that can never
serve stale arrays.
"""

import pytest

from repro import ScoreParams
from repro.config import LandmarkParams
from repro.datasets import generate_twitter_graph
from repro.errors import ConfigurationError, StaleSnapshotError
from repro.landmarks import ApproximateRecommender, LandmarkIndex
from repro.landmarks.index import LandmarkEntry
from repro.landmarks.query_engine import (
    LandmarkVectorCache,
    QueryEngine,
    vectors_from_entries,
)
from repro.landmarks.selection import select_landmarks
from tests.oracles import approximate_ranking, approximate_scores

PARAMS = ScoreParams(beta=0.004)
TOPIC = "technology"


def build_world(nodes=250, seed=4, num_landmarks=15, top_n=100):
    graph = generate_twitter_graph(nodes, seed=seed)
    landmarks = select_landmarks(graph, "In-Deg", num_landmarks, rng=2)
    from repro import SimilarityMatrix, web_taxonomy
    sim = SimilarityMatrix.from_taxonomy(web_taxonomy())
    index = LandmarkIndex.build(
        graph, landmarks, [TOPIC], sim, params=PARAMS,
        landmark_params=LandmarkParams(num_landmarks=num_landmarks,
                                       top_n=top_n))
    return graph, sim, index


@pytest.fixture(scope="module")
def world():
    return build_world()


@pytest.fixture(scope="module")
def query_users(world):
    graph, _, index = world
    return [n for n in sorted(graph.nodes())
            if graph.out_degree(n) >= 2
            and n not in set(index.landmarks)][:5]


class TestBitwiseParity:
    """Engine and dict oracle answers must be float-for-float identical."""

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, None])
    def test_query_scores_identical(self, world, query_users, depth):
        graph, sim, index = world
        fast = ApproximateRecommender(graph, sim, index, params=PARAMS)
        for user in query_users:
            scores, encountered, state = approximate_scores(
                graph, sim, index, user, TOPIC, depth=depth, params=PARAMS)
            got = fast.query(user, TOPIC, depth=depth)
            assert got.landmarks_encountered == tuple(encountered)
            assert set(got.scores) == set(scores)
            for node, value in scores.items():
                assert got.scores[node] == value, (
                    user, depth, node, value.hex(), got.scores[node].hex())
            assert got.exploration.topo_alphabeta == state.topo_alphabeta
            assert got.exploration.iterations == state.iterations

    @pytest.mark.parametrize("exclude_followed", [True, False])
    def test_recommend_ranking_identical(self, world, query_users,
                                         exclude_followed):
        graph, sim, index = world
        fast = ApproximateRecommender(graph, sim, index, params=PARAMS)
        for user in query_users:
            for top_n in (5, 10, 50):
                expected = approximate_ranking(
                    graph, sim, index, user, TOPIC, top_n=top_n,
                    params=PARAMS, exclude_followed=exclude_followed)
                got = fast.recommend(user, TOPIC, top_n=top_n,
                                     exclude_followed=exclude_followed)
                assert got.pairs() == expected

    def test_landmark_queries_own_list_at_depth_zero(self, world):
        """depth=0 composes the user's own stored list (topo_ab(u,u)=1);
        engine and oracle must agree on that edge case too."""
        graph, sim, index = world
        fast = ApproximateRecommender(graph, sim, index, params=PARAMS)
        landmark = sorted(index.landmarks)[0]
        expected, _, _ = approximate_scores(graph, sim, index, landmark,
                                            TOPIC, depth=0, params=PARAMS)
        got = fast.query(landmark, TOPIC, depth=0)
        assert got.scores == expected
        stored = {e.node: e.score
                  for e in index.recommendations(landmark, TOPIC)}
        for node, score in stored.items():
            assert got.scores[node] == score

    def test_explore_matches_reference_state(self, world, query_users):
        """The batched frontier expansion alone is bitwise-identical to
        single_source_scores with the same absorbing set."""
        from repro.core.exact import single_source_scores

        graph, sim, index = world
        snapshot = graph.snapshot()
        engine = QueryEngine(snapshot, sim, PARAMS)
        absorbing = frozenset(index.landmarks)
        for user in query_users:
            for depth in (1, 2, 3):
                dense = engine.explore(user, TOPIC, depth,
                                       absorbing=absorbing)
                state = dense.to_state(snapshot, TOPIC)
                expected = single_source_scores(
                    snapshot, user, [TOPIC], sim, params=PARAMS,
                    max_depth=depth, absorbing=absorbing)
                assert state.scores[TOPIC] == expected.scores[TOPIC]
                assert state.topo_beta == expected.topo_beta
                assert state.topo_alphabeta == expected.topo_alphabeta
                assert state.iterations == expected.iterations

    def test_absorbing_mask_equals_node_set(self, world, query_users):
        """A boolean position mask absorbs exactly like the node set it
        marks (the sharded tier passes masks)."""
        import numpy as np

        graph, sim, index = world
        snapshot = graph.snapshot()
        engine = QueryEngine(snapshot, sim, PARAMS)
        absorbing = frozenset(index.landmarks)
        mask = engine.absorbing_mask(absorbing)
        assert int(mask.sum()) == len(absorbing)
        for user in query_users:
            by_set = engine.explore(user, TOPIC, 3, absorbing=absorbing)
            by_mask = engine.explore(user, TOPIC, 3, absorbing=mask)
            for name in ("scores", "topo_beta", "topo_alphabeta"):
                assert np.array_equal(getattr(by_set, name),
                                      getattr(by_mask, name))

    def test_warm_builds_per_topic_arrays_once(self, world, query_users):
        graph, sim, _ = world
        engine = QueryEngine(graph.snapshot(), sim, PARAMS)
        engine.warm([TOPIC])
        auth = engine._auth_values(TOPIC)
        engine.explore(query_users[0], TOPIC, 2)
        assert engine._auth_values(TOPIC) is auth


class TestLandmarkVectorCache:
    def test_hit_and_miss_accounting(self, world):
        graph, _, index = world
        snapshot = graph.snapshot()
        entries = index.recommendations(sorted(index.landmarks)[0], TOPIC)
        cache = LandmarkVectorCache()
        builds = []

        def build():
            vectors = vectors_from_entries(snapshot, entries, 0)
            builds.append(vectors)
            return vectors

        first = cache.get_or_build(snapshot.epoch, 1, TOPIC, 0, build)
        second = cache.get_or_build(snapshot.epoch, 1, TOPIC, 0, build)
        assert first is second
        assert len(builds) == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_version_mismatch_is_a_miss(self, world):
        graph, _, index = world
        snapshot = graph.snapshot()
        entries = index.recommendations(sorted(index.landmarks)[0], TOPIC)
        cache = LandmarkVectorCache()
        cache.get_or_build(snapshot.epoch, 1, TOPIC, 0,
                           lambda: vectors_from_entries(snapshot, entries, 0))
        rebuilt = cache.get_or_build(
            snapshot.epoch, 1, TOPIC, 7,
            lambda: vectors_from_entries(snapshot, entries, 7))
        assert rebuilt.version == 7
        assert cache.misses == 2

    def test_epoch_is_part_of_the_key(self, world):
        graph, _, index = world
        snapshot = graph.snapshot()
        entries = index.recommendations(sorted(index.landmarks)[0], TOPIC)
        cache = LandmarkVectorCache()
        build = lambda: vectors_from_entries(snapshot, entries, 0)  # noqa: E731
        cache.get_or_build(1, 1, TOPIC, 0, build)
        cache.get_or_build(2, 1, TOPIC, 0, build)
        assert cache.misses == 2
        assert len(cache) == 2

    def test_lru_bound_evicts_oldest(self, world):
        graph, _, index = world
        snapshot = graph.snapshot()
        entries = index.recommendations(sorted(index.landmarks)[0], TOPIC)
        cache = LandmarkVectorCache(max_entries=2)
        build = lambda: vectors_from_entries(snapshot, entries, 0)  # noqa: E731
        for landmark in (1, 2, 3):
            cache.get_or_build(0, landmark, TOPIC, 0, build)
        assert len(cache) == 2
        # landmark 1 was evicted; touching it again is a miss
        cache.get_or_build(0, 1, TOPIC, 0, build)
        assert cache.misses == 4

    def test_max_entries_validated(self):
        with pytest.raises(ConfigurationError):
            LandmarkVectorCache(max_entries=0)

    def test_clear_drops_entries_but_keeps_counters(self, world):
        graph, _, index = world
        snapshot = graph.snapshot()
        entries = index.recommendations(sorted(index.landmarks)[0], TOPIC)
        cache = LandmarkVectorCache()
        cache.get_or_build(0, 1, TOPIC, 0,
                           lambda: vectors_from_entries(snapshot, entries, 0))
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1


class TestCacheInvalidation:
    """The fast path must see index refreshes and graph mutations."""

    def test_set_recommendations_invalidates_cached_vectors(self):
        graph, sim, index = build_world(nodes=200, seed=9, num_landmarks=8,
                                        top_n=50)
        fast = ApproximateRecommender(graph, sim, index, params=PARAMS)
        user = next(n for n in sorted(graph.nodes())
                    if graph.out_degree(n) >= 2
                    and n not in set(index.landmarks))
        before = fast.recommend(user, TOPIC, top_n=10)
        assert before.pairs() == approximate_ranking(
            graph, sim, index, user, TOPIC, params=PARAMS)

        # A maintainer-style in-place refresh: overwrite every list
        # with a single synthetic entry. Same epoch, new versions.
        target = max(graph.nodes()) + 1000  # off-snapshot -> extras path
        for landmark in index.landmarks:
            index.set_recommendations(landmark, TOPIC, [
                LandmarkEntry(node=target, score=0.5, topo=0.25,
                              topo_ab=0.125)])
        after_fast = fast.recommend(user, TOPIC, top_n=10)
        assert after_fast.pairs() == approximate_ranking(
            graph, sim, index, user, TOPIC, params=PARAMS)
        assert after_fast.pairs() != before.pairs()

    def test_epoch_bump_invalidates_cached_vectors(self):
        graph, sim, index = build_world(nodes=200, seed=9, num_landmarks=8,
                                        top_n=50)
        fast = ApproximateRecommender(graph, sim, index, params=PARAMS)
        user = next(n for n in sorted(graph.nodes())
                    if graph.out_degree(n) >= 2
                    and n not in set(index.landmarks))
        fast.recommend(user, TOPIC, top_n=10)
        epoch_before = graph.epoch

        # Mutate the live graph: the recommender re-pins the fresh
        # snapshot on the next call and must still match the oracle.
        nodes = sorted(graph.nodes())
        graph.add_edge(user, nodes[-1], [TOPIC])
        assert graph.epoch != epoch_before
        after_fast = fast.recommend(user, TOPIC, top_n=10)
        assert after_fast.pairs() == approximate_ranking(
            graph, sim, index, user, TOPIC, params=PARAMS)
        assert after_fast.snapshot_epoch == graph.epoch

    def test_shared_cache_tracks_miss_then_hit(self):
        graph, sim, index = build_world(nodes=200, seed=9, num_landmarks=8,
                                        top_n=50)
        cache = LandmarkVectorCache()
        fast = ApproximateRecommender(graph, sim, index, params=PARAMS,
                                      vector_cache=cache)
        user = next(n for n in sorted(graph.nodes())
                    if graph.out_degree(n) >= 2
                    and n not in set(index.landmarks))
        fast.recommend(user, TOPIC, top_n=10)
        misses_first = cache.misses
        assert misses_first > 0
        # Second query on an unchanged index re-uses the stacked
        # composition arrays: no further cache traffic at all.
        fast.recommend(user, TOPIC, top_n=10)
        assert cache.misses == misses_first


class TestStalenessOverride:
    """Regression: a per-call allow_stale must override the constructor
    flag in *both* directions (the old code OR-ed them together, so
    allow_stale=False could never win)."""

    @staticmethod
    def _world_and_user():
        graph, sim, index = build_world(nodes=120, seed=3, num_landmarks=6,
                                        top_n=30)
        user = next(n for n in sorted(graph.nodes())
                    if graph.out_degree(n) >= 2
                    and n not in set(index.landmarks))
        return graph, sim, index, user

    @staticmethod
    def _make_stale(graph, snapshot):
        nodes = sorted(graph.nodes())
        graph.add_edge(nodes[-1], nodes[-2], [TOPIC])
        assert snapshot.is_stale

    def test_per_call_false_overrides_constructor_true(self):
        graph, sim, index, user = self._world_and_user()
        snapshot = graph.snapshot()
        recommender = ApproximateRecommender(snapshot, sim, index,
                                             params=PARAMS,
                                             allow_stale=True)
        self._make_stale(graph, snapshot)
        with pytest.raises(StaleSnapshotError):
            recommender.recommend(user, TOPIC, top_n=5, allow_stale=False)
        with pytest.raises(StaleSnapshotError):
            recommender.query(user, TOPIC, allow_stale=False)

    def test_default_defers_to_constructor_flag(self):
        graph, sim, index, user = self._world_and_user()
        snapshot = graph.snapshot()
        recommender = ApproximateRecommender(snapshot, sim, index,
                                             params=PARAMS,
                                             allow_stale=True)
        self._make_stale(graph, snapshot)
        response = recommender.recommend(user, TOPIC, top_n=5)
        assert response.snapshot_epoch == snapshot.epoch

    def test_per_call_true_overrides_constructor_false(self):
        graph, sim, index, user = self._world_and_user()
        snapshot = graph.snapshot()
        strict = ApproximateRecommender(snapshot, sim, index, params=PARAMS,
                                        allow_stale=False)
        self._make_stale(graph, snapshot)
        served = strict.recommend(user, TOPIC, top_n=5, allow_stale=True)
        assert served.snapshot_epoch == snapshot.epoch
        with pytest.raises(StaleSnapshotError):
            strict.recommend(user, TOPIC, top_n=5)
