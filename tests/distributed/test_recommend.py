"""Tests for the distributed landmark service."""

import pytest

from repro import ScoreParams
from repro.config import LandmarkParams
from repro.datasets import generate_twitter_graph
from repro.distributed import (
    DistributedLandmarkService,
    QueryCost,
    greedy_partition,
    hash_partition,
)
from repro.landmarks import (
    ApproximateRecommender,
    LandmarkIndex,
    select_landmarks,
)
from tests.oracles import approximate_ranking, compose, pregel_scores

PARAMS = ScoreParams(beta=0.004)
TOPIC = "technology"


@pytest.fixture(scope="module")
def world(web_sim):
    graph = generate_twitter_graph(300, seed=99)
    landmarks = select_landmarks(graph, "In-Deg", 15, rng=2)
    index = LandmarkIndex.build(
        graph, landmarks, [TOPIC], web_sim, params=PARAMS,
        landmark_params=LandmarkParams(num_landmarks=15, top_n=100))
    return graph, index


class TestAnswerEquivalence:
    def test_matches_single_machine_recommender(self, world, web_sim):
        """Distribution changes costs, never answers."""
        graph, index = world
        single = ApproximateRecommender(graph, web_sim, index)
        service = DistributedLandmarkService(
            graph, hash_partition(graph, 4), web_sim, index)
        users = [n for n in graph.nodes()
                 if graph.out_degree(n) >= 3
                 and n not in set(index.landmarks)][:5]
        for user in users:
            expected = single.recommend(user, TOPIC, top_n=10)
            got = service.recommend(user, TOPIC, top_n=10)
            assert got.nodes() == expected.nodes()
            for (_, ours), (_, theirs) in zip(got, expected):
                assert ours == pytest.approx(theirs)

    def test_query_engines_agree_bitwise(self, world, web_sim):
        """The service's scores, ranking and network cost equal the
        dict oracles' (Pregel walker + compose loop), bit for bit."""
        graph, index = world
        assignment = hash_partition(graph, 4)
        service = DistributedLandmarkService(graph, assignment, web_sim,
                                             index)
        users = [n for n in graph.nodes()
                 if graph.out_degree(n) >= 3
                 and n not in set(index.landmarks)][:5]
        landmarks = frozenset(index.landmarks)
        for user in users:
            for depth in (0, 1, None):
                scores, cost = service.scores_with_cost(user, TOPIC,
                                                        depth=depth)
                explore_depth = (depth if depth is not None
                                 else index.landmark_params.query_depth)
                state, stats = pregel_scores(
                    graph, assignment, user, [TOPIC], web_sim,
                    params=index.params, max_depth=explore_depth,
                    absorbing=landmarks)
                expected, encountered = compose(
                    state, TOPIC, user, explore_depth, sorted(landmarks),
                    lambda landmark: index.recommendations(landmark, TOPIC))
                assert scores == expected
                remote = [landmark for landmark in encountered
                          if assignment[landmark] != assignment[user]]
                assert cost == QueryCost(
                    propagation=stats,
                    remote_landmarks=len(remote),
                    local_landmarks=len(encountered) - len(remote),
                    entries_transferred=sum(
                        len(index.recommendations(landmark, TOPIC))
                        for landmark in remote))
                ranked = service.recommend(user, TOPIC, top_n=10,
                                           depth=depth)
                assert ranked.pairs() == approximate_ranking(
                    graph, web_sim, index, user, TOPIC, depth=depth)

    def test_partitioner_choice_does_not_change_answers(self, world,
                                                        web_sim):
        graph, index = world
        hash_service = DistributedLandmarkService(
            graph, hash_partition(graph, 4), web_sim, index)
        greedy_service = DistributedLandmarkService(
            graph, greedy_partition(graph, 4, seed=3), web_sim, index)
        user = next(n for n in graph.nodes()
                    if graph.out_degree(n) >= 3
                    and n not in set(index.landmarks))
        first = hash_service.recommend(user, TOPIC, top_n=10)
        second = greedy_service.recommend(user, TOPIC, top_n=10)
        assert first == second
        assert first.pairs() == second.pairs()


class TestCostAccounting:
    def test_single_partition_is_free_of_remote_cost(self, world, web_sim):
        graph, index = world
        service = DistributedLandmarkService(
            graph, hash_partition(graph, 1), web_sim, index)
        user = next(n for n in graph.nodes() if graph.out_degree(n) >= 3)
        cost = service.recommend(user, TOPIC).cost
        assert cost.propagation.remote_messages == 0
        assert cost.remote_landmarks == 0
        assert cost.entries_transferred == 0
        assert cost.total_remote_units == 0.0

    def test_landmark_split_between_local_and_remote(self, world, web_sim):
        graph, index = world
        assignment = hash_partition(graph, 4)
        service = DistributedLandmarkService(graph, assignment, web_sim,
                                             index)
        user = max(graph.nodes(), key=graph.out_degree)
        cost = service.recommend(user, TOPIC).cost
        encountered = cost.local_landmarks + cost.remote_landmarks
        assert encountered >= 1
        # entries only shipped for remote landmarks
        if cost.remote_landmarks == 0:
            assert cost.entries_transferred == 0
        else:
            assert cost.entries_transferred > 0

    def test_lower_cut_partitioning_costs_less(self, world, web_sim):
        graph, index = world
        users = [n for n in graph.nodes() if graph.out_degree(n) >= 3][:8]
        hash_service = DistributedLandmarkService(
            graph, hash_partition(graph, 4), web_sim, index)
        greedy_service = DistributedLandmarkService(
            graph, greedy_partition(graph, 4, seed=3), web_sim, index)
        hash_cost = sum(
            hash_service.recommend(u, TOPIC).cost.propagation.remote_values
            for u in users)
        greedy_cost = sum(
            greedy_service.recommend(u, TOPIC).cost.propagation.remote_values
            for u in users)
        assert greedy_cost < hash_cost

    def test_landmark_home_lookup(self, world, web_sim):
        graph, index = world
        assignment = hash_partition(graph, 4)
        service = DistributedLandmarkService(graph, assignment, web_sim,
                                             index)
        for landmark in index.landmarks:
            assert service.landmark_home(landmark) == assignment[landmark]
