"""Distributed landmark service with network-transfer accounting.

Ties the pieces together the way the paper's future-work paragraph
frames the problem: a query node evaluates recommendations "locally",
paying network transfer only for (a) propagation messages that cross
partitions and (b) inverted lists fetched from landmarks homed on other
partitions. Good partitioning + landmark placement should drive both
towards zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..api import (RecommendationRequest, RecommendationResponse,
                   response_from_pairs)
from ..config import LandmarkParams, ScoreParams
from ..core.exact import rank_dense
from ..core.scores import AuthorityIndex
from ..graph.snapshot import GraphLike, GraphSnapshot, as_snapshot
from ..landmarks.index import LandmarkIndex
from ..landmarks.query_engine import (LandmarkVectorCache, LandmarkVectors,
                                      MessageStats, QueryEngine,
                                      candidate_mask,
                                      compose_landmark_contributions,
                                      dense_scores_to_dict,
                                      vectors_from_entries)
from ..semantics.matrix import SimilarityMatrix
from .cluster import distributed_single_source_scores
from .partition import Assignment, partition_array


@dataclass(frozen=True)
class QueryCost:
    """Network cost of one distributed recommendation query.

    Attributes:
        propagation: Message stats of the depth-limited exploration.
        remote_landmarks: Landmarks consulted on other partitions.
        local_landmarks: Landmarks consulted on the query's partition.
        entries_transferred: Inverted-list entries shipped from remote
            landmarks (each entry is a (node, score, topo) triple).
    """

    propagation: MessageStats
    remote_landmarks: int
    local_landmarks: int
    entries_transferred: int

    @property
    def total_remote_units(self) -> float:
        """One comparable scalar: messages + shipped entries."""
        return self.propagation.remote_messages + self.entries_transferred


class DistributedLandmarkService:
    """Approximate recommendation over a partitioned deployment.

    The ranking returned is identical to the single-machine
    :class:`~repro.landmarks.ApproximateRecommender` (same index, same
    composition); only the *cost model* differs, which is the point —
    partitioning strategy must not change answers, only traffic.
    """

    def __init__(
        self,
        graph: GraphLike,
        assignment: Assignment,
        similarity: SimilarityMatrix,
        index: LandmarkIndex,
        params: Optional[ScoreParams] = None,
        landmark_params: Optional[LandmarkParams] = None,
        authority: Optional[AuthorityIndex] = None,
    ) -> None:
        self.graph = graph
        self.assignment = assignment
        self.index = index
        self.params = params if params is not None else index.params
        self.landmark_params = (landmark_params if landmark_params is not None
                                else index.landmark_params)
        self._similarity = similarity
        self._authority = (authority if authority is not None
                           else AuthorityIndex(graph))
        self._landmark_set = frozenset(index.landmarks)
        # Sorted composition order keeps float accumulation — and the
        # resulting tie-sensitive rankings — deterministic across
        # processes, matching ApproximateRecommender.
        self._sorted_landmarks = sorted(self._landmark_set)
        self._vector_cache = LandmarkVectorCache()
        # (engine, per-position partition ids) pinned to one snapshot;
        # rebuilt when a live graph moves to a new epoch.
        self._pinned: Optional[Tuple[QueryEngine, np.ndarray]] = None

    def landmark_home(self, landmark: int) -> int:
        """Partition that stores a landmark's inverted lists."""
        return self.assignment[landmark]

    def _pinned_to(self, view: GraphSnapshot
                   ) -> Tuple[QueryEngine, np.ndarray]:
        """Engine and validated partition array for *view*."""
        pinned = self._pinned
        if pinned is None or pinned[0].snapshot is not view:
            pinned = (QueryEngine(view, self._similarity, self.params,
                                  authority=self._authority),
                      partition_array(view, self.assignment))
            self._pinned = pinned
        return pinned

    def _vectors_for(self, view: GraphSnapshot, landmark: int,
                     topic: str) -> LandmarkVectors:
        """Cached array form of one landmark list, keyed by epoch+version."""
        version = self.index.version_of(landmark, topic)

        def build() -> LandmarkVectors:
            entries = self.index.recommendations(landmark, topic)
            return vectors_from_entries(view, entries, version)

        return self._vector_cache.get_or_build(
            view.epoch, landmark, topic, version, build)

    def scores_with_cost(self, user: int, topic: str,
                         depth: Optional[int] = None,
                         ) -> Tuple[Dict[int, float], QueryCost]:
        """Approximate scores plus the network cost of obtaining them.

        An explicit ``depth=0`` runs zero exploration rounds
        (landmark-list composition only), mirroring
        :meth:`repro.landmarks.ApproximateRecommender.query`.

        Raises:
            ConfigurationError: the assignment leaves a node of the
                graph unassigned (checked once per snapshot).
        """
        view = as_snapshot(self.graph, allow_stale=True)
        _, dense, extras, cost = self._compose(view, user, topic, depth)
        return dense_scores_to_dict(view, dense, extras), cost

    def _compose(self, view: GraphSnapshot, user: int, topic: str,
                 depth: Optional[int],
                 ) -> Tuple[QueryEngine, np.ndarray, Dict[int, float],
                            QueryCost]:
        """Explore, compose, and account: the engine, ``(dense, extras)``
        and the query's cost."""
        exploration_depth = (depth if depth is not None
                             else self.landmark_params.query_depth)
        engine, partition = self._pinned_to(view)
        exploration, stats = distributed_single_source_scores(
            engine, partition, user, topic, max_depth=exploration_depth,
            absorbing=self._landmark_set)

        home = partition[view.index_of(user)]
        position = view.position
        remote = 0
        local = 0
        entries_shipped = 0
        hits: List[Tuple[float, float, LandmarkVectors]] = []
        for landmark in self._sorted_landmarks:
            if landmark == user and exploration_depth > 0:
                continue
            pos = position.get(landmark)
            if pos is None:
                continue
            topo_ab = float(exploration.topo_alphabeta[pos])
            if topo_ab <= 0.0:
                continue
            vectors = self._vectors_for(view, landmark, topic)
            if partition[pos] == home:
                local += 1
            else:
                remote += 1
                entries_shipped += len(vectors)
            hits.append((float(exploration.scores[pos]), topo_ab, vectors))
        dense, extras = compose_landmark_contributions(
            exploration.scores, hits, user)
        cost = QueryCost(
            propagation=stats,
            remote_landmarks=remote,
            local_landmarks=local,
            entries_transferred=entries_shipped,
        )
        return engine, dense, extras, cost

    def recommend(self, user: int, topic: str, top_n: int = 10, *,
                  allow_stale: bool = False,
                  depth: Optional[int] = None) -> RecommendationResponse:
        """Top-n recommendations with network cost on ``response.cost``.

        Implements the :class:`repro.api.Recommender` protocol —
        callers read ``response.pairs()`` and ``response.cost``; raw
        scores remain available on :meth:`scores_with_cost`.
        """
        view = as_snapshot(self.graph, allow_stale)
        engine, dense, extras, cost = self._compose(view, user, topic, depth)
        nodes, _, values = rank_dense(dense, engine.node_ids_array,
                                      candidate_mask(view, user), top_n,
                                      extras)
        request = RecommendationRequest(
            user=user, topic=topic, top_n=top_n, allow_stale=allow_stale,
            depth=depth)
        return response_from_pairs(
            request, list(zip(nodes.tolist(), values.tolist())),
            engine="distributed", snapshot_epoch=view.epoch, cost=cost)
