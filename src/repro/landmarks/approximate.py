"""Query-time approximate recommendation — Algorithm 2 / Section 4.2.

The query node explores its k-vicinity (k small, 2 in the paper),
pruning the propagation at every landmark it meets; the pruned mass is
reinstated by composing the landmark's precomputed vectors with the
query-side scores via Proposition 4:

``σ̃_λ(u,v,t) = σ(u,λ,t)·topo_β(λ,v) + topo_{βα}(u,λ)·σ(λ,v,t)``

and ``σ̃_Λ = Σ_λ σ̃_λ`` plus the scores of nodes reached directly
during the exploration (node ``r2`` of the paper's Figure 2).

Because only paths through landmarks (plus the short directly-explored
ones) are counted, the approximation is a *lower bound* of the exact
score — the opposite of classical landmark distance oracles, as the
paper notes after Proposition 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..api import (RecommendationRequest, RecommendationResponse,
                   response_from_pairs)
from ..config import LandmarkParams, ScoreParams
from ..core.exact import ScoreState, _MaxSimCache, rank_dense
from ..core.scores import AuthorityIndex
from ..graph.snapshot import GraphLike, GraphSnapshot, as_snapshot
from ..obs import runtime as _obs
from ..semantics.matrix import SimilarityMatrix
from .index import LandmarkIndex
from .query_engine import (DenseExploration, LandmarkVectorCache,
                           LandmarkVectors, QueryEngine,
                           StackedLandmarkLists, candidate_mask,
                           compose_stacked, dense_scores_to_dict,
                           stack_landmark_vectors, vectors_from_entries)


@dataclass
class ApproximateResult:
    """Outcome of one approximate query.

    Attributes:
        scores: Node → approximate recommendation score ``σ̃``.
        landmarks_encountered: Landmarks met during the exploration —
            the ``#lnd`` column of Table 6.
        exploration: The raw query-side :class:`ScoreState`.
    """

    scores: Dict[int, float]
    landmarks_encountered: Tuple[int, ...]
    exploration: ScoreState

    def ranked(self, top_n: Optional[int] = None,
               exclude: Iterable[int] = ()) -> List[Tuple[int, float]]:
        """Descending-score ranking, ties broken by node id."""
        count = len(self.scores)
        nodes = np.fromiter(self.scores, dtype=np.int64, count=count)
        values = np.fromiter(self.scores.values(), dtype=np.float64,
                             count=count)
        keep = ~np.isin(nodes, np.fromiter(set(exclude), dtype=np.int64))
        nodes, _, values = rank_dense(values, nodes, keep, top_n)
        return list(zip(nodes.tolist(), values.tolist()))


class ApproximateRecommender:
    """Landmark-accelerated Tr recommender (Algorithm 2).

    Example::

        landmarks = select_landmarks(graph, "In-Deg", 100, rng=7)
        index = LandmarkIndex.build(graph, landmarks, topics, sim)
        fast = ApproximateRecommender(graph, sim, index)
        fast.recommend(user, "technology", top_n=10)
    """

    def __init__(
        self,
        graph: GraphLike,
        similarity: SimilarityMatrix,
        index: LandmarkIndex,
        params: Optional[ScoreParams] = None,
        landmark_params: Optional[LandmarkParams] = None,
        authority: Optional[AuthorityIndex] = None,
        allow_stale: bool = False,
        vector_cache: Optional[LandmarkVectorCache] = None,
    ) -> None:
        self.graph = graph
        self.index = index
        self.params = params if params is not None else index.params
        self.landmark_params = (landmark_params if landmark_params is not None
                                else index.landmark_params)
        self.allow_stale = allow_stale
        self._similarity = similarity
        self._authority_supplied = authority
        self._view = as_snapshot(graph, allow_stale)
        self._authority = (authority if authority is not None
                           else self._view.authority())
        self._sim_cache = _MaxSimCache(similarity)
        self._landmark_set = frozenset(index.landmarks)
        # Sorted composition order: float accumulation order — and
        # therefore tie-sensitive rankings — stays deterministic across
        # processes (frozenset iteration order depends on the hash seed).
        self._sorted_landmarks = sorted(self._landmark_set)
        self._vector_cache = (vector_cache if vector_cache is not None
                              else LandmarkVectorCache())
        self._engine_impl: Optional[QueryEngine] = None
        # topic -> stacked composition arrays; validated per query
        # against (snapshot epoch, index mutation count).
        self._stacked: Dict[str, StackedLandmarkLists] = {}

    def _resolve(self, allow_stale: Optional[bool] = None) -> GraphSnapshot:
        """Current serving snapshot — re-pinned when a live graph moved.

        Args:
            allow_stale: Per-call staleness override; ``None`` defers
                to the constructor flag.
        """
        effective = (self.allow_stale if allow_stale is None
                     else bool(allow_stale))
        view = as_snapshot(self.graph, allow_stale=effective)
        if view is not self._view:
            self._view = view
            if self._authority_supplied is None:
                self._authority = view.authority()
        return view

    def _engine_for(self, view: GraphSnapshot) -> QueryEngine:
        """The vectorised engine pinned to *view* (rebuilt on re-pin)."""
        impl = self._engine_impl
        if impl is None or impl.snapshot is not view:
            impl = QueryEngine(view, self._similarity, self.params,
                               authority=self._authority,
                               sim_cache=self._sim_cache)
            self._engine_impl = impl
        return impl

    def _vectors_for(self, view: GraphSnapshot, landmark: int,
                     topic: str) -> LandmarkVectors:
        """Cached vectorised view of one inverted list."""
        version = self.index.version_of(landmark, topic)
        return self._vector_cache.get_or_build(
            view.epoch, landmark, topic, version,
            lambda: vectors_from_entries(
                view, self.index.recommendations(landmark, topic), version))

    def query(self, user: int, topic: str,
              depth: Optional[int] = None,
              allow_stale: Optional[bool] = None) -> ApproximateResult:
        """Compute approximate scores of every candidate for *user*.

        Args:
            user: Query node.
            topic: Single query topic (Algorithm 2 is per-topic; the
                public :meth:`recommend` also accepts only one topic to
                mirror the paper).
            depth: Exploration depth override (default: the index's
                ``query_depth``). An explicit ``depth=0`` runs *zero*
                exploration rounds — landmark-list composition only.
                With no exploration there is no directly-explored mass
                to double count, so when *user* is itself a landmark
                its own stored list is composed (``topo_{αβ}(u,u)=1``
                makes that exactly the precomputed recommendations);
                at ``depth>=1`` the user's own landmark is skipped as
                always.
            allow_stale: Per-call staleness override (``None`` defers
                to the constructor flag).
        """
        exploration_depth = (depth if depth is not None
                             else self.landmark_params.query_depth)
        effective_stale = (self.allow_stale if allow_stale is None
                           else bool(allow_stale))
        view = self._resolve(allow_stale=effective_stale)
        dense, combined_dense, extra_scores, encountered = (
            self._query_core(view, user, topic, exploration_depth))
        return ApproximateResult(
            scores=dense_scores_to_dict(view, combined_dense, extra_scores),
            landmarks_encountered=tuple(encountered),
            exploration=dense.to_state(view, topic),
        )

    def _stacked_for(self, view: GraphSnapshot,
                     topic: str) -> StackedLandmarkLists:
        """Cached whole-index composition stack for *topic*.

        Invalidated by epoch bumps (the graph mutated and the serving
        layer re-pinned) and by any ``set_recommendations`` on the
        index (tracked through its O(1) mutation counter); rebuilt
        through the per-landmark :class:`LandmarkVectorCache` so the
        hit/miss counters and per-list version checks stay live.
        """
        mutations = self.index.mutation_count
        stacked = self._stacked.get(topic)
        if (stacked is not None and stacked.epoch == view.epoch
                and stacked.mutations == mutations):
            return stacked
        stacked = stack_landmark_vectors(
            view, self._sorted_landmarks,
            lambda landmark: self._vectors_for(view, landmark, topic),
            mutations)
        self._stacked[topic] = stacked
        return stacked

    def _query_core(
        self, view: GraphSnapshot, user: int, topic: str,
        exploration_depth: int,
    ) -> Tuple[DenseExploration, np.ndarray, Dict[int, float], List[int]]:
        """Algorithm 2 over arrays: explore, then compose.

        The exploration runs as array rounds over the snapshot's CSR
        arrays, and the Proposition-4 composition is one concatenated
        scatter-add over the cached stacked landmark vectors (see
        :mod:`repro.landmarks.query_engine` for the parity argument).
        Returns the dense exploration, the dense combined scores, the
        off-snapshot side-channel scores, and the hit landmarks —
        without materialising any per-node dict.
        """
        engine = self._engine_for(view)
        with _obs.span("approx.query") as _sp:
            if _sp:
                _sp.set(user=user, topic=topic, depth=exploration_depth)
            with _obs.span("approx.explore") as _explore:
                dense = engine.explore(user, topic, exploration_depth,
                                       absorbing=self._landmark_set)
                if _explore:
                    _explore.set(
                        depth=exploration_depth,
                        frontier_size=int(
                            np.count_nonzero(dense.topo_alphabeta)))
            if _explore:
                _obs.observe("approx.explore_seconds", _explore.elapsed)

            with _obs.span("approx.compose") as _compose:
                stacked = self._stacked_for(view, topic)
                combined_dense, extra_scores, encountered = compose_stacked(
                    stacked, dense.scores, dense.topo_alphabeta, user,
                    skip_user_landmark=exploration_depth > 0)
                if _compose:
                    _compose.set(
                        landmarks_hit=len(encountered),
                        candidates=(int(np.count_nonzero(combined_dense))
                                    + len(extra_scores)))
            if _compose:
                _obs.observe("approx.compose_seconds", _compose.elapsed)
            _obs.count("approx.queries_total")
            _obs.count("approx.landmarks_encountered_total",
                       len(encountered))
            if _sp:
                _sp.set(landmarks_hit=len(encountered))
        if _sp:
            _obs.observe("approx.query_seconds", _sp.elapsed)
        return dense, combined_dense, extra_scores, encountered

    def recommend(self, user: int, topic: str, top_n: int = 10, *,
                  allow_stale: Optional[bool] = None,
                  depth: Optional[int] = None,
                  exclude_followed: bool = True) -> RecommendationResponse:
        """Top-n approximate recommendations for *user* on *topic*.

        Implements the :class:`repro.api.Recommender` protocol.
        ``allow_stale=None`` defers to the constructor flag, matching
        :meth:`query`.
        """
        effective_stale = (self.allow_stale if allow_stale is None
                           else bool(allow_stale))
        with _obs.span("approx.recommend") as _sp:
            if _sp:
                _sp.set(user=user, topic=topic, top_n=top_n)
            # Explore + compose + rank stay in arrays end to end; no
            # per-node dict is built.
            exploration_depth = (depth if depth is not None
                                 else self.landmark_params.query_depth)
            view = self._resolve(allow_stale=effective_stale)
            _, combined_dense, extra_scores, _ = self._query_core(
                view, user, topic, exploration_depth)
            with _obs.span("approx.rank") as _rank:
                nodes, _, values = rank_dense(
                    combined_dense, self._engine_for(view).node_ids_array,
                    candidate_mask(view, user, exclude_followed), top_n,
                    extra_scores)
                ranked = list(zip(nodes.tolist(), values.tolist()))
                if _rank:
                    _rank.set(
                        candidates=(int(np.count_nonzero(combined_dense))
                                    + len(extra_scores)),
                        returned=len(ranked))
        request = RecommendationRequest(
            user=user, topic=topic, top_n=top_n,
            allow_stale=effective_stale, depth=depth)
        return response_from_pairs(
            request, ranked, engine="approximate",
            snapshot_epoch=self._view.epoch)

