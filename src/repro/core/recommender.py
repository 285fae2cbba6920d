"""The exact Tr recommender.

:class:`Recommender` wraps the exact propagation engine behind the
interface the paper describes in Section 3.2: given a user and a query
``Q = {t1, ..., tn}`` (optionally weighted), return the top-n accounts
by the weighted linear combination of per-topic Tr scores.

:meth:`Recommender.recommend` implements the unified
:class:`repro.api.Recommender` protocol and returns a
:class:`repro.api.RecommendationResponse`; the full-featured ranking
call (multi-topic queries, candidate pools, metasearch aggregation
rules) lives on :meth:`Recommender.rank`, which returns the plain
ranked list of :class:`repro.api.Recommendation` items.

The two ablated variants evaluated in Figure 4 are exposed as
constructor flags:

- ``use_authority=False`` → **Tr−auth** (edge similarity only, node
  authority frozen at 1);
- ``use_similarity=False`` → **Tr−sim** (node authority only, edge
  semantic factor frozen at 1 on labeled edges).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..api import (Recommendation, RecommendationRequest,
                   RecommendationResponse)
from ..config import ScoreParams, normalize_weights
from ..errors import ConfigurationError
from ..graph.labeled_graph import LabeledSocialGraph
from ..graph.snapshot import GraphLike, as_snapshot
from ..semantics.matrix import SimilarityMatrix
from .aggregation import AGGREGATORS, weighted_sum
from .exact import ScoreState, single_source_scores, _MaxSimCache
from .scores import AuthorityIndex

Query = Union[str, Sequence[str], Mapping[str, float]]


class _UnitAuthority(AuthorityIndex):
    """Authority frozen at 1 — the Tr−auth ablation.

    Every column is all ones, so the scalar :meth:`auth` (dict engine)
    and the column gather (sparse engine) agree.
    """

    def _build_column(self, topic: str) -> np.ndarray:
        column = np.ones(len(self._resolve().node_ids))
        column.flags.writeable = False
        return column


class _UnitSimilarity:
    """Semantic factor frozen at 1 on labeled edges — the Tr−sim ablation.

    Unlabeled edges still contribute nothing, mirroring Eq. 3 where an
    empty label set has no maximising topic.
    """

    def __init__(self, base: SimilarityMatrix) -> None:
        self._base = base

    @property
    def topics(self) -> Tuple[str, ...]:
        """Topic tuple of the wrapped matrix."""
        return self._base.topics

    def similarity(self, first: str, second: str) -> float:
        """Frozen unit similarity (the Tr-sim ablation)."""
        return 1.0

    def max_similarity(self, topics: Iterable[str], target: str) -> float:
        """1.0 for any labeled edge, 0.0 for unlabeled."""
        for _ in topics:
            return 1.0
        return 0.0


class Recommender:
    """Exact Tr recommender over a labeled social graph.

    Example:
        >>> from repro.graph import graph_from_edges
        >>> from repro.semantics import SimilarityMatrix, web_taxonomy
        >>> g = graph_from_edges([
        ...     (1, 2, ["technology"]), (2, 3, ["technology"]),
        ...     (1, 4, ["food"]),
        ... ])
        >>> rec = Recommender(g, SimilarityMatrix.from_taxonomy(web_taxonomy()))
        >>> [r.node for r in rec.recommend(1, "technology", top_n=2)]
        [3]

    Node 2 is not suggested: user 1 already follows it, and followees
    are excluded by default.
    """

    def __init__(
        self,
        graph: GraphLike,
        similarity: SimilarityMatrix,
        params: ScoreParams = ScoreParams(),
        use_authority: bool = True,
        use_similarity: bool = True,
        engine: str = "dict",
        allow_stale: bool = False,
    ) -> None:
        """Args:
            graph: The labeled follow graph, or a prebuilt
                :class:`~repro.graph.snapshot.GraphSnapshot`. The
                recommender pins a snapshot at construction; after
                mutating a live graph, call :meth:`invalidate` to
                re-pin (scoring against the old pin raises
                ``StaleSnapshotError``).
            similarity: Topic-similarity matrix.
            params: Decay/convergence knobs.
            use_authority: ``False`` gives the Tr−auth ablation.
            use_similarity: ``False`` gives the Tr−sim ablation.
            engine: ``"dict"`` (reference implementation), ``"sparse"``
                (scipy CSR engine — identical results, amortised
                mat-vec cost for bulk workloads), or ``"auto"``
                (sparse when scipy is available, dict otherwise).
            allow_stale: Keep serving the pinned snapshot after the
                graph mutates (deliberately lagged serving).
        """
        from .fast import resolve_engine

        engine = resolve_engine(engine)
        self.graph = graph
        self.params = params
        self.use_authority = use_authority
        self.use_similarity = use_similarity
        self.engine = engine
        self.allow_stale = allow_stale
        self._snapshot = as_snapshot(graph, allow_stale)
        self._similarity = similarity if use_similarity else _UnitSimilarity(similarity)
        self._authority = (self._snapshot.authority() if use_authority
                           else _UnitAuthority(self._snapshot))
        self._sim_cache = _MaxSimCache(self._similarity)
        self._sparse_engine = None
        if engine == "sparse":
            from .fast import SparseEngine

            self._sparse_engine = SparseEngine(
                self._snapshot, self._similarity, params,
                authority=self._authority, allow_stale=allow_stale)

    @property
    def variant(self) -> str:
        """Human-readable variant name matching the paper's legends."""
        if self.use_authority and self.use_similarity:
            return "Tr"
        if self.use_authority:
            return "Tr-sim"
        if self.use_similarity:
            return "Tr-auth"
        return "Katz-like"

    # ------------------------------------------------------------------
    def state_for(self, user: int, topics: Sequence[str],
                  max_depth: Optional[int] = None,
                  allow_stale: Optional[bool] = None) -> ScoreState:
        """Raw propagation state — building block for evaluation code."""
        effective = bool(allow_stale) or self.allow_stale
        if self._sparse_engine is not None:
            return self._sparse_engine.single_source(
                user, list(topics), max_depth=max_depth,
                allow_stale=effective)
        return single_source_scores(
            self._snapshot, user, list(topics), self._similarity,
            authority=self._authority, params=self.params,
            max_depth=max_depth, sim_cache=self._sim_cache,
            allow_stale=effective)

    def score(self, user: int, candidate: int, topic: str,
              max_depth: Optional[int] = None) -> float:
        """``σ(user, candidate, topic)`` for one pair."""
        return self.state_for(user, [topic], max_depth=max_depth).score(
            candidate, topic)

    def recommend(
        self,
        user: int,
        topic: str,
        top_n: int = 10,
        max_depth: Optional[int] = None,
        exclude_followed: bool = True,
        *,
        allow_stale: bool = False,
    ) -> RecommendationResponse:
        """Top-n accounts for *user* on *topic* (Section 3.2).

        This is the :class:`repro.api.Recommender` protocol entry point
        and returns a :class:`~repro.api.RecommendationResponse`. The
        full-featured ranking surface (multi-topic queries, candidate
        pools, metasearch aggregation) lives on :meth:`rank` — the
        pre-``repro.api`` shims that accepted those shapes here were
        removed after their deprecation cycle.

        Args:
            user: The account to recommend to.
            topic: The query topic.
            top_n: Number of recommendations.
            max_depth: Walk-length cap (``None`` = run to convergence).
            exclude_followed: Drop the user and accounts already
                followed — a recommender should not suggest existing
                followees.
            allow_stale: Serve from the pinned snapshot even if the
                graph has since mutated, instead of raising
                :class:`~repro.errors.StaleSnapshotError`.

        Raises:
            NodeNotFoundError: if *user* is not in the graph.
            UnknownTopicError: if *topic* is not in the matrix.
        """
        ranked = self.rank(
            user, topic, top_n=top_n, max_depth=max_depth,
            exclude_followed=exclude_followed, allow_stale=allow_stale)
        request = RecommendationRequest(
            user=user, topic=topic, top_n=top_n, allow_stale=allow_stale,
            depth=max_depth)
        return RecommendationResponse(
            request=request,
            recommendations=tuple(ranked),
            engine="exact",
            snapshot_epoch=self._snapshot.epoch,
        )

    def rank(
        self,
        user: int,
        query: Query,
        top_n: int = 10,
        max_depth: Optional[int] = None,
        exclude_followed: bool = True,
        candidates: Optional[Iterable[int]] = None,
        aggregation: str = "weighted",
        allow_stale: Optional[bool] = None,
    ) -> List[Recommendation]:
        """Ranked :class:`~repro.api.Recommendation` list for *user*.

        The full-featured ranking surface behind :meth:`recommend`:

        Args:
            user: The account to recommend to.
            query: A topic, a sequence of topics (uniform weights), or
                a topic → weight mapping; weights are normalised.
            top_n: Number of recommendations.
            max_depth: Walk-length cap (``None`` = run to convergence).
            exclude_followed: Drop the user and accounts already
                followed — a recommender should not suggest existing
                followees.
            candidates: Restrict ranking to this candidate pool
                (the evaluation protocol ranks 1001 fixed candidates).
            aggregation: How per-topic score lists are fused —
                ``"weighted"`` (the paper's linear combination, honours
                query weights), or one of the metasearch rules from
                :mod:`repro.core.aggregation`: ``"combsum"``,
                ``"combmnz"``, ``"borda"``, ``"rrf"``.
            allow_stale: Per-call staleness override (``None`` defers
                to the constructor flag).

        Raises:
            NodeNotFoundError: if *user* is not in the graph.
            UnknownTopicError: if a query topic is not in the matrix.
            ConfigurationError: on an unknown aggregation rule.
        """
        weights = self._query_weights(query)
        state = self.state_for(user, list(weights), max_depth=max_depth,
                               allow_stale=allow_stale)
        excluded = {user}
        if exclude_followed:
            excluded.update(self._snapshot.out_neighbors(user))
        pool: Optional[set] = set(candidates) if candidates is not None else None

        filtered: Dict[str, Dict[int, float]] = {}
        breakdown: Dict[int, Dict[str, float]] = {}
        for topic in weights:
            bucket: Dict[int, float] = {}
            for node, value in state.scores.get(topic, {}).items():
                if node in excluded or value <= 0.0:
                    continue
                if pool is not None and node not in pool:
                    continue
                bucket[node] = value
                breakdown.setdefault(node, {})[topic] = value
            filtered[topic] = bucket

        if aggregation == "weighted":
            combined = weighted_sum(filtered, weights=weights)
        else:
            aggregator = AGGREGATORS.get(aggregation)
            if aggregator is None:
                known = ", ".join(sorted(AGGREGATORS))
                raise ConfigurationError(
                    f"unknown aggregation {aggregation!r}; known: {known}")
            combined = aggregator(filtered)

        ranked = sorted(combined.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            Recommendation(node=node, score=score, per_topic=breakdown[node])
            for node, score in ranked[:top_n]
            if score > 0.0
        ]

    def _query_weights(self, query: Query) -> Dict[str, float]:
        if isinstance(query, str):
            return {query: 1.0}
        if isinstance(query, Mapping):
            return normalize_weights(query)
        topics = list(query)
        return normalize_weights({topic: 1.0 for topic in topics})

    def invalidate(self) -> None:
        """Re-pin the snapshot after the graph was mutated in place."""
        self._snapshot = as_snapshot(self.graph, allow_stale=True)
        self._authority = (self._snapshot.authority() if self.use_authority
                           else _UnitAuthority(self._snapshot))
        if self._sparse_engine is not None:
            from .fast import SparseEngine

            self._sparse_engine = SparseEngine(
                self._snapshot, self._similarity, self.params,
                authority=self._authority, allow_stale=self.allow_stale)
