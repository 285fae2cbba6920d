"""Per-landmark precomputation — Algorithm 1 / Section 4.1.

For each landmark λ the index stores, per topic, the top-n reachable
accounts ``v`` with both halves of Proposition 4's composition:
``σ(λ, v, t)`` and ``topo_β(λ, v)``. The lists are the "inverted lists"
of Section 5.2; their in-memory layout (and the file layout in
:mod:`repro.landmarks.storage`) follows that description.

Preprocessing runs on one of two interchangeable engines (selected via
``engine=`` on :meth:`LandmarkIndex.build`): the dict-based reference
engine, optionally fanned out over a thread pool, or the batched CSR
engine of :mod:`repro.core.fast`, which propagates whole blocks of
landmarks as sparse mat–mat products. Both honour the same stopping
rule and the ``precompute_depth`` cap, so the stored lists are
identical up to floating-point accumulation order.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..config import EngineParams, LandmarkParams, ScoreParams
from ..core.exact import ScoreState, _MaxSimCache, single_source_scores
from ..core.fast import SparseEngine, resolve_engine
from ..core.scores import AuthorityIndex
from ..graph.snapshot import GraphLike, GraphSnapshot, as_snapshot
from ..obs import runtime as _obs
from ..semantics.matrix import SimilarityMatrix


@dataclass(frozen=True)
class LandmarkEntry:
    """One stored recommendation of a landmark.

    Attributes:
        node: The recommended account ``v``.
        score: ``σ(λ, v, t)`` — the landmark's Tr score for ``v``.
        topo: ``topo_β(λ, v)`` — the landmark's Katz score for ``v``.
        topo_ab: ``topo_{αβ}(λ, v)`` — the combined-decay topological
            score, needed by the incremental (first-order delta) update
            strategy of :mod:`repro.dynamics.incremental`.
    """

    node: int
    score: float
    topo: float
    topo_ab: float = 0.0


class LandmarkIndex:
    """Inverted-list store of per-landmark recommendations.

    Build with :meth:`build`; query with :meth:`recommendations`.
    """

    def __init__(self, params: ScoreParams,
                 landmark_params: LandmarkParams) -> None:
        self.params = params
        self.landmark_params = landmark_params
        # λ -> topic -> entries sorted by descending score
        self._lists: Dict[int, Dict[str, List[LandmarkEntry]]] = {}
        # (λ, topic) -> replacement count; bumped by every
        # set_recommendations so vectorised views of a list (the
        # query-path LandmarkVectorCache) can detect in-place refreshes
        # that happen without an epoch change.
        self._versions: Dict[Tuple[int, str], int] = {}
        # Total set_recommendations calls across all lists — an O(1)
        # freshness check for whole-index derived structures (the
        # query path's stacked composition arrays).
        self._mutations = 0
        #: Per-landmark wall-clock spent in Algorithm 1, for Table 5.
        #: Batched engines attribute each batch's elapsed time evenly
        #: across its landmarks.
        self.build_seconds: Dict[int, float] = {}
        #: Concrete engine that ran Algorithm 1 ("dict" or "sparse");
        #: ``None`` for indexes assembled via :meth:`set_recommendations`.
        self.engine_used: Optional[str] = None

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: GraphLike,
        landmarks: Sequence[int],
        topics: Sequence[str],
        similarity: SimilarityMatrix,
        params: ScoreParams = ScoreParams(),
        landmark_params: LandmarkParams = LandmarkParams(),
        authority: Optional[AuthorityIndex] = None,
        engine: Union[str, EngineParams] = "auto",
        workers: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> "LandmarkIndex":
        """Run Algorithm 1 for every landmark.

        Each landmark is propagated until its frontier mass converges
        below ``params.tolerance`` or, if
        ``landmark_params.precompute_depth`` is set, until that many
        rounds have run — whichever comes first. The cap makes
        preprocessing total on any graph: a deep or cyclic graph
        truncates at the cap instead of raising
        :class:`~repro.errors.ConvergenceError`.

        Args:
            graph: The labeled follow graph, or a prebuilt
                :class:`~repro.graph.snapshot.GraphSnapshot` — the
                whole build reads one frozen snapshot either way.
            landmarks: Landmark node ids (from a Table-4 strategy).
            topics: The full topic vocabulary T — preprocessing stores
                recommendations for *every* topic.
            similarity: Topic-similarity matrix.
            params: Score decay/convergence parameters.
            landmark_params: Supplies ``top_n`` and the precompute
                depth cap.
            authority: Shared authority cache (created if omitted).
            engine: ``"auto"`` / ``"dict"`` / ``"sparse"``, or a full
                :class:`~repro.config.EngineParams`. ``"auto"`` uses
                the batched CSR engine when scipy is available and the
                dict engine otherwise.
            workers: Thread-pool width for the dict engine (overrides
                ``engine.workers`` when given).
            batch_size: Sources per mat–mat block for the sparse
                engine (overrides ``engine.batch_size`` when given).
        """
        if isinstance(engine, EngineParams):
            engine_params = engine
        else:
            engine_params = EngineParams(engine=engine)
        if workers is not None or batch_size is not None:
            engine_params = EngineParams(
                engine=engine_params.engine,
                workers=workers if workers is not None
                else engine_params.workers,
                batch_size=batch_size if batch_size is not None
                else engine_params.batch_size)
        resolved = resolve_engine(engine_params.engine)

        index = cls(params, landmark_params)
        index.engine_used = resolved
        snapshot = as_snapshot(graph)
        shared_authority = (authority if authority is not None
                            else snapshot.authority())
        max_depth = landmark_params.precompute_depth
        topic_list = list(topics)

        with _obs.span("landmarks.build") as _sp:
            if _sp:
                _sp.set(landmarks=len(landmarks), topics=len(topic_list),
                        engine=resolved, top_n=landmark_params.top_n)
            if resolved == "sparse":
                cls._build_sparse(index, snapshot, list(landmarks),
                                  topic_list, similarity, shared_authority,
                                  engine_params.batch_size, max_depth)
            else:
                cls._build_dict(index, snapshot, list(landmarks), topic_list,
                                similarity, shared_authority,
                                engine_params.workers, max_depth)
            _obs.count("landmarks.builds_total")
            _obs.count("landmarks.built_total", len(landmarks))
        return index

    @staticmethod
    def _entries_for(state: ScoreState, landmark: int, topics: Sequence[str],
                     top_n: int) -> Dict[str, List[LandmarkEntry]]:
        """Turn one propagation state into per-topic inverted lists."""
        per_topic: Dict[str, List[LandmarkEntry]] = {}
        for topic in topics:
            columns = state.top_entries(topic, top_n=top_n,
                                        exclude=(landmark,))
            per_topic[topic] = [
                LandmarkEntry(node, score, topo, topo_ab)
                for node, score, topo, topo_ab in zip(
                    *(column.tolist() for column in columns))
            ]
        return per_topic

    @classmethod
    def _build_dict(cls, index: "LandmarkIndex", snapshot: GraphSnapshot,
                    landmarks: List[int], topics: List[str],
                    similarity: SimilarityMatrix,
                    authority: AuthorityIndex, workers: int,
                    max_depth: Optional[int]) -> None:
        """Reference-engine build, optionally fanned out over threads."""
        sim_cache = _MaxSimCache(similarity)
        top_n = index.landmark_params.top_n

        def run_one(landmark: int) -> Tuple[Dict[str, List[LandmarkEntry]],
                                            float]:
            watch = _obs.timed_span("landmarks.build_one")
            with watch:
                if watch:
                    watch.set(landmark=landmark)
                state = single_source_scores(
                    snapshot, landmark, topics, similarity,
                    authority=authority, params=index.params,
                    max_depth=max_depth, sim_cache=sim_cache)
                per_topic = cls._entries_for(state, landmark, topics, top_n)
            return per_topic, watch.elapsed

        if workers > 1 and len(landmarks) > 1:
            # Warm the shared caches serially once so the concurrent
            # propagations only read them.
            authority.warm(topics)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(run_one, landmarks))
        else:
            results = [run_one(landmark) for landmark in landmarks]
        for landmark, (per_topic, elapsed) in zip(landmarks, results):
            index._lists[landmark] = per_topic
            index.build_seconds[landmark] = elapsed

    @classmethod
    def _build_sparse(cls, index: "LandmarkIndex", snapshot: GraphSnapshot,
                      landmarks: List[int], topics: List[str],
                      similarity: SimilarityMatrix,
                      authority: AuthorityIndex, batch_size: int,
                      max_depth: Optional[int]) -> None:
        """Batched CSR build: one mat–mat propagation per block."""
        engine = SparseEngine(snapshot, similarity, index.params,
                              authority=authority)
        top_n = index.landmark_params.top_n
        for start in range(0, len(landmarks), batch_size):
            block = landmarks[start:start + batch_size]
            watch = _obs.timed_span("landmarks.build_batch")
            with watch:
                if watch:
                    watch.set(batch=len(block))
                states = engine.multi_source(block, topics,
                                             max_depth=max_depth)
                for landmark, state in zip(block, states):
                    index._lists[landmark] = cls._entries_for(
                        state, landmark, topics, top_n)
            share = watch.elapsed / len(block)
            for landmark in block:
                index.build_seconds[landmark] = share

    # ------------------------------------------------------------------
    @property
    def landmarks(self) -> Tuple[int, ...]:
        """Landmark ids in build order."""
        return tuple(self._lists)

    def __contains__(self, node: int) -> bool:
        return node in self._lists

    def __len__(self) -> int:
        return len(self._lists)

    def topics_of(self, landmark: int) -> Tuple[str, ...]:
        """Topics a landmark stores lists for."""
        return tuple(self._lists[landmark])

    def recommendations(self, landmark: int,
                        topic: str) -> List[LandmarkEntry]:
        """Stored top-n entries of *landmark* for *topic* ([] if none)."""
        return self._lists.get(landmark, {}).get(topic, [])

    def set_recommendations(self, landmark: int, topic: str,
                            entries: Iterable[LandmarkEntry]) -> None:
        """Install entries directly (storage loader, maintainers).

        Every call bumps the list's version (:meth:`version_of`), which
        invalidates any cached vectorised view of the previous list.
        """
        self._lists.setdefault(landmark, {})[topic] = list(entries)
        key = (landmark, topic)
        self._versions[key] = self._versions.get(key, 0) + 1
        self._mutations += 1

    def version_of(self, landmark: int, topic: str) -> int:
        """Replacement count of one list (0 until first refreshed).

        Engine builds write lists in place without touching versions;
        only :meth:`set_recommendations` bumps them. The pair
        ``(snapshot.epoch, version_of(λ, t))`` therefore uniquely
        identifies a list's content for caching purposes.
        """
        return self._versions.get((landmark, topic), 0)

    @property
    def mutation_count(self) -> int:
        """Total :meth:`set_recommendations` calls, across all lists.

        A single integer that changes whenever *any* list changes —
        derived whole-index structures compare it (together with the
        snapshot epoch) instead of re-checking every per-list version.
        """
        return self._mutations

    @property
    def storage_bytes(self) -> int:
        """Approximate in-memory footprint of the inverted lists.

        Counts 8 bytes per stored number (node, score, topo, topo_ab) —
        the figure comparable with the paper's "1.4MB per landmark at
        top-1000 for all topics".
        """
        total = 0
        for per_topic in self._lists.values():  # repro: ignore[R2] -- byte counts are integers; addition is exact in any order
            for entries in per_topic.values():  # repro: ignore[R2] -- byte counts are integers; addition is exact in any order
                total += 32 * len(entries)
        return total

    def stats(self) -> Dict[str, object]:
        """Summary for benchmark reports."""
        entry_counts = [
            len(entries)
            for per_topic in self._lists.values()
            for entries in per_topic.values()
        ]
        mean_build = (
            math.fsum(self.build_seconds.values()) / len(self.build_seconds)
            if self.build_seconds else 0.0)
        return {
            "landmarks": float(len(self._lists)),
            "mean_entries_per_list": (
                sum(entry_counts) / len(entry_counts) if entry_counts else 0.0),
            "storage_bytes": float(self.storage_bytes),
            "mean_build_seconds": mean_build,
            "engine": self.engine_used,
        }

    def __repr__(self) -> str:
        return (f"LandmarkIndex(landmarks={len(self._lists)}, "
                f"top_n={self.landmark_params.top_n})")

    def __sizeof__(self) -> int:
        return sys.getsizeof(self._lists)
