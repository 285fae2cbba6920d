"""Dirty-frontier landmark maintenance — rebuild only what changed.

A full :meth:`LandmarkIndex.build` re-propagates every landmark after
any churn. But Algorithm 1 walks *out*-edges from the landmark for at
most ``precompute_depth`` rounds, so a landmark's stored lists can only
change when its forward reachability cone (within that horizon)
intersects the set of nodes the churn actually touched:

- a changed edge ``a → b`` affects a walker only if the walk visits
  ``a`` (the edge is taken or newly skippable there);
- the authority of ``b`` (its per-topic follower counts) is read when
  a walker sits at any in-neighbour ``w`` of ``b`` — so ``b``'s count
  change matters only to walks that reach such a ``w``.

The *frontier* of one event is therefore ``{a} ∪ Γ_now(b)`` (the
post-event in-neighbours of ``b``; an in-neighbour removed by churn is
the source of its own removal event and lands in the frontier there).
:func:`dirty_landmarks` finds every landmark whose cone intersects a
frontier by a single **backward** BFS from the frontier along
in-edges — horizon levels over the post-event graph — instead of one
forward BFS per landmark.

:func:`refresh_landmarks` then re-runs exactly the
:meth:`LandmarkIndex.build` propagation (:func:`landmark_entries`:
same engine, ``max_depth`` and tie-breaks) for those landmarks, so the
refreshed lists are bitwise-identical to a from-scratch rebuild —
asserted by ``tests/dynamics/test_incremental.py``.

One global hazard remains: the authority normaliser
``log1p(max_followers_on(t))`` is a *graph-wide* maximum. If churn
moves it for a maintained topic, every landmark's scores change and
the frontier argument does not apply — callers (the incremental
maintainer) detect that and fall back to a full refresh.
"""

from __future__ import annotations

from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from ..config import EngineParams, ScoreParams
from ..core.exact import _MaxSimCache, single_source_scores
from ..core.fast import SparseEngine, resolve_engine
from ..core.scores import AuthorityIndex
from ..obs import runtime as _obs
from ..semantics.matrix import SimilarityMatrix
from .index import LandmarkEntry, LandmarkIndex


def dirty_landmarks(
    graph,
    landmarks: Sequence[int],
    frontier: Iterable[int],
    horizon: Optional[int],
) -> List[int]:
    """Landmarks whose depth-*horizon* cone intersects *frontier*.

    Args:
        graph: Post-event ``GraphLike`` view (live graph, snapshot, or
            :class:`~repro.graph.overlay.DeltaSnapshot` overlay).
        landmarks: Candidate landmark ids.
        frontier: Nodes the churn touched (see module docstring).
        horizon: Propagation depth bound (``precompute_depth``);
            ``None`` means unbounded — every landmark that can reach
            the frontier at any distance is dirty.

    Returns:
        The dirty subset, in *landmarks* order.
    """
    candidates = set(landmarks)
    reached: Set[int] = {node for node in frontier if node in graph}
    if not reached or not candidates:
        return []
    level = set(reached)
    depth = 0
    # Backward BFS: a node w is marked iff w reaches the frontier along
    # out-edges within `depth` hops — i.e. we expand along in-edges.
    while level and not candidates <= reached:
        if horizon is not None and depth >= horizon:
            break
        next_level: Set[int] = set()
        for node in level:
            for follower in graph.in_neighbors(node):
                if follower not in reached:
                    reached.add(follower)
                    next_level.add(follower)
        level = next_level
        depth += 1
    return [landmark for landmark in landmarks if landmark in reached]


def refresh_landmarks(
    index: LandmarkIndex,
    graph,
    landmarks: Sequence[int],
    topics: Sequence[str],
    similarity: SimilarityMatrix,
    *,
    authority: Optional[AuthorityIndex] = None,
    engine: Optional[str] = None,
    batch_size: Optional[int] = None,
) -> int:
    """Re-run the :meth:`LandmarkIndex.build` propagation for a subset.

    The lists come from :func:`landmark_entries`, so they are
    bitwise-identical to what a from-scratch build over *graph* would
    store for these landmarks. They are installed via
    :meth:`LandmarkIndex.set_recommendations` so version counters bump
    and cached vectorised views invalidate.

    Args:
        index: The index to refresh in place.
        graph: Post-event ``GraphLike`` view to propagate over.
        landmarks: The (dirty) landmarks to re-propagate.
        topics: Topic vocabulary the index maintains.
        similarity: Topic-similarity matrix.
        authority: Shared authority index (*graph*'s snapshot's own,
            ``as_snapshot(graph).authority()``, if omitted — it must
            reflect the post-event counts).
        engine: Engine override; defaults to the engine that built the
            index (``index.engine_used``), falling back to ``"auto"``.
        batch_size: Sources per block for the sparse engine.

    Returns:
        The number of landmarks re-propagated.
    """
    todo = list(landmarks)
    if not todo:
        return 0
    resolved = resolve_engine(engine if engine is not None
                              else index.engine_used or "auto")
    with _obs.span("landmarks.refresh") as _sp:
        if _sp:
            _sp.set(landmarks=len(todo), engine=resolved)
        for landmark, per_topic in landmark_entries(
                index, graph, todo, topics, similarity, authority=authority,
                engine=resolved, batch_size=batch_size):
            for topic, entries in per_topic.items():
                index.set_recommendations(landmark, topic, entries)
    _obs.count("landmarks.refreshed_total", len(todo))
    return len(todo)


def landmark_entries(
    index: LandmarkIndex,
    graph,
    landmarks: Sequence[int],
    topics: Sequence[str],
    similarity: SimilarityMatrix,
    *,
    params: Optional[ScoreParams] = None,
    authority: Optional[AuthorityIndex] = None,
    engine: Optional[str] = None,
    batch_size: Optional[int] = None,
) -> Iterator[Tuple[int, Dict[str, List[LandmarkEntry]]]]:
    """``(landmark, topic → list)`` exactly as :meth:`LandmarkIndex.build`
    makes them: same engine resolution, ``precompute_depth`` cap and
    tie-breaks. *params* defaults to the index's; the other arguments
    are :func:`refresh_landmarks`'s."""
    resolved = resolve_engine(engine if engine is not None
                              else index.engine_used or "auto")
    params = params if params is not None else index.params
    max_depth = index.landmark_params.precompute_depth
    top_n = index.landmark_params.top_n
    topic_list = list(topics)
    if resolved == "sparse":
        sparse = SparseEngine(graph, similarity, params, authority=authority)
        block_size = (batch_size if batch_size is not None
                      else EngineParams().batch_size)
        for start in range(0, len(landmarks), block_size):
            block = list(landmarks[start:start + block_size])
            states = sparse.multi_source(block, topic_list,
                                         max_depth=max_depth)
            for landmark, state in zip(block, states):
                yield landmark, LandmarkIndex._entries_for(
                    state, landmark, topic_list, top_n)
    else:
        sim_cache = _MaxSimCache(similarity)
        for landmark in landmarks:
            state = single_source_scores(
                graph, landmark, topic_list, similarity,
                authority=authority, params=params, max_depth=max_depth,
                sim_cache=sim_cache)
            yield landmark, LandmarkIndex._entries_for(
                state, landmark, topic_list, top_n)
