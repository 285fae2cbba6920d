"""Dict Proposition-4 composition and Algorithm 2 end to end.

``σ̃(u,v,t) = σ(u,v,t) + Σ_λ σ(u,λ,t)·topo_β(λ,v) + topo_{αβ}(u,λ)·σ(λ,v,t)``
over every landmark λ the exploration reached, one stored entry at a
time, in ascending landmark order.
"""

from __future__ import annotations

from typing import (AbstractSet, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from repro.config import ScoreParams
from repro.core.exact import ScoreState, single_source_scores
from repro.graph.snapshot import as_snapshot
from repro.landmarks.index import LandmarkEntry, LandmarkIndex
from repro.semantics.matrix import SimilarityMatrix


def compose(
    state: ScoreState,
    topic: str,
    user: int,
    depth: int,
    landmarks_sorted: Sequence[int],
    lists_of: Callable[[int], Sequence[LandmarkEntry]],
) -> Tuple[Dict[int, float], List[int]]:
    """Compose the exploration *state* with the landmark lists.

    At ``depth >= 1`` the user's own landmark list is skipped (its mass
    was explored directly). Returns ``(combined scores, encountered
    landmarks)``.
    """
    combined: Dict[int, float] = dict(state.scores.get(topic, {}))
    encountered: List[int] = []
    for landmark in landmarks_sorted:
        if landmark == user and depth > 0:
            continue
        topo_ab = state.topo_alphabeta.get(landmark, 0.0)
        if topo_ab <= 0.0:
            continue
        encountered.append(landmark)
        sigma_to_landmark = state.score(landmark, topic)
        for entry in lists_of(landmark):
            if entry.node == user:
                continue
            contribution = (sigma_to_landmark * entry.topo
                            + topo_ab * entry.score)
            if contribution:
                combined[entry.node] = (
                    combined.get(entry.node, 0.0) + contribution)
    return combined, encountered


def approximate_scores(
    graph,
    similarity: SimilarityMatrix,
    index: LandmarkIndex,
    user: int,
    topic: str,
    depth: Optional[int] = None,
    params: Optional[ScoreParams] = None,
    lost: AbstractSet[int] = frozenset(),
) -> Tuple[Dict[int, float], List[int], ScoreState]:
    """Algorithm 2: dict exploration absorbed at landmarks, then compose.

    *lost* holds the nodes of unavailable shards: the walk never
    expands from them and their landmarks are not composed — the
    sharded tier's degraded semantics. Returns ``(scores, encountered
    landmarks, exploration state)``.
    """
    params = params if params is not None else index.params
    depth = depth if depth is not None else index.landmark_params.query_depth
    landmarks = frozenset(index.landmarks)
    state = single_source_scores(
        graph, user, [topic], similarity, params=params, max_depth=depth,
        absorbing=landmarks | frozenset(lost), allow_stale=True)
    combined, encountered = compose(
        state, topic, user, depth,
        [landmark for landmark in sorted(landmarks) if landmark not in lost],
        lambda landmark: index.recommendations(landmark, topic))
    return combined, encountered, state


def approximate_ranking(
    graph,
    similarity: SimilarityMatrix,
    index: LandmarkIndex,
    user: int,
    topic: str,
    top_n: Optional[int] = 10,
    depth: Optional[int] = None,
    params: Optional[ScoreParams] = None,
    exclude_followed: bool = True,
    lost: AbstractSet[int] = frozenset(),
) -> List[Tuple[int, float]]:
    """Top-n ``(node, score)`` pairs, ties broken by node id.

    The user, (optionally) its followees, non-positive scores and the
    nodes in *lost* are never recommended.
    """
    scores, _, _ = approximate_scores(graph, similarity, index, user, topic,
                                      depth=depth, params=params, lost=lost)
    excluded = {user}
    if exclude_followed:
        excluded.update(as_snapshot(graph, allow_stale=True)
                        .out_neighbors(user))
    ranked = [(node, value) for node, value in scores.items()
              if node not in excluded and node not in lost and value > 0.0]
    ranked.sort(key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_n] if top_n is not None else ranked
