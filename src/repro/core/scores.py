"""Building blocks of the Tr score (Section 3.2).

This module implements, directly from their defining equations:

- the per-node topical authority ``auth(u, t)`` (local × global);
- the per-edge semantic relevance ``ε_e(t) = α^d · max sim`` (Eq. 3);
- the topical path relevance ``ω̄_p(t) = Σ_e ε_e(t)·auth(end(e), t)``
  (Eq. 4) and the total path score ``ω_p(t) = β^|p| · ω̄_p(t)``;
- the composition property of Proposition 2, which the landmark
  machinery of Section 4 relies on.

The functions that take explicit paths are reference implementations:
they are what the property-based tests compare the fast iterative and
landmark computations against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence

import numpy as np

from ..config import ScoreParams
from ..graph.labeled_graph import LabeledSocialGraph
from ..semantics.matrix import SimilarityMatrix


def _same_order(first: Sequence[int], second: Sequence[int]) -> bool:
    """Whether two dense node orders are equal, whatever their container.

    A store-backed snapshot numbers its nodes ``range(n)`` while a
    graph-built or compacted one keeps a tuple; equal ids in equal
    order are the same order either way.
    """
    if first is second:
        return True
    if len(first) != len(second):
        return False
    return bool(np.array_equal(np.asarray(first), np.asarray(second)))


class AuthorityIndex:
    """Per-topic authority columns over one frozen view.

    ``auth(u, t) = (|Γu(t)| / |Γu|) · log(1 + |Γu(t)|) / log(1 + max_v |Γv(t)|)``

    The local factor rewards specialisation; the global factor rewards
    per-topic popularity, log-smoothed. Both are 0 when nobody follows
    ``u`` on ``t``; local is 1 when ``u`` is followed exclusively on
    ``t``; global is 1 when ``u`` is the most-followed account on ``t``.

    Accepts a live graph or a prebuilt
    :class:`~repro.graph.snapshot.GraphSnapshot`; either way the
    follower counts are read from a snapshot (resolved lazily from a
    live graph), so a propagation never sees counts change mid-run.
    Prefer ``snapshot.authority()`` to share one index across every
    scorer built from the same snapshot.

    One topic's authority over every node is one vector expression
    over the view's follower counts, so the index keeps exactly one
    float64 :meth:`column` per topic (by dense position), plus — once
    the scalar :meth:`auth` is used on that topic — the column as a
    Python list, so a scalar lookup is a list index. Columns are built
    lazily; building one twice from two threads is harmless (both
    produce the same array), but :meth:`warm` builds them up front so
    concurrent propagations only read. :meth:`invalidate` drops them.
    """

    def __init__(self, graph: Any) -> None:
        self._graph = graph
        self._view: Any = None
        self._columns: Dict[str, np.ndarray] = {}
        self._lists: Dict[str, List[float]] = {}

    def _resolve(self) -> Any:
        """The frozen view counts are read from (snapshot when possible)."""
        view = self._view
        if view is None:
            source = self._graph
            view = (source.snapshot()
                    if isinstance(source, LabeledSocialGraph) else source)
            self._view = view
        return view

    def column(self, topic: str, snapshot: Any = None) -> np.ndarray:
        """``auth(v, topic)`` of every node, as a read-only float64 array.

        Indexed by the dense position of the index's view — or, when
        *snapshot* is given, of *snapshot* (re-gathered by node id if
        its node order differs from the view's).

        Bitwise equal to the scalar formula: the operation order is
        ``(c / total) * (log1p(c) / log1p(max))``, and ``log1p`` is
        ``math.log1p`` evaluated once per distinct count (NumPy's
        vectorised ``log1p`` may differ from it in the last bit).
        """
        column = self._columns.get(topic)
        if column is None:
            column = self._build_column(topic)
            self._columns[topic] = column
        if snapshot is not None:
            view = self._resolve()
            if not _same_order(snapshot.node_ids, view.node_ids):
                column = column[[view.index_of(node)
                                 for node in snapshot.node_ids]]
        return column

    def _build_column(self, topic: str) -> np.ndarray:
        view = self._resolve()
        counts = view.follower_counts_column(topic)
        column = np.zeros(len(counts))
        followed = np.flatnonzero(counts)
        if followed.size:
            on_topic = counts[followed]
            totals = np.diff(view.in_indptr)[followed]
            # on_topic >= 1 implies the global max >= 1 too, so the
            # normaliser is strictly positive here.
            normaliser = math.log1p(view.max_followers_on(topic))
            distinct, inverse = np.unique(on_topic, return_inverse=True)
            logs = np.array([math.log1p(c) for c in distinct.tolist()])
            column[followed] = ((on_topic / totals)
                                * (logs[inverse] / normaliser))
        column.flags.writeable = False
        return column

    def auth(self, node: int, topic: str) -> float:
        """Authority of *node* on *topic*, in ``[0, 1]``."""
        values = self._lists.get(topic)
        if values is None:
            values = self.column(topic).tolist()
            self._lists[topic] = values
        return values[self._resolve().index_of(node)]

    def local_authority(self, node: int, topic: str) -> float:
        """The specialisation factor alone (for ablation studies)."""
        view = self._resolve()
        followers_on_topic = view.follower_count_on(node, topic)
        if followers_on_topic == 0:
            return 0.0
        return followers_on_topic / view.follower_count(node)

    def global_popularity(self, node: int, topic: str) -> float:
        """The popularity factor alone (for ablation studies)."""
        view = self._resolve()
        followers_on_topic = view.follower_count_on(node, topic)
        if followers_on_topic == 0:
            return 0.0
        return (math.log1p(followers_on_topic)
                / math.log1p(view.max_followers_on(topic)))

    def warm(self, topics: Sequence[str]) -> None:
        """Build the columns of *topics* now, not on first use."""
        for topic in topics:
            self.column(topic)

    def invalidate(self) -> None:
        """Drop the columns (and re-resolve the view) after a mutation."""
        self._columns.clear()
        self._lists.clear()
        self._view = None


def edge_relevance(similarity: SimilarityMatrix, edge_topics: Iterable[str],
                   topic: str, distance: int, params: ScoreParams) -> float:
    """Equation 3: ``ε_e(t) = α^d · max_{t'∈label(e)} sim(t', t)``.

    Args:
        similarity: Precomputed topic-similarity matrix.
        edge_topics: Label set of the edge.
        topic: Query topic ``t``.
        distance: 1-based distance of the edge from the query node
            (the first edge on a path is at distance 1 — see Example 2).
        params: Supplies ``α``.
    """
    if distance < 1:
        raise ValueError(f"edge distance is 1-based, got {distance}")
    best = similarity.max_similarity(edge_topics, topic)
    return (params.alpha ** distance) * best


@dataclass(frozen=True)
class PathScore:
    """Total score of one path, with the pieces Prop. 2 composes.

    Attributes:
        length: Number of edges ``|p|``.
        total: ``ω_p(t) = β^|p| · Σ_e α^d(e)·sim·auth`` — the quantity
            summed by Definition 1.
    """

    length: int
    total: float

    def __add__(self, other: "PathScore") -> "PathScore":
        raise TypeError("use compose_path_scores; PathScore is not additive")


def path_score(graph: LabeledSocialGraph, similarity: SimilarityMatrix,
               authority: AuthorityIndex, nodes: Sequence[int], topic: str,
               params: ScoreParams) -> PathScore:
    """Score one explicit path given as a node sequence (Eq. 1 summand).

    Raises:
        EdgeNotFoundError: if consecutive nodes are not linked.
        ValueError: on a path with fewer than two nodes.
    """
    if len(nodes) < 2:
        raise ValueError("a path needs at least one edge")
    relevance = 0.0
    for distance, (source, target) in enumerate(zip(nodes, nodes[1:]), start=1):
        label = graph.edge_topics(source, target)
        relevance += (edge_relevance(similarity, label, topic, distance, params)
                      * authority.auth(target, topic))
    length = len(nodes) - 1
    return PathScore(length=length, total=(params.beta ** length) * relevance)


def compose_path_scores(first: PathScore, second: PathScore,
                        params: ScoreParams) -> PathScore:
    """Proposition 2: score of the concatenation ``p1.p2``.

    ``ω_{p1.p2}(t) = β^|p2|·ω_{p1}(t) + (β·α)^|p1|·ω_{p2}(t)``
    """
    beta, alpha = params.beta, params.alpha
    total = ((beta ** second.length) * first.total
             + ((beta * alpha) ** first.length) * second.total)
    return PathScore(length=first.length + second.length, total=total)


def single_edge_score(similarity: SimilarityMatrix,
                      authority: AuthorityIndex, edge_topics: Iterable[str],
                      target: int, topic: str, params: ScoreParams) -> float:
    """``ω_{w→v}(t) = β·α·maxsim(label, t)·auth(v, t)`` (Prop. 1).

    The total score of the length-one path consisting of one edge into
    *target* — the increment term of the iterative computation.
    """
    best = similarity.max_similarity(edge_topics, topic)
    if best == 0.0:
        return 0.0
    return params.beta * params.alpha * best * authority.auth(target, topic)
