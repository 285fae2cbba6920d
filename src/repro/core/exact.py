"""Exact Tr score computation (Section 3.3).

Two interchangeable engines:

- :func:`single_source_scores` — the sparse frontier propagation of
  Proposition 1, which is also the inner loop of Algorithm 1 (landmark
  preprocessing) and, depth-limited, of Algorithm 2 (query-time
  exploration). Iteration ``k`` adds the contribution of all walks of
  length exactly ``k``, so the cumulative state after ``k`` rounds
  covers every walk of length ``≤ k``.
- :func:`matrix_scores` — the closed-form linear-system solution of
  Equation 6 (numpy dense), used as ground truth in tests and for small
  graphs.

Plus the Proposition 3 machinery: spectral-radius estimation and the
``β < 1/σ_max(A)`` convergence check.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import (Any, Callable, Dict, Iterable, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

try:  # optional: accelerates spectral_radius on large graphs
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - exercised on scipy-less installs
    _scipy_sparse = None

from ..config import ScoreParams
from ..errors import ConvergenceError
from ..graph.snapshot import GraphLike, GraphSnapshot, as_snapshot
from ..obs import runtime as _obs
from ..semantics.matrix import SimilarityMatrix
from .scores import AuthorityIndex

TopicScores = Dict[str, Dict[int, float]]


class ScoreState:
    """Cumulative result of a propagation from one source node.

    Array-backed: one score column per topic plus the ``topo_β`` and
    ``topo_{αβ}`` columns, each indexed by snapshot position (entry
    ``i`` belongs to ``node_ids[i]``). The bulk engine hands over its
    block columns as they are, so Algorithm 1 takes its top-n straight
    from the arrays (:meth:`top_entries`) without a per-node dict.

    Attributes:
        source: The query node the propagation started from.
        columns: Topic → score column ``σ(source, ·, topic)``.
        topo_beta_column: Katz column ``topo_β(source, ·)`` (Eq. 2). The
            source's own entry includes the empty path (value ≥ 1),
            matching the matrix form ``(I − βA)^{-1}``.
        topo_alphabeta_column: Same with combined decay ``α·β`` — the
            ``topo_{αβ}`` vector Prop. 1 and Prop. 4 need.
        iterations: Number of propagation rounds executed.
        converged: Whether the frontier mass fell below tolerance
            (always ``False`` for depth-capped query explorations that
            hit the cap first).

    The dict properties :attr:`scores`, :attr:`topo_beta` and
    :attr:`topo_alphabeta` are read-only views holding exactly the
    nonzero entries, built on first access and cached.
    """

    __slots__ = ("source", "columns", "topo_beta_column",
                 "topo_alphabeta_column", "iterations", "converged",
                 "_node_ids", "_position", "_views")

    def __init__(self, source: int, node_ids: Sequence[int],
                 position: Mapping[int, int],
                 columns: Mapping[str, np.ndarray],
                 topo_beta_column: np.ndarray,
                 topo_alphabeta_column: np.ndarray,
                 iterations: int = 0, converged: bool = False) -> None:
        self.source = source
        self.columns = dict(columns)
        self.topo_beta_column = topo_beta_column
        self.topo_alphabeta_column = topo_alphabeta_column
        self.iterations = iterations
        self.converged = converged
        self._node_ids = node_ids
        self._position = position
        self._views: Dict[str, Mapping[Any, Any]] = {}

    @classmethod
    def from_dicts(cls, snapshot: GraphSnapshot, source: int,
                   scores: Mapping[str, Mapping[int, float]],
                   topo_beta: Mapping[int, float],
                   topo_alphabeta: Mapping[int, float],
                   iterations: int = 0,
                   converged: bool = False) -> "ScoreState":
        """State of a dict-walking propagation over *snapshot*.

        Every key must be a node of *snapshot*; absent nodes read 0.0.
        """
        position = snapshot.position
        n = len(snapshot)

        def column(values: Mapping[int, float]) -> np.ndarray:
            array = np.zeros(n)
            if values:
                array[[position[node] for node in values]] = list(
                    values.values())
            return array

        return cls(source, snapshot.node_ids, position,
                   {topic: column(bucket) for topic, bucket in scores.items()},
                   column(topo_beta), column(topo_alphabeta),
                   iterations=iterations, converged=converged)

    # ------------------------------------------------------------------
    # dict views
    # ------------------------------------------------------------------
    def _view(self, key: str,
              build: Callable[[], Dict[Any, Any]]) -> Mapping[Any, Any]:
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = MappingProxyType(build())
        return view

    @property
    def scores(self) -> Mapping[str, Mapping[int, float]]:
        """Per topic, node → ``σ(source, node, topic)`` over reached nodes."""
        return self._view("scores", lambda: {
            topic: MappingProxyType(_column_dict(self._node_ids, column))
            for topic, column in self.columns.items()})

    @property
    def topo_beta(self) -> Mapping[int, float]:
        """Node → ``topo_β(source, node)`` over reached nodes."""
        return self._view("topo_beta", lambda: _column_dict(
            self._node_ids, self.topo_beta_column))

    @property
    def topo_alphabeta(self) -> Mapping[int, float]:
        """Node → ``topo_{αβ}(source, node)`` over reached nodes."""
        return self._view("topo_alphabeta", lambda: _column_dict(
            self._node_ids, self.topo_alphabeta_column))

    # ------------------------------------------------------------------
    def score(self, node: int, topic: str) -> float:
        """``σ(source, node, topic)`` (0.0 for unreached nodes)."""
        column = self.columns.get(topic)
        index = self._position.get(node)
        if column is None or index is None:
            return 0.0
        return float(column[index])

    def ranked(self, topic: str, top_n: Optional[int] = None,
               exclude: Iterable[int] = ()) -> list[Tuple[int, float]]:
        """Nodes ranked by descending score on *topic*.

        Ties break by ascending node id. Only positive scores rank.

        Args:
            topic: Topic to rank on.
            top_n: Truncate to the best ``n`` entries (``None`` = all).
            exclude: Nodes to omit (typically the source and the
                accounts it already follows).
        """
        nodes, _, values = self._top(topic, top_n, exclude)
        return list(zip(nodes.tolist(), values.tolist()))

    def top_entries(self, topic: str, top_n: Optional[int] = None,
                    exclude: Iterable[int] = (),
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray]:
        """The :meth:`ranked` entries as aligned columns.

        Returns:
            ``(nodes, scores, topo, topo_ab)``: the ranked node ids and
            their score, ``topo_β`` and ``topo_{αβ}`` values — the four
            fields of a landmark's inverted-list entry.
        """
        nodes, positions, values = self._top(topic, top_n, exclude)
        return (nodes, values, self.topo_beta_column[positions],
                self.topo_alphabeta_column[positions])

    def _top(self, topic: str, top_n: Optional[int],
             exclude: Iterable[int],
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(node ids, positions, values)`` of the ranking, in order."""
        column = self.columns.get(topic)
        if column is None:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros(0)
        keep = np.ones(column.size, dtype=bool)
        for node in exclude:
            index = self._position.get(node)
            if index is not None:
                keep[index] = False
        return rank_dense(column, self._node_ids, keep, top_n)


def rank_dense(column: np.ndarray, node_ids: Sequence[int],
               keep: np.ndarray, top_n: Optional[int],
               extras: Optional[Mapping[int, float]] = None,
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank a dense per-position score column: the one top-n kernel.

    Every ranking in the package — :class:`ScoreState`, Algorithm-1
    lists, Algorithm-2 answers on one machine, the sharded tier and the
    partitioned service — comes from here. Positive entries with
    ``keep[i]`` set rank by descending score, ties by ascending node
    id. *node_ids* is read only for entries that survive the top-n cut.
    *extras* (node → score of off-snapshot candidates) rank beside the
    column under the same rule; no mask applies to them.

    Returns:
        ``(nodes, positions, values)`` in rank order; the ``k``-th
        extra's position is ``-1 - k``.
    """
    positions = np.flatnonzero((column > 0.0) & keep)
    values = column[positions]
    extra_nodes: Sequence[int] = ()
    if extras:
        extra_nodes = list(extras)
        extra_values = np.fromiter(extras.values(), dtype=np.float64,
                                   count=len(extras))
        positive = np.flatnonzero(extra_values > 0.0)
        positions = np.concatenate((positions, -1 - positive))
        values = np.concatenate((values, extra_values[positive]))
    if top_n is not None and 0 < top_n < positions.size:
        # The n-th best value bounds the answer; every entry tied with
        # it stays a candidate so the node-id tie-break below picks
        # among all of them.
        cut = positions.size - top_n
        boundary = np.partition(values, cut)[cut]
        candidates = values >= boundary
        positions = positions[candidates]
        values = values[candidates]
    nodes = np.fromiter(
        (node_ids[i] if i >= 0 else extra_nodes[-1 - i]
         for i in positions.tolist()),
        dtype=np.int64, count=positions.size)
    # lexsort's last key is primary: descending score (float negation
    # is exact), then ascending node id.
    order = np.lexsort((nodes, -values))
    if top_n is not None:
        order = order[:top_n]
    return nodes[order], positions[order], values[order]


def _column_dict(node_ids: Sequence[int],
                 column: np.ndarray) -> Dict[int, float]:
    """Node → value over the nonzero entries of a per-position column."""
    indices = np.flatnonzero(column).tolist()
    return dict(zip([node_ids[i] for i in indices],
                    column[indices].tolist()))


class _MaxSimCache:
    """Memoises ``max_{t'∈label} sim(t', t)`` per (label, topic) pair.

    Edge labels are shared frozensets, so the cache hit rate is high:
    the labeling pipeline produces far fewer distinct label sets than
    edges.
    """

    def __init__(self, similarity: SimilarityMatrix) -> None:
        self._similarity = similarity
        self._cache: Dict[Tuple[frozenset, str], float] = {}

    def max_similarity(self, label: frozenset, topic: str) -> float:
        key = (label, topic)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._similarity.max_similarity(label, topic)
            self._cache[key] = cached
        return cached


def single_source_scores(
    graph: GraphLike,
    source: int,
    topics: Sequence[str],
    similarity: SimilarityMatrix,
    authority: Optional[AuthorityIndex] = None,
    params: ScoreParams = ScoreParams(),
    max_depth: Optional[int] = None,
    sim_cache: Optional[_MaxSimCache] = None,
    absorbing: Optional[frozenset] = None,
    allow_stale: bool = False,
) -> ScoreState:
    """Propagate Tr scores from *source* (Prop. 1 / Algorithm 1).

    Args:
        graph: The labeled follow graph, or a prebuilt
            :class:`~repro.graph.snapshot.GraphSnapshot` of it. A live
            graph reads through its current (always fresh) snapshot.
        source: Query node ``u``.
        topics: Topics to score; may be empty for a pure topological
            (Katz) propagation.
        similarity: Topic-similarity matrix.
        authority: Authority index; defaults to the snapshot's shared
            one, so repeated calls over the same snapshot reuse its
            per-topic authority columns.
        params: Decay factors and convergence knobs.
        max_depth: Cap on walk length. ``None`` runs to convergence
            (preprocessing mode); small values (2–3) give the
            query-time exploration of Algorithm 2.
        sim_cache: Optional shared max-similarity cache.
        absorbing: Nodes whose mass is *not* propagated further (the
            source always propagates). Algorithm 2 passes the landmark
            set here: the BFS is pruned at landmarks so that paths
            through them are counted once, by Prop. 4 composition —
            the pruning Section 5.4 credits for the flat query times.
        allow_stale: Score a snapshot even when its graph has mutated
            since it was built (eval replays); by default a stale
            snapshot raises instead of silently serving old scores.

    Returns:
        The cumulative :class:`ScoreState`.

    Raises:
        StaleSnapshotError: a stale snapshot without ``allow_stale``.
        ConvergenceError: if ``max_depth`` is ``None`` and the frontier
            mass has not fallen below tolerance after
            ``params.max_iter`` rounds (a symptom of ``β`` violating
            Prop. 3 on this graph).
    """
    snapshot = as_snapshot(graph, allow_stale)
    if authority is None:
        authority = snapshot.authority()
    cache = sim_cache if sim_cache is not None else _MaxSimCache(similarity)
    beta = params.beta
    alphabeta = params.edge_decay
    edge_factor = params.beta * params.alpha

    cumulative_scores: TopicScores = {topic: {} for topic in topics}
    cumulative_tb: Dict[int, float] = {source: 1.0}
    cumulative_tab: Dict[int, float] = {source: 1.0}

    frontier_r: Dict[str, Dict[int, float]] = {topic: {} for topic in topics}
    frontier_tb: Dict[int, float] = {source: 1.0}
    frontier_tab: Dict[int, float] = {source: 1.0}

    limit = params.max_iter if max_depth is None else max_depth
    iterations = 0
    converged = False
    residual = 0.0

    with _obs.span("exact.single_source") as _root:
        if _root:
            _root.set(source=source, topics=len(topics), depth_limit=limit,
                      absorbing=len(absorbing) if absorbing else 0)
        for _ in range(limit):
            with _obs.span("exact.iteration") as _step:
                next_r: Dict[str, Dict[int, float]] = {
                    topic: {} for topic in topics}
                next_tb: Dict[int, float] = {}
                next_tab: Dict[int, float] = {}
                touched = set(frontier_tb)
                for topic in topics:
                    touched.update(frontier_r[topic])
                if absorbing:
                    touched = {
                        walker for walker in touched
                        if walker == source or walker not in absorbing
                    }
                if not touched:
                    converged = True
                    if _step:
                        _step.set(residual=0.0, frontier_size=0)
                    break
                for walker in sorted(touched):
                    tb_mass = frontier_tb.get(walker, 0.0)
                    tab_mass = frontier_tab.get(walker, 0.0)
                    r_masses = [frontier_r[topic].get(walker, 0.0)
                                for topic in topics]
                    for neighbor, label in snapshot.out_items(walker):
                        if tb_mass:
                            next_tb[neighbor] = (
                                next_tb.get(neighbor, 0.0) + beta * tb_mass)
                        if tab_mass:
                            next_tab[neighbor] = (
                                next_tab.get(neighbor, 0.0)
                                + alphabeta * tab_mass)
                        for topic, r_mass in zip(topics, r_masses):
                            increment = beta * r_mass
                            if tab_mass and label:
                                best = cache.max_similarity(label, topic)
                                if best:
                                    auth_value = authority.auth(neighbor,
                                                                topic)
                                    if auth_value:
                                        increment += (tab_mass * edge_factor
                                                      * best * auth_value)
                            if increment:
                                bucket = next_r[topic]
                                bucket[neighbor] = (
                                    bucket.get(neighbor, 0.0) + increment)
                iterations += 1
                new_mass = math.fsum(
                    math.fsum(bucket.values()) for bucket in next_r.values())
                new_mass += math.fsum(next_tb.values())
                for node, value in sorted(next_tb.items()):
                    cumulative_tb[node] = cumulative_tb.get(node, 0.0) + value
                for node, value in sorted(next_tab.items()):
                    cumulative_tab[node] = (
                        cumulative_tab.get(node, 0.0) + value)
                for topic in topics:
                    bucket = cumulative_scores[topic]
                    for node, value in sorted(next_r[topic].items()):
                        bucket[node] = bucket.get(node, 0.0) + value
                frontier_r, frontier_tb, frontier_tab = (
                    next_r, next_tb, next_tab)
                residual = new_mass
                if _step:
                    _step.set(residual=new_mass,
                              frontier_size=len(touched))
                if new_mass < params.tolerance:
                    converged = True
                    break
        if _root:
            _root.set(iterations=iterations, converged=converged,
                      residual=residual)
        _obs.count("exact.calls_total")
        _obs.count("exact.iterations_total", iterations)

    if max_depth is None and not converged:
        remaining = math.fsum(
            math.fsum(b.values()) for b in frontier_r.values())
        raise ConvergenceError(
            f"propagation from node {source} did not converge within "
            f"{params.max_iter} iterations (check β against Prop. 3)",
            iterations=iterations, residual=remaining)

    return ScoreState.from_dicts(
        snapshot, source, cumulative_scores, cumulative_tb, cumulative_tab,
        iterations=iterations, converged=converged)


# ----------------------------------------------------------------------
# Shared snapshot-backed edge weights
# ----------------------------------------------------------------------

def label_similarities(
    snapshot: GraphSnapshot,
    similarity: "SimilarityMatrix | _MaxSimCache",
    topic: str,
) -> np.ndarray:
    """``maxsim(label, topic)`` per interned label id of *snapshot*.

    Evaluated once per *distinct* label set (empty labels weigh 0);
    *similarity* is the matrix itself or a :class:`_MaxSimCache` over
    it, which returns the same values.
    """
    sims = np.empty(len(snapshot.labels))
    for i, label in enumerate(snapshot.labels):
        sims[i] = similarity.max_similarity(label, topic) if label else 0.0
    return sims


def semantic_edge_weights(
    snapshot: GraphSnapshot,
    similarity: SimilarityMatrix,
    topic: str,
    authority: AuthorityIndex,
) -> np.ndarray:
    """Per-edge semantic weight ``maxsim(label(w→v), t) · auth(v, t)``.

    One builder for every engine (Eq. 3 × authority, the entries of the
    per-topic matrix ``S_t``): the similarity is evaluated once per
    *distinct* label set and broadcast through the snapshot's interned
    label ids, and authority is gathered from the topic's authority
    column through each edge's target row. The result is aligned with
    the snapshot's in-CSR arrays — entry ``k`` weights the edge
    ``in_indices[k] → in_edge_rows()[k]`` — so
    ``csr_matrix((weights, in_indices, in_indptr))`` is ``S_t`` sharing
    the adjacency's sparsity pattern, and
    ``dense[rows, cols] = weights`` is its dense form.
    """
    label_sims = label_similarities(snapshot, similarity, topic)
    if not len(snapshot.in_label_ids):
        return np.zeros(0)
    weights = label_sims[snapshot.in_label_ids]
    weights *= authority.column(topic, snapshot)[snapshot.in_edge_rows()]
    return weights


# ----------------------------------------------------------------------
# Matrix form (Equation 6) — ground truth on small graphs
# ----------------------------------------------------------------------

def adjacency_matrix(graph: GraphLike) -> np.ndarray:
    """Dense adjacency with ``A[v][u] = 1`` iff u follows v (paper's A)."""
    snapshot = as_snapshot(graph, allow_stale=True)
    n = len(snapshot)
    matrix = np.zeros((n, n))
    if snapshot.num_edges:
        matrix[snapshot.in_edge_rows(), snapshot.in_indices] = 1.0
    return matrix


def matrix_scores(
    graph: GraphLike,
    source: int,
    topic: str,
    similarity: SimilarityMatrix,
    authority: Optional[AuthorityIndex] = None,
    params: ScoreParams = ScoreParams(),
) -> ScoreState:
    """Solve Equation 6 exactly with dense linear algebra.

    ``T_{αβ} = (I − αβA)^{-1} e_u`` and
    ``R_t = (I − βA)^{-1} · βα · S_t · T_{αβ}``
    where ``S_t[v][w] = maxsim(label(w→v), t) · auth(v, t)`` on edges.

    Intended for validation and small graphs — O(n³). Accepts stale
    snapshots without complaint: the ground-truth solver is exactly
    what eval replays run against a pinned pre-mutation view.

    Raises:
        ConvergenceError: if either system matrix is singular, i.e. the
            decay factor sits outside Prop. 3's region.
    """
    snapshot = as_snapshot(graph, allow_stale=True)
    if authority is None:
        authority = snapshot.authority()
    index = snapshot.position
    n = len(snapshot)
    adjacency = adjacency_matrix(snapshot)
    semantic = np.zeros((n, n))
    if snapshot.num_edges:
        semantic[snapshot.in_edge_rows(), snapshot.in_indices] = (
            semantic_edge_weights(snapshot, similarity, topic, authority))

    unit = np.zeros(n)
    unit[index[source]] = 1.0
    identity = np.eye(n)
    try:
        topo_ab = np.linalg.solve(identity - params.edge_decay * adjacency, unit)
        topo_b = np.linalg.solve(identity - params.beta * adjacency, unit)
        rhs = params.beta * params.alpha * (semantic @ topo_ab)
        recommendation = np.linalg.solve(identity - params.beta * adjacency, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"Eq. 6 system is singular for beta={params.beta}: {exc}") from exc

    return ScoreState(source, snapshot.node_ids, index,
                      {topic: recommendation}, topo_b, topo_ab,
                      iterations=0, converged=True)


# ----------------------------------------------------------------------
# Proposition 3 — convergence condition
# ----------------------------------------------------------------------

def spectral_radius(graph: GraphLike, iterations: int = 100,
                    seed: int = 0) -> float:
    """Estimate ``σ_max(A)`` with the power method on the adjacency.

    Works on the snapshot's CSR arrays directly (no dense matrix), so
    it is usable on the benchmark-scale graphs. Deterministic for a
    given seed; accuracy improves with *iterations*. When scipy is
    available the in-adjacency arrays back a CSR matrix with no edge
    loop and every power step is a sparse mat-vec; without scipy each
    step is one vectorised scatter-add over the same arrays.
    """
    snapshot = as_snapshot(graph, allow_stale=True)
    n = len(snapshot)
    if n == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    vector = rng.random(n) + 0.1
    vector /= np.linalg.norm(vector)

    rows = snapshot.in_edge_rows()
    cols = snapshot.in_indices
    adjacency = None
    if _scipy_sparse is not None:
        adjacency = _scipy_sparse.csr_matrix(
            (np.ones(len(cols)), cols, snapshot.in_indptr), shape=(n, n))

    estimate = 0.0
    for _ in range(iterations):
        if adjacency is not None:
            output = adjacency @ vector
        else:
            output = np.zeros(n)
            np.add.at(output, rows, vector[cols])
        norm = float(np.linalg.norm(output))
        if norm == 0.0:
            return 0.0  # nilpotent adjacency (DAG): radius 0
        estimate = norm
        vector = output / norm
    return estimate


def verify_convergence_condition(graph: GraphLike,
                                 params: ScoreParams,
                                 iterations: int = 100) -> bool:
    """Check Prop. 3: ``β < 1 / σ_max(A)`` (sufficient for convergence)."""
    radius = spectral_radius(graph, iterations=iterations)
    if radius == 0.0:
        return True
    return params.beta < 1.0 / radius


def max_beta(graph: GraphLike, iterations: int = 100) -> float:
    """Largest admissible β on this graph per Prop. 3 (∞ → returns inf)."""
    radius = spectral_radius(graph, iterations=iterations)
    if radius == 0.0:
        return math.inf
    return 1.0 / radius
