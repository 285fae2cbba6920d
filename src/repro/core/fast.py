"""Vectorised propagation engine on CSR matrices.

The dict-based engine of :mod:`repro.core.exact` is the reference
implementation, readable next to Proposition 1. This engine computes
the same fixed point in vector form (Equation 6's iteration, literally)
on ``scipy.sparse`` CSR matrices:

- ``A`` — adjacency with ``A[v, u] = 1`` iff u follows v;
- ``S_t`` — per-topic semantic matrix with
  ``S_t[v, u] = maxsim(label(u→v), t) · auth(v, t)`` on edges,
  built lazily per topic and cached (the matrices share A's pattern).

Per step: ``tb ← β·A tb``, ``tab ← αβ·A tab``,
``r_t ← β·A r_t + βα·S_t tab``, accumulated until the frontier mass
drops below tolerance — the same stopping rule, so results match the
reference engine to floating-point accumulation order.

Use for bulk workloads (landmark preprocessing over many sources, the
evaluation protocol): the matrices are built once per graph and each
propagation is a handful of sparse mat-vecs. :meth:`SparseEngine.
multi_source` goes one step further and propagates a block of B
sources as n×B mat–mat products — one BLAS call replaces B Python-level
mat-vec loops, which is what makes Algorithm 1 cheap over hundreds of
landmarks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

try:  # scipy is an optional test/bench dependency
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover - exercised on scipy-less installs
    _sparse = None

from ..config import ENGINE_CHOICES, ScoreParams
from ..errors import ConfigurationError, ConvergenceError, NodeNotFoundError
from ..graph.labeled_graph import LabeledSocialGraph
from ..graph.snapshot import GraphLike, as_snapshot
from ..obs import runtime as _obs
from ..semantics.matrix import SimilarityMatrix
from .exact import ScoreState, semantic_edge_weights
from .scores import AuthorityIndex


def scipy_available() -> bool:
    """Whether the sparse engine can be used on this install."""
    return _sparse is not None


def resolve_engine(name: str) -> str:
    """Resolve an ``engine=`` knob to a concrete engine name.

    ``"auto"`` picks ``"sparse"`` when scipy is importable and falls
    back to ``"dict"`` otherwise; explicit names are validated.

    Raises:
        ConfigurationError: on an unknown name, or on an explicit
            ``"sparse"`` request when scipy is not installed.
    """
    if name not in ENGINE_CHOICES:
        raise ConfigurationError(
            f"engine must be one of {ENGINE_CHOICES}, got {name!r}")
    if name == "auto":
        return "sparse" if scipy_available() else "dict"
    if name == "sparse" and not scipy_available():
        raise ConfigurationError(
            "engine='sparse' requires scipy; install it or pass "
            "engine='auto' to fall back to the dict engine")
    return name


class SparseEngine:
    """Reusable CSR-based Tr propagation for one (snapshot, similarity).

    The engine is a thin wrapper over a
    :class:`~repro.graph.snapshot.GraphSnapshot`: the adjacency CSR
    *shares* the snapshot's in-adjacency arrays (construction runs no
    Python-level edge loop), and per-topic semantic matrices are built
    from the shared :func:`~repro.core.exact.semantic_edge_weights`
    and cached by interned topic id. Every scoring call re-checks the
    snapshot's epoch, so mutating the graph without
    :meth:`invalidate` fails loudly instead of serving stale scores.

    Args:
        graph: The labeled follow graph, or a prebuilt snapshot of it.
        similarity: Topic-similarity matrix.
        params: Decay/convergence parameters.
        authority: Optional shared authority cache; defaults to the
            snapshot's shared one.
        allow_stale: Keep scoring a snapshot whose graph has moved on
            (eval replays) instead of raising ``StaleSnapshotError``.

    Raises:
        ConfigurationError: when scipy is not installed.
    """

    def __init__(self, graph: GraphLike,
                 similarity: SimilarityMatrix,
                 params: ScoreParams = ScoreParams(),
                 authority: Optional[AuthorityIndex] = None,
                 allow_stale: bool = False) -> None:
        if _sparse is None:
            raise ConfigurationError(
                "the sparse engine requires scipy; install it or use "
                "repro.core.exact.single_source_scores")
        self.graph = graph
        self.similarity = similarity
        self.params = params
        self.allow_stale = allow_stale
        self._authority_shared = authority is None
        self._bind(as_snapshot(graph, allow_stale), authority)

    def _bind(self, snapshot: Any,
              authority: Optional[AuthorityIndex]) -> None:
        """Point the engine at *snapshot*, sharing its arrays."""
        self.snapshot = snapshot
        self._authority = (snapshot.authority() if authority is None
                           else authority)
        self._nodes: List[int] = list(snapshot.node_ids)
        self._position: Dict[int, int] = snapshot.position
        n = len(self._nodes)
        self._adjacency = _sparse.csr_matrix(
            (np.ones(len(snapshot.in_indices)), snapshot.in_indices,
             snapshot.in_indptr), shape=(n, n))
        # Cached S_t matrices keyed by the snapshot's interned topic
        # id; query topics outside the snapshot vocabulary get
        # engine-local negative ids.
        self._semantic_cache: Dict[int, "_sparse.csr_matrix"] = {}
        self._extra_topic_ids: Dict[str, int] = {}

    def _topic_key(self, topic: str) -> int:
        key = self.snapshot.topic_ids.get(topic)
        if key is None:
            key = self._extra_topic_ids.get(topic)
            if key is None:
                key = -1 - len(self._extra_topic_ids)
                self._extra_topic_ids[topic] = key
        return key

    # ------------------------------------------------------------------
    def _semantic_matrix(self, topic: str) -> Any:
        key = self._topic_key(topic)
        cached = self._semantic_cache.get(key)
        if cached is not None:
            return cached
        snapshot = self.snapshot
        weights = semantic_edge_weights(snapshot, self.similarity, topic,
                                        self._authority)
        n = len(self._nodes)
        matrix = _sparse.csr_matrix(
            (weights, snapshot.in_indices, snapshot.in_indptr), shape=(n, n))
        self._semantic_cache[key] = matrix
        return matrix

    def single_source(self, source: int, topics: Sequence[str],
                      max_depth: Optional[int] = None,
                      absorbing: Optional[frozenset] = None,
                      allow_stale: Optional[bool] = None) -> ScoreState:
        """Vectorised equivalent of
        :func:`repro.core.exact.single_source_scores`."""
        return self.multi_source([source], topics, max_depth=max_depth,
                                 absorbing=absorbing,
                                 allow_stale=allow_stale)[0]

    def multi_source(self, sources: Sequence[int], topics: Sequence[str],
                     max_depth: Optional[int] = None,
                     absorbing: Optional[frozenset] = None,
                     allow_stale: Optional[bool] = None,
                     ) -> List[ScoreState]:
        """Propagate a block of B sources simultaneously.

        The three frontier vectors of the reference engine become n×B
        blocks and every step is a sparse mat–mat product (``A @ R``),
        so the per-source cost is amortised across the batch — the
        regime of landmark preprocessing (Algorithm 1 over hundreds of
        landmarks) and the evaluation protocol.

        Convergence is tracked *per column*: a source whose frontier
        mass falls below ``params.tolerance`` is frozen (its column is
        dropped from subsequent products) while the rest keep
        iterating, so each returned :class:`ScoreState` carries the
        same ``iterations``/``converged`` it would get from
        :meth:`single_source`.

        Args:
            sources: Source nodes (one propagation per entry; the
                batch may be empty).
            topics: Topics to score, shared by every source.
            max_depth: Walk-length cap applied to every column;
                ``None`` runs each column to convergence.
            absorbing: Nodes whose mass is not propagated further —
                each column's own source always propagates, matching
                the reference engine.
            allow_stale: Per-call staleness override; ``None`` keeps
                the engine's construction-time setting.

        Returns:
            One :class:`ScoreState` per source, in input order.

        Raises:
            NodeNotFoundError: if any source is not in the graph.
            ConvergenceError: if ``max_depth`` is ``None`` and at
                least one column has not converged within
                ``params.max_iter`` rounds.
        """
        self.snapshot.ensure_fresh(
            self.allow_stale if allow_stale is None else allow_stale)
        positions: List[int] = []
        for source in sources:
            position = self._position.get(source)
            if position is None:
                raise NodeNotFoundError(source)
            positions.append(position)
        if not positions:
            return []

        params = self.params
        beta = params.beta
        alpha = params.alpha
        alphabeta = params.edge_decay
        n = len(self._nodes)
        batch = len(positions)
        adjacency = self._adjacency
        with _obs.span("sparse.semantic_build") as _sem:
            if _sem:
                _sem.set(topics=len(topics),
                         built=sum(1 for topic in topics
                                   if self._topic_key(topic)
                                   not in self._semantic_cache))
            semantic = [self._semantic_matrix(topic) for topic in topics]
        position_array = np.asarray(positions)

        absorb_mask = None
        if absorbing:
            absorb_mask = np.ones(n)
            for node in absorbing:
                index = self._position.get(node)
                if index is not None:
                    absorb_mask[index] = 0.0

        tb = np.zeros((n, batch))
        tb[position_array, np.arange(batch)] = 1.0
        tab = tb.copy()
        r = [np.zeros((n, batch)) for _ in topics]
        cumulative_tb = tb.copy()
        cumulative_tab = tab.copy()
        cumulative_r = [block.copy() for block in r]

        limit = params.max_iter if max_depth is None else max_depth
        iterations = np.zeros(batch, dtype=np.int64)
        converged = np.zeros(batch, dtype=bool)
        active = np.ones(batch, dtype=bool)

        with _obs.span("sparse.multi_source") as _root:
            if _root:
                _root.set(batch=batch, topics=len(topics), depth_limit=limit)
            for _ in range(limit):
                live = np.nonzero(active)[0]
                if live.size == 0:
                    break
                # While every column is live the blocks are used as
                # they are; gather/scatter starts once one freezes.
                all_live = live.size == batch
                with _obs.span("sparse.iteration") as _step:
                    if _step:
                        _step.set(live_columns=int(live.size))
                    if all_live:
                        frontier_tb, frontier_tab, frontier_r = tb, tab, r
                    else:
                        frontier_tb = tb[:, live]
                        frontier_tab = tab[:, live]
                        frontier_r = [block[:, live] for block in r]
                    if absorb_mask is not None:
                        columns = np.arange(live.size)
                        source_rows = position_array[live]
                        masked_tb = frontier_tb * absorb_mask[:, None]
                        masked_tab = frontier_tab * absorb_mask[:, None]
                        # each column's own source always propagates
                        masked_tb[source_rows, columns] = \
                            frontier_tb[source_rows, columns]
                        masked_tab[source_rows, columns] = \
                            frontier_tab[source_rows, columns]
                        frontier_tb, frontier_tab = masked_tb, masked_tab
                        masked_r = []
                        for block in frontier_r:
                            masked = block * absorb_mask[:, None]
                            masked[source_rows, columns] = \
                                block[source_rows, columns]
                            masked_r.append(masked)
                        frontier_r = masked_r
                    next_tb = beta * (adjacency @ frontier_tb)
                    next_tab = alphabeta * (adjacency @ frontier_tab)
                    next_r = [
                        beta * (adjacency @ frontier_r[i])
                        + beta * alpha * (semantic[i] @ frontier_tab)
                        for i in range(len(topics))
                    ]
                    iterations[live] += 1
                    new_mass = next_tb.sum(axis=0)
                    for block in next_r:
                        new_mass = new_mass + block.sum(axis=0)
                    if all_live:
                        cumulative_tb += next_tb
                        cumulative_tab += next_tab
                        for i in range(len(topics)):
                            cumulative_r[i] += next_r[i]
                        tb, tab, r = next_tb, next_tab, next_r
                    else:
                        cumulative_tb[:, live] += next_tb
                        cumulative_tab[:, live] += next_tab
                        for i in range(len(topics)):
                            cumulative_r[i][:, live] += next_r[i]
                        tb[:, live] = next_tb
                        tab[:, live] = next_tab
                        for i in range(len(topics)):
                            r[i][:, live] = next_r[i]
                    done = new_mass < params.tolerance
                    converged[live[done]] = True
                    active[live[done]] = False
                    if _step:
                        _step.set(residual=float(new_mass.max())
                                  if live.size else 0.0)
            rounds = int(iterations.max()) if batch else 0
            if _root:
                _root.set(iterations=rounds,
                          converged_columns=int(converged.sum()))
            _obs.count("sparse.batches_total")
            _obs.count("sparse.sources_total", batch)
            _obs.count("sparse.iterations_total", rounds)

        if max_depth is None and not converged.all():
            stuck = [sources[int(i)] for i in np.nonzero(~converged)[0]]
            raise ConvergenceError(
                f"sparse propagation from node(s) {stuck} did not "
                f"converge within {params.max_iter} iterations",
                iterations=int(iterations.max()))

        with _obs.span("sparse.collect") as _collect:
            # Each state keeps views of its own block columns — no copy.
            states = [
                ScoreState(source, self._nodes, self._position,
                           {topic: cumulative_r[i][:, column]
                            for i, topic in enumerate(topics)},
                           cumulative_tb[:, column],
                           cumulative_tab[:, column],
                           iterations=int(iterations[column]),
                           converged=bool(converged[column]))
                for column, source in enumerate(sources)
            ]
            if _collect:
                _collect.set(states=len(states))
        return states

    def invalidate(self) -> None:
        """Re-bind to the graph's current snapshot, dropping topic caches.

        Constructed from a live graph, the engine re-pins to
        ``graph.snapshot()`` (a cheap array share — no edge loop) so
        scoring resumes against the post-mutation state. Constructed
        from a bare snapshot there is nothing fresher to bind; only the
        per-topic caches are dropped.
        """
        if isinstance(self.graph, LabeledSocialGraph):
            if self._authority_shared:
                self._bind(self.graph.snapshot(), None)
            else:
                self._authority.invalidate()
                self._bind(self.graph.snapshot(), self._authority)
        else:
            self._semantic_cache.clear()
            self._extra_topic_ids.clear()
            self._authority.invalidate()
