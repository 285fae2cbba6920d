"""Vectorized Algorithm-2 query path (explore + compose) over CSR arrays.

The paper's query-time promise is that Algorithm 2 answers in
milliseconds: a depth-k exploration absorbed at landmarks, then the
Proposition-4 composition of each encountered landmark's precomputed
vectors. A dict walk (:func:`single_source_scores` plus an
entry-by-entry compose loop) is readable but touches Python dicts per
edge and per stored entry. This module is the batched form, mirroring
what :class:`~repro.core.fast.SparseEngine` did for preprocessing:

- :class:`QueryEngine` runs the depth-k frontier expansion directly
  over the shared :class:`~repro.graph.snapshot.GraphSnapshot` CSR
  arrays (``out_indptr`` / ``out_indices`` / ``out_label_ids``) with
  one gather + ``np.add.at`` scatter per round;
- :class:`LandmarkVectors` materialises a landmark's per-topic top-n
  list once as dense numpy arrays (positions, node ids, ``σ``,
  ``topo_β``, ``topo_{αβ}``), and
  :func:`compose_landmark_contributions` evaluates
  ``σ(u,λ,t)·topo_β(λ,v) + topo_{αβ}(u,λ)·σ(λ,v,t)`` for every stored
  entry of every encountered landmark with one concatenated
  scatter-add;
- :class:`LandmarkVectorCache` keeps those arrays keyed on
  ``(snapshot.epoch, landmark, topic)`` in a bounded LRU, invalidated
  by epoch bumps (new key) and by
  :meth:`~repro.landmarks.index.LandmarkIndex.set_recommendations`
  (per-list version counters), so maintainers and live graphs stay
  correct.

Bitwise parity with the dict walk is a hard invariant, not a
best-effort: every float operation here replays the reference
engine's accumulation order exactly —

- walkers are expanded in ascending dense position (= ascending node
  id, the snapshot sorts ``node_ids``), matching ``sorted(touched)``;
- ``np.add.at`` is an *unbuffered* scatter-add that applies updates in
  index order, so per-target accumulation order equals the dict loop's
  walker-then-edge order;
- the per-edge increment keeps the reference expression's
  left-to-right association
  ``β·r + ((tab·(βα))·maxsim)·auth`` with maxsim and auth gathered as
  separate arrays (never pre-multiplied);
- residual mass uses :func:`math.fsum` over the accumulated frontier
  (exact, so including zeros changes nothing);
- zero-valued contributions the dict path skips behind truthiness
  guards are *added* here — ``x + 0.0`` is a bitwise no-op for the
  non-negative masses this engine propagates.

This is the only depth-k exploration and the only Proposition-4
composition in the package: the single-machine recommender, the
sharded serving tier and the partitioned landmark service all run it.
The dict walker and the dict compose loop survive as test oracles
(``tests/oracles/``), which the parity suites pin this module against
bit for bit. Cross-partition message accounting
(:class:`MessageStats`) is derived from the same gathered edge arrays
a round already builds, so counting traffic costs a few array ops per
round, not a second walk.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import ScoreParams
from ..core.exact import ScoreState, _MaxSimCache
from ..core.scores import AuthorityIndex
from ..errors import ConfigurationError
from ..graph.snapshot import GraphSnapshot
from ..obs import runtime as _obs
from ..semantics.matrix import SimilarityMatrix
from .index import LandmarkEntry

__all__ = [
    "DenseExploration",
    "LandmarkVectors",
    "LandmarkVectorCache",
    "MessageStats",
    "StackedLandmarkLists",
    "QueryEngine",
    "compose_landmark_contributions",
    "compose_stacked",
    "dense_scores_to_dict",
    "stack_landmark_vectors",
    "vectors_from_entries",
]


# ----------------------------------------------------------------------
# Landmark vectors + epoch-keyed cache
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LandmarkVectors:
    """One landmark's per-topic inverted list as aligned numpy arrays.

    Attributes:
        positions: Dense snapshot positions of the stored nodes, in
            list order (descending stored score) — the scatter index of
            the composition.
        nodes: The stored node ids, aligned with *positions*.
        score: ``σ(λ, v, t)`` per entry.
        topo: ``topo_β(λ, v)`` per entry.
        topo_ab: ``topo_{αβ}(λ, v)`` per entry.
        extras: Entries whose node is absent from the snapshot (an
            index rebuilt on a grown graph composed against an older
            pinned snapshot, ``allow_stale`` serving). Kept in list
            order as raw entries; composed through a dict side-channel.
        version: The index list version these arrays were built from
            (see :meth:`LandmarkIndex.version_of`); a mismatch at
            lookup time invalidates the cached vectors.
    """

    positions: np.ndarray
    nodes: np.ndarray
    score: np.ndarray
    topo: np.ndarray
    topo_ab: np.ndarray
    extras: Tuple[LandmarkEntry, ...]
    version: int

    def __len__(self) -> int:
        """Number of stored entries (dense + extras)."""
        return int(self.nodes.size) + len(self.extras)


def vectors_from_entries(snapshot: GraphSnapshot,
                         entries: Sequence[LandmarkEntry],
                         version: int = 0) -> LandmarkVectors:
    """Materialise an inverted list as :class:`LandmarkVectors`."""
    position = snapshot.position
    count = len(entries)
    positions = np.empty(count, dtype=np.int64)
    nodes = np.empty(count, dtype=np.int64)
    score = np.empty(count, dtype=np.float64)
    topo = np.empty(count, dtype=np.float64)
    topo_ab = np.empty(count, dtype=np.float64)
    extras: List[LandmarkEntry] = []
    kept = 0
    for entry in entries:
        pos = position.get(entry.node)
        if pos is None:
            extras.append(entry)
            continue
        positions[kept] = pos
        nodes[kept] = entry.node
        score[kept] = entry.score
        topo[kept] = entry.topo
        topo_ab[kept] = entry.topo_ab
        kept += 1
    return LandmarkVectors(
        positions=positions[:kept], nodes=nodes[:kept], score=score[:kept],
        topo=topo[:kept], topo_ab=topo_ab[:kept],
        extras=tuple(extras), version=version)


class LandmarkVectorCache:
    """Bounded LRU of :class:`LandmarkVectors`, epoch- and version-keyed.

    Keys are ``(snapshot.epoch, landmark, topic)``: an epoch bump (the
    graph mutated and the serving layer re-pinned) changes every key,
    so stale vectors are never served and age out of the LRU. Within an
    epoch, a maintainer refreshing a list via
    :meth:`~repro.landmarks.index.LandmarkIndex.set_recommendations`
    bumps that list's version; the cached vectors carry the version
    they were built from and a mismatch is treated as a miss.

    Hit/miss traffic is exported as the ``approx.cache_hits_total`` and
    ``approx.cache_misses_total`` counters (see docs/OBSERVABILITY.md).
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._store: "OrderedDict[Tuple[int, int, str], LandmarkVectors]" = (
            OrderedDict())

    def __len__(self) -> int:
        return len(self._store)

    def get_or_build(
        self,
        epoch: int,
        landmark: int,
        topic: str,
        version: int,
        build: Callable[[], LandmarkVectors],
    ) -> LandmarkVectors:
        """Cached vectors for ``(epoch, landmark, topic)`` at *version*.

        A stored entry whose version differs from *version* (the list
        was replaced since it was vectorised) counts as a miss and is
        rebuilt in place.
        """
        key = (epoch, landmark, topic)
        cached = self._store.get(key)
        if cached is not None and cached.version == version:
            self._store.move_to_end(key)
            self.hits += 1
            _obs.count("approx.cache_hits_total")
            return cached
        self.misses += 1
        _obs.count("approx.cache_misses_total")
        vectors = build()
        self._store[key] = vectors
        self._store.move_to_end(key)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
        return vectors

    def clear(self) -> None:
        """Drop every cached vector (counters are kept)."""
        self._store.clear()


# ----------------------------------------------------------------------
# Stacked (whole-index) composition arrays
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StackedLandmarkLists:
    """Every landmark's per-topic list, concatenated once per topic.

    The per-query composition then touches numpy exactly once per
    array op instead of once per landmark: gather each hit landmark's
    ``σ(u,λ,t)`` / ``topo_{αβ}(u,λ)`` from the dense exploration,
    ``np.repeat`` them across the landmark's slice, and scatter-add the
    whole concatenation. Slices are stored in **ascending landmark
    order**, so the single ``np.add.at`` replays the reference path's
    per-landmark accumulation sequence bit for bit.

    Attributes:
        landmark_ids: Landmarks present in the snapshot, ascending.
        landmark_positions: Their dense snapshot positions, aligned.
        lindptr: CSR-style slice boundaries into the entry arrays
            (slice *i* holds ``landmark_ids[i]``'s stored list).
        counts: ``np.diff(lindptr)`` — per-slice entry counts,
            precomputed once.
        positions / nodes / score / topo: The concatenated entry
            arrays (see :class:`LandmarkVectors`; ``topo_ab`` of the
            stored entries is not needed by Proposition 4).
        extras: ``(slice_index, entries)`` for landmarks whose list
            mentions nodes absent from the snapshot (stale serving).
        epoch: Snapshot epoch the positions were resolved against.
        mutations: :attr:`LandmarkIndex.mutation_count` at build time —
            any later ``set_recommendations`` invalidates the stack.
    """

    landmark_ids: np.ndarray
    landmark_positions: np.ndarray
    lindptr: np.ndarray
    counts: np.ndarray
    positions: np.ndarray
    nodes: np.ndarray
    score: np.ndarray
    topo: np.ndarray
    extras: Tuple[Tuple[int, Tuple[LandmarkEntry, ...]], ...]
    epoch: int
    mutations: int


def stack_landmark_vectors(
    snapshot: GraphSnapshot,
    landmarks_sorted: Sequence[int],
    vectors_of: Callable[[int], LandmarkVectors],
    mutations: int,
) -> StackedLandmarkLists:
    """Concatenate per-landmark vectors into one composition stack.

    Args:
        snapshot: The pinned serving snapshot.
        landmarks_sorted: All landmark ids, **ascending** (the
            reference composition order).
        vectors_of: Per-landmark vector supplier — normally a
            :class:`LandmarkVectorCache` lookup, so cache hit/miss
            accounting and version invalidation stay in effect.
        mutations: The index's current mutation count, recorded for
            freshness checks.
    """
    position = snapshot.position
    ids: List[int] = []
    lm_positions: List[int] = []
    per: List[LandmarkVectors] = []
    for landmark in landmarks_sorted:
        pos = position.get(landmark)
        if pos is None:
            continue
        ids.append(landmark)
        lm_positions.append(pos)
        per.append(vectors_of(landmark))
    lindptr = np.zeros(len(per) + 1, dtype=np.int64)
    for i, vectors in enumerate(per):
        lindptr[i + 1] = lindptr[i] + vectors.nodes.size
    empty_i = np.zeros(0, dtype=np.int64)
    empty_f = np.zeros(0, dtype=np.float64)
    return StackedLandmarkLists(
        landmark_ids=np.asarray(ids, dtype=np.int64),
        landmark_positions=np.asarray(lm_positions, dtype=np.int64),
        lindptr=lindptr,
        counts=np.diff(lindptr),
        positions=(np.concatenate([v.positions for v in per])
                   if per else empty_i),
        nodes=np.concatenate([v.nodes for v in per]) if per else empty_i,
        score=np.concatenate([v.score for v in per]) if per else empty_f,
        topo=np.concatenate([v.topo for v in per]) if per else empty_f,
        extras=tuple((i, v.extras) for i, v in enumerate(per) if v.extras),
        epoch=snapshot.epoch,
        mutations=mutations,
    )


def compose_stacked(
    stacked: StackedLandmarkLists,
    dense_scores: np.ndarray,
    dense_topo_alphabeta: np.ndarray,
    user: int,
    skip_user_landmark: bool,
) -> Tuple[np.ndarray, Dict[int, float], List[int]]:
    """Proposition-4 composition over the stacked arrays.

    Bitwise-identical to the entry-by-entry dict compose loop (and to
    :func:`compose_landmark_contributions`): hit landmarks are the
    slices with ``topo_{αβ}(u,λ) > 0``, processed in ascending landmark
    order; the single ``np.add.at`` applies contributions in exactly
    the dict loop's per-landmark, per-entry sequence, and the user's
    own entries are masked to ``0.0`` (a bitwise no-op on these
    non-negative sums).

    Args:
        stacked: The cached composition stack for this topic.
        dense_scores: ``σ(u,·,t)`` per dense position (the exploration
            output); *copied*, never mutated.
        dense_topo_alphabeta: ``topo_{αβ}(u,·)`` per dense position.
        user: The query node.
        skip_user_landmark: ``True`` at exploration depth ≥ 1 — the
            user's own landmark list must not be composed (its mass was
            explored directly).

    Returns:
        ``(combined, extra_scores, encountered)``: the dense combined
        scores, the side-channel scores of off-snapshot nodes, and the
        hit landmark ids ascending.
    """
    lm_positions = stacked.landmark_positions
    topo_ab_lm = dense_topo_alphabeta[lm_positions]
    hit_mask = topo_ab_lm > 0.0
    if skip_user_landmark and stacked.landmark_ids.size:
        j = int(stacked.landmark_ids.searchsorted(user))
        if (j < stacked.landmark_ids.size
                and int(stacked.landmark_ids[j]) == user):
            hit_mask[j] = False

    combined = dense_scores.copy()
    extra_scores: Dict[int, float] = {}
    if not hit_mask.any():
        return combined, extra_scores, []

    sigma_lm = dense_scores[lm_positions]
    counts = stacked.counts
    if hit_mask.all():
        entry_positions = stacked.positions
        entry_nodes = stacked.nodes
        entry_score = stacked.score
        entry_topo = stacked.topo
        sigma_arr = sigma_lm.repeat(counts)
        topo_ab_arr = topo_ab_lm.repeat(counts)
    else:
        hit_idx = hit_mask.nonzero()[0]
        starts = stacked.lindptr[hit_idx]
        hit_counts = counts[hit_idx]
        total = int(hit_counts.sum())
        bases = np.empty_like(hit_counts)
        bases[0] = 0
        hit_counts[:-1].cumsum(out=bases[1:])
        select = (np.arange(total, dtype=np.int64)
                  + (starts - bases).repeat(hit_counts))
        entry_positions = stacked.positions[select]
        entry_nodes = stacked.nodes[select]
        entry_score = stacked.score[select]
        entry_topo = stacked.topo[select]
        sigma_arr = sigma_lm[hit_idx].repeat(hit_counts)
        topo_ab_arr = topo_ab_lm[hit_idx].repeat(hit_counts)

    if entry_nodes.size:
        contribution = sigma_arr * entry_topo + topo_ab_arr * entry_score
        contribution = np.where(entry_nodes == user, 0.0, contribution)
        np.add.at(combined, entry_positions, contribution)

    for slice_index, entries in stacked.extras:
        if not hit_mask[slice_index]:
            continue
        sigma = float(sigma_lm[slice_index])
        topo_ab = float(topo_ab_lm[slice_index])
        for entry in entries:
            if entry.node == user:
                continue
            extra = sigma * entry.topo + topo_ab * entry.score
            if extra:
                extra_scores[entry.node] = (
                    extra_scores.get(entry.node, 0.0) + extra)

    encountered = [int(x) for x in stacked.landmark_ids[hit_mask]]
    return combined, extra_scores, encountered


# ----------------------------------------------------------------------
# Vectorized Proposition-4 composition
# ----------------------------------------------------------------------

def compose_landmark_contributions(
    snapshot: GraphSnapshot,
    base: np.ndarray,
    hits: Sequence[Tuple[float, float, LandmarkVectors]],
    user: int,
) -> Dict[int, float]:
    """Proposition-4 composition as one concatenated scatter-add.

    Args:
        snapshot: The serving snapshot (supplies the dense index).
        base: The directly-explored scores ``σ(u,·,t)`` per dense
            position (the exploration output); copied, never mutated.
        hits: ``(σ(u,λ,t), topo_{αβ}(u,λ), vectors)`` per encountered
            landmark, **in ascending landmark order** — the reference
            path's accumulation order, which this function preserves:
            the chunks are concatenated in hit order and ``np.add.at``
            applies updates in index order, so every node receives its
            contributions in exactly the dict loop's sequence.
        user: The query node; its own stored entries contribute nothing
            (masked to ``0.0``, a bitwise no-op on these non-negative
            sums, where the dict path skips them).

    Returns:
        Node → combined score, positive entries only — the same mapping
        the dict compose loop builds.
    """
    dense = base.copy()
    position_chunks: List[np.ndarray] = []
    value_chunks: List[np.ndarray] = []
    extra_scores: Dict[int, float] = {}
    for sigma, topo_ab, vectors in hits:
        contribution = sigma * vectors.topo + topo_ab * vectors.score
        if vectors.nodes.size:
            contribution = np.where(vectors.nodes == user, 0.0, contribution)
            position_chunks.append(vectors.positions)
            value_chunks.append(contribution)
        for entry in vectors.extras:
            if entry.node == user:
                continue
            extra = sigma * entry.topo + topo_ab * entry.score
            if extra:
                extra_scores[entry.node] = (
                    extra_scores.get(entry.node, 0.0) + extra)
    if position_chunks:
        np.add.at(dense, np.concatenate(position_chunks),
                  np.concatenate(value_chunks))

    combined = dense_scores_to_dict(snapshot, dense)
    for node, value in extra_scores.items():
        combined[node] = value
    return combined


def dense_scores_to_dict(snapshot: GraphSnapshot,
                         dense: np.ndarray) -> Dict[int, float]:
    """Sparse node → score mapping of a dense per-position array."""
    node_ids = snapshot.node_ids
    return {node_ids[i]: float(dense[i])
            for i in np.nonzero(dense)[0].tolist()}


# ----------------------------------------------------------------------
# Batched depth-k exploration
# ----------------------------------------------------------------------


@dataclass
class MessageStats:
    """Network accounting of one partitioned exploration.

    Counted per superstep from the round's gathered ``(walker,
    neighbour)`` edge arrays (see :meth:`count_round`), so the numbers
    are exactly what a Pregel deployment of the same walk would send.

    Attributes:
        supersteps: Propagation rounds executed.
        local_transfers: Value transfers between co-located nodes.
        remote_messages: Combined messages that crossed partitions
            (one per (superstep, receiving node, sending partition) —
            the Pregel combiner model).
        remote_values: Raw values that crossed partitions before
            combining (what a combiner-less system would send).
        per_link: Combined messages per directed
            ``(sender partition, receiver partition)`` pair.
    """

    supersteps: int = 0
    local_transfers: int = 0
    remote_messages: int = 0
    remote_values: int = 0
    per_link: Dict[Tuple[int, int], int] = field(default_factory=dict)

    @property
    def remote_fraction(self) -> float:
        """Share of value transfers that crossed partitions."""
        total = self.local_transfers + self.remote_values
        if total == 0:
            return 0.0
        return self.remote_values / total

    def count_round(self, partition: np.ndarray, senders: np.ndarray,
                    receivers: np.ndarray) -> None:
        """Account one superstep.

        Args:
            partition: Partition id per dense position.
            senders: Dense position of the walker of every gathered
                edge.
            receivers: Dense position of the neighbour of every
                gathered edge, aligned with *senders*.
        """
        self.supersteps += 1
        sender_part = partition[senders]
        receiver_part = partition[receivers]
        remote = sender_part != receiver_part
        remote_values = int(np.count_nonzero(remote))
        self.local_transfers += int(senders.size) - remote_values
        self.remote_values += remote_values
        if not remote_values:
            return
        sender_part = sender_part[remote]
        receivers = receivers[remote]
        width = int(max(sender_part.max(), receiver_part[remote].max())) + 1
        # The combiner merges every value bound for one receiver from
        # one sending partition into a single message.
        combined = np.unique(receivers * width + sender_part)
        self.remote_messages += int(combined.size)
        links, counts = np.unique(
            (combined % width) * width + partition[combined // width],
            return_counts=True)
        per_link = self.per_link
        for link, count in zip(links.tolist(), counts.tolist()):
            key = (link // width, link % width)
            per_link[key] = per_link.get(key, 0) + count


@dataclass
class DenseExploration:
    """Dense-array twin of :class:`~repro.core.exact.ScoreState`.

    Arrays are indexed by dense snapshot position; values are
    bitwise-identical to the reference engine's dicts (missing dict
    entries ↔ zeros). ``messages`` carries the cross-partition traffic
    when the exploration ran with a partition (else ``None``).
    """

    source: int
    scores: np.ndarray
    topo_beta: np.ndarray
    topo_alphabeta: np.ndarray
    iterations: int
    converged: bool
    messages: Optional[MessageStats] = None

    def to_state(self, snapshot: GraphSnapshot, topic: str) -> ScoreState:
        """Convert to the dict-based :class:`ScoreState` API shape."""
        return ScoreState(
            source=self.source,
            scores={topic: dense_scores_to_dict(snapshot, self.scores)},
            topo_beta=dense_scores_to_dict(snapshot, self.topo_beta),
            topo_alphabeta=dense_scores_to_dict(snapshot,
                                                self.topo_alphabeta),
            iterations=self.iterations,
            converged=self.converged,
        )


class QueryEngine:
    """Batched query-side frontier expansion over one pinned snapshot.

    One instance per (snapshot, similarity, params) triple; per-topic
    label-similarity and authority arrays are built lazily on first use
    (or up front by :meth:`warm`) and shared across queries, mirroring
    how :class:`~repro.core.fast.SparseEngine` amortises its per-topic
    matrices. All reads go through the snapshot's shared CSR arrays —
    nothing is copied, and nothing is kept per query.
    """

    def __init__(
        self,
        snapshot: GraphSnapshot,
        similarity: SimilarityMatrix,
        params: ScoreParams,
        authority: Optional[AuthorityIndex] = None,
        sim_cache: Optional[_MaxSimCache] = None,
    ) -> None:
        self.snapshot = snapshot
        self.params = params
        #: Dense-position → node id, for array-side ranking.
        self.node_ids_array = np.asarray(snapshot.node_ids, dtype=np.int64)
        self._authority = (authority if authority is not None
                           else snapshot.authority())
        self._sim_cache = (sim_cache if sim_cache is not None
                           else _MaxSimCache(similarity))
        self._label_sims: Dict[str, np.ndarray] = {}
        self._auth: Dict[str, np.ndarray] = {}
        self._absorbing_masks: Dict[frozenset, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _label_similarities(self, topic: str) -> np.ndarray:
        """``maxsim(label, topic)`` per interned label id."""
        sims = self._label_sims.get(topic)
        if sims is None:
            cache = self._sim_cache
            sims = np.empty(len(self.snapshot.labels))
            for i, label in enumerate(self.snapshot.labels):
                sims[i] = cache.max_similarity(label, topic) if label else 0.0
            self._label_sims[topic] = sims
        return sims

    def _auth_values(self, topic: str) -> np.ndarray:
        """``auth(v, topic)`` per dense position."""
        auth = self._auth.get(topic)
        if auth is None:
            authority = self._authority
            auth = np.empty(len(self.snapshot))
            for i, node in enumerate(self.snapshot.node_ids):
                auth[i] = authority.auth(node, topic)
            self._auth[topic] = auth
        return auth

    def warm(self, topics: Sequence[str]) -> None:
        """Build the per-topic arrays of *topics* now, not on first use."""
        for topic in topics:
            self._label_similarities(topic)
            self._auth_values(topic)

    def absorbing_mask(self, nodes: frozenset) -> np.ndarray:
        """``True`` at the dense position of every node in *nodes*.

        Cached per node set; callers that extend it (a degraded
        request absorbing a down shard's range) must copy it first.
        Nodes absent from the snapshot are ignored.
        """
        mask = self._absorbing_masks.get(nodes)
        if mask is None:
            mask = np.zeros(len(self.snapshot), dtype=bool)
            position = self.snapshot.position
            for node in nodes:
                pos = position.get(node)
                if pos is not None:
                    mask[pos] = True
            self._absorbing_masks[nodes] = mask
        return mask

    # ------------------------------------------------------------------
    def explore(self, source: int, topic: str, depth: int,
                absorbing: Union[None, frozenset, np.ndarray] = None,
                partition: Optional[np.ndarray] = None,
                ) -> DenseExploration:
        """Depth-limited propagation from *source*, absorbed at landmarks.

        Replays :func:`~repro.core.exact.single_source_scores` (one
        topic, ``max_depth=depth``) with batched array rounds; see the
        module docstring for why the result is bitwise-identical.

        Args:
            source: Query node.
            topic: Query topic.
            depth: Round cap (``params.max_iter`` runs to convergence).
            absorbing: Nodes whose mass is not propagated further — a
                node-id set or a boolean mask over dense positions
                (``True`` = absorbing). The source always propagates.
            partition: Partition id per dense position; when given, the
                rounds' cross-partition traffic is counted into the
                result's ``messages``.
        """
        snapshot = self.snapshot
        n = len(snapshot)
        src = snapshot.index_of(source)
        params = self.params
        beta = params.beta
        alphabeta = params.edge_decay
        edge_factor = params.beta * params.alpha
        label_sims = self._label_similarities(topic)
        auth = self._auth_values(topic)
        if isinstance(absorbing, np.ndarray):
            keep: Optional[np.ndarray] = ~absorbing
        elif absorbing:
            keep = ~self.absorbing_mask(absorbing)
        else:
            keep = None
        messages = MessageStats() if partition is not None else None
        indptr = snapshot.out_indptr
        indices = snapshot.out_indices
        label_ids = snapshot.out_label_ids

        cum_r = np.zeros(n)
        cum_tb = np.zeros(n)
        cum_tab = np.zeros(n)
        cum_tb[src] = 1.0
        cum_tab[src] = 1.0
        front_r = np.zeros(n)
        front_tb = np.zeros(n)
        front_tab = np.zeros(n)
        front_tb[src] = 1.0
        front_tab[src] = 1.0

        iterations = 0
        converged = False
        for _ in range(depth):
            # The reference engine's `touched` set: frontier mass in
            # either the topo_beta or the recommendation channel
            # (topo_alphabeta keys are always a subset of topo_beta's).
            active = (front_tb != 0.0) | (front_r != 0.0)
            if keep is not None:
                source_active = bool(active[src])
                active &= keep
                active[src] = source_active
            walkers = active.nonzero()[0]
            if walkers.size == 0:
                converged = True
                break

            starts = indptr[walkers]
            counts = indptr[walkers + 1] - starts
            total = int(counts.sum())
            # Gathered edges are ordered (walker asc, neighbour asc) —
            # exactly the dict loop's `sorted(touched)` + CSR-row order,
            # which is what makes the scatter-adds below replay its
            # per-target accumulation sequence.
            bases = np.empty_like(counts)
            bases[0] = 0
            counts[:-1].cumsum(out=bases[1:])
            edge_index = (np.arange(total, dtype=np.int64)
                          + (starts - bases).repeat(counts))
            walker_per_edge = walkers.repeat(counts)
            neighbor = indices[edge_index]
            if messages is not None:
                messages.count_round(partition, walker_per_edge, neighbor)

            tb_edge = front_tb[walker_per_edge]
            tab_edge = front_tab[walker_per_edge]
            r_edge = front_r[walker_per_edge]

            next_tb = np.zeros(n)
            np.add.at(next_tb, neighbor, beta * tb_edge)
            next_tab = np.zeros(n)
            np.add.at(next_tab, neighbor, alphabeta * tab_edge)
            # Left-to-right association matches the reference
            # expression ((tab·edge_factor)·maxsim)·auth; maxsim and
            # auth stay separate factors, never pre-multiplied.
            semantic = (tab_edge * edge_factor
                        * label_sims[label_ids[edge_index]]
                        * auth[neighbor])
            increment = beta * r_edge + semantic
            next_r = np.zeros(n)
            np.add.at(next_r, neighbor, increment)

            iterations += 1
            new_mass = (math.fsum(next_r[next_r != 0.0])
                        + math.fsum(next_tb[next_tb != 0.0]))
            cum_tb += next_tb
            cum_tab += next_tab
            cum_r += next_r
            front_r, front_tb, front_tab = next_r, next_tb, next_tab
            if new_mass < params.tolerance:
                converged = True
                break

        return DenseExploration(
            source=source,
            scores=cum_r,
            topo_beta=cum_tb,
            topo_alphabeta=cum_tab,
            iterations=iterations,
            converged=converged,
            messages=messages,
        )
