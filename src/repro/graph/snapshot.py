"""Frozen, epoch-versioned array view of the labeled graph.

Every scorer in the repo — the exact engine, the CSR engine, the
baselines, landmark preprocessing and queries — is read-only over the
follow graph, yet each used to re-derive its own view of the mutable
:class:`~repro.graph.labeled_graph.LabeledSocialGraph` dicts.
:class:`GraphSnapshot` is the one compact read representation they now
share:

- a dense node index (sorted node ids ↔ positions ``0..n-1``);
- CSR out- and in-adjacency (``*_indptr`` / ``*_indices``), each row
  sorted by neighbour id, with a parallel interned label id per edge;
- interned topic ids and distinct edge-label sets (the labeling
  pipeline produces far fewer distinct label sets than edges);
- per-node per-topic follower counts and the global
  ``max_v |Γv(t)|`` normaliser — everything the authority score reads.

A snapshot is built once via :meth:`LabeledSocialGraph.snapshot` and
stamped with the graph's **epoch** (a monotonic mutation counter), so
consumers can cheaply detect staleness instead of silently serving
pre-mutation scores: :meth:`ensure_fresh` raises
:class:`~repro.errors.StaleSnapshotError` unless the caller opts in
with ``allow_stale=True`` (eval replays, deliberately lagged serving).

The in-adjacency CSR *is* the paper's matrix ``A`` (``A[v, u] = 1``
iff u follows v): ``csr_matrix((ones, in_indices, in_indptr))`` shares
these arrays with no Python-level edge loop.
"""

from __future__ import annotations

import weakref
from typing import (Dict, FrozenSet, Iterator, List, Mapping, Optional,
                    Tuple, Union)

import numpy as np

from ..errors import EdgeNotFoundError, NodeNotFoundError, StaleSnapshotError
from ..obs import runtime as _obs
from .labeled_graph import LabeledSocialGraph, TopicSet
from .storage import (ArrayStore, ContiguousPositions, CsrCountsSequence,
                      CsrSetSequence)

GraphLike = Union[LabeledSocialGraph, "GraphSnapshot"]


class GraphSnapshot:
    """Immutable array-backed view of one graph epoch.

    Mirrors the read API of :class:`LabeledSocialGraph` (``nodes``,
    ``out_neighbors``, ``follower_count_on``, ...) so traversals and
    scorers accept either interchangeably, and additionally exposes the
    dense index and CSR arrays for vectorised consumers.

    Build via :meth:`LabeledSocialGraph.snapshot` (cached per epoch) or
    :meth:`from_graph`; never mutate the arrays.
    """

    def __init__(self, graph: LabeledSocialGraph) -> None:
        # Direct access to the graph's internals is the point of this
        # module: the snapshot is the sanctioned boundary (rule R8
        # keeps everything outside graph/ on this side of it).
        node_topics = graph._node_topics
        node_list = sorted(node_topics)
        position = {node: i for i, node in enumerate(node_list)}

        label_ids: Dict[TopicSet, int] = {}
        labels: List[TopicSet] = []

        def intern(label: TopicSet) -> int:
            lid = label_ids.get(label)
            if lid is None:
                lid = len(labels)
                label_ids[label] = lid
                labels.append(label)
            return lid

        out_indptr = [0]
        out_indices: List[int] = []
        out_labels: List[int] = []
        for node in node_list:
            row = graph._out[node]
            for neighbor in sorted(row):
                out_indices.append(position[neighbor])
                out_labels.append(intern(row[neighbor]))
            out_indptr.append(len(out_indices))

        in_indptr = [0]
        in_indices: List[int] = []
        in_labels: List[int] = []
        for node in node_list:
            row = graph._in[node]
            for follower in sorted(row):
                in_indices.append(position[follower])
                in_labels.append(intern(row[follower]))
            in_indptr.append(len(in_indices))

        vocabulary = set()
        for profile in node_topics.values():
            vocabulary |= profile
        for label in labels:
            vocabulary |= label

        max_followers: Dict[str, int] = {}
        for node in node_list:
            for topic, count in graph._followers_on[node].items():
                if count > max_followers.get(topic, 0):
                    max_followers[topic] = count

        #: Node ids in dense-index order (position ``i`` ↔ ``node_ids[i]``).
        self.node_ids: Tuple[int, ...] = tuple(node_list)
        #: Node id → dense position. Treat as read-only.
        self.position: Dict[int, int] = position
        self.out_indptr = np.asarray(out_indptr, dtype=np.int64)
        self.out_indices = np.asarray(out_indices, dtype=np.int64)
        self.out_label_ids = np.asarray(out_labels, dtype=np.int64)
        self.in_indptr = np.asarray(in_indptr, dtype=np.int64)
        self.in_indices = np.asarray(in_indices, dtype=np.int64)
        self.in_label_ids = np.asarray(in_labels, dtype=np.int64)
        #: Distinct edge-label sets; ``labels[label_id]`` is the frozenset.
        self.labels: Tuple[TopicSet, ...] = tuple(labels)
        #: Sorted topic vocabulary (union of node profiles and edge labels).
        self.topic_list: Tuple[str, ...] = tuple(sorted(vocabulary))
        #: Topic → interned topic id.
        self.topic_ids: Dict[str, int] = {
            topic: i for i, topic in enumerate(self.topic_list)}
        #: Publisher profiles by dense position.
        self.profiles: Tuple[TopicSet, ...] = tuple(
            node_topics[node] for node in node_list)
        self._follower_counts: Tuple[Dict[str, int], ...] = tuple(
            dict(graph._followers_on[node]) for node in node_list)
        self._max_followers = max_followers
        #: The graph epoch this snapshot captured.
        self.epoch: int = graph._epoch

        self._graph_ref: Optional["weakref.ref[LabeledSocialGraph]"] = (
            weakref.ref(graph))
        #: Backing :class:`~repro.graph.storage.ArrayStore` for
        #: store-loaded snapshots; ``None`` when built from a live graph.
        self._store: Optional[ArrayStore] = None
        n = len(node_list)
        self._out_items_cache: List[Optional[list]] = [None] * n
        self._out_map_cache: List[Optional[Dict[int, TopicSet]]] = [None] * n
        self._in_map_cache: List[Optional[Dict[int, TopicSet]]] = [None] * n
        self._in_rows: Optional[np.ndarray] = None
        self._authority = None

    # ------------------------------------------------------------------
    # Construction & freshness
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: LabeledSocialGraph) -> "GraphSnapshot":
        """Build a snapshot of *graph* at its current epoch."""
        with _obs.span("graph.snapshot_build") as _sp:
            snapshot = cls(graph)
            if _sp:
                _sp.set(nodes=snapshot.num_nodes, edges=snapshot.num_edges,
                        epoch=snapshot.epoch,
                        distinct_labels=len(snapshot.labels))
        _obs.count("graph.snapshot_rebuilds_total")
        _obs.gauge("graph.snapshot_epoch", float(snapshot.epoch))
        return snapshot

    @classmethod
    def from_store(cls, store: ArrayStore) -> "GraphSnapshot":
        """Materialise a snapshot over an opened :class:`ArrayStore`.

        Adjacency arrays are exactly the store's arrays (heap-resident
        for the RAM backend, lazily-paged ``np.memmap`` views for the
        mmap backend); the per-node Python-side structures — position
        table, publisher profiles, follower counts — are lazy views
        that decode rows on access, so residency stays bounded by what
        the scorers actually touch. The store's header supplies the
        epoch, so the epoch-keyed caches downstream (landmark vectors,
        shard generations) key store-loaded snapshots exactly like the
        originals they were saved from.

        Store-loaded snapshots have no source graph and are therefore
        never stale. Most callers want
        :func:`repro.graph.io.open_snapshot`, which opens, validates
        and instruments in one step.
        """
        header = store.header
        self = cls.__new__(cls)
        n = header.num_nodes
        self.out_indptr = store.get("out_indptr")
        self.out_indices = store.get("out_indices")
        self.out_label_ids = store.get("out_label_ids")
        self.in_indptr = store.get("in_indptr")
        self.in_indices = store.get("in_indices")
        self.in_label_ids = store.get("in_label_ids")
        topics = tuple(header.topics)
        self.topic_list = topics
        self.topic_ids = {topic: i for i, topic in enumerate(topics)}
        self.labels = tuple(
            frozenset(topics[t] for t in ids) for ids in header.labels)
        if header.contiguous_ids:
            # Generated graphs have ids 0..n-1: the id↔position maps
            # collapse to identity views with no per-node heap cost.
            self.node_ids = range(n)
            self.position = ContiguousPositions(n)
        else:
            ids = [int(i) for i in store.get("node_ids").tolist()]
            self.node_ids = tuple(ids)
            self.position = {node: i for i, node in enumerate(ids)}
        self.profiles = CsrSetSequence(
            store.get("prof_indptr"), store.get("prof_topic_ids"), topics)
        self._follower_counts = CsrCountsSequence(
            store.get("fol_indptr"), store.get("fol_topic_ids"),
            store.get("fol_counts"), topics)
        self._max_followers = dict(header.max_followers)
        self.epoch = header.epoch
        self._graph_ref = None
        self._store = store
        self._out_items_cache = [None] * n
        self._out_map_cache = [None] * n
        self._in_map_cache = [None] * n
        self._in_rows = None
        self._authority = None
        return self

    @property
    def store_backend(self) -> str:
        """Which :class:`ArrayStore` backend holds the arrays.

        ``"ram"`` for graph-built and RAM-store snapshots, ``"mmap"``
        for memory-mapped ones.
        """
        return self._store.backend if self._store is not None else "ram"

    @property
    def bytes_resident(self) -> int:
        """Array bytes pinned to process memory by this snapshot.

        Graph-built snapshots own their CSR arrays on the heap; a
        store-backed snapshot delegates to the store (0 for mmap —
        mapped pages live in the reclaimable OS page cache).
        """
        if self._store is not None:
            return self._store.bytes_resident()
        return int(sum(a.nbytes for a in (
            self.out_indptr, self.out_indices, self.out_label_ids,
            self.in_indptr, self.in_indices, self.in_label_ids)))

    def out_slice(self, lo: int, hi: int):
        """Rebased out-CSR of dense positions ``[lo, hi)``.

        Returns ``(indptr, indices, label_ids)`` where ``indptr`` is
        rebased to start at 0 (a small per-shard copy) while
        ``indices`` / ``label_ids`` are *views* of the snapshot's
        arrays — for an mmap-backed snapshot they stay file-backed, so
        a shard worker pages in only the rows it actually reads
        instead of deep-copying its slice.
        """
        edge_lo = int(self.out_indptr[lo])
        edge_hi = int(self.out_indptr[hi])
        indptr = self.out_indptr[lo:hi + 1] - edge_lo
        return (indptr, self.out_indices[edge_lo:edge_hi],
                self.out_label_ids[edge_lo:edge_hi])

    @property
    def is_stale(self) -> bool:
        """Whether the source graph has mutated since this was built.

        A snapshot whose graph was garbage-collected (or that crossed a
        process boundary via pickle) has no graph to lag behind and is
        never stale.
        """
        graph = self._graph_ref() if self._graph_ref is not None else None
        return graph is not None and graph.epoch != self.epoch

    def ensure_fresh(self, allow_stale: bool = False) -> "GraphSnapshot":
        """Assert this snapshot still matches its graph's epoch.

        Args:
            allow_stale: Read anyway when the graph has moved on; the
                stale read is counted in ``graph.stale_reads_total``.

        Raises:
            StaleSnapshotError: stale and ``allow_stale`` is false.
        """
        graph = self._graph_ref() if self._graph_ref is not None else None
        if graph is not None and graph.epoch != self.epoch:
            if not allow_stale:
                raise StaleSnapshotError(self.epoch, graph.epoch)
            _obs.count("graph.stale_reads_total")
        return self

    # ------------------------------------------------------------------
    # Dense index
    # ------------------------------------------------------------------
    def index_of(self, node: int) -> int:
        """Dense position of *node* (raises on unknown ids)."""
        index = self.position.get(node)
        if index is None:
            raise NodeNotFoundError(node)
        return index

    def node_at(self, index: int) -> int:
        """Node id at dense position *index*."""
        return self.node_ids[index]

    def in_edge_rows(self) -> np.ndarray:
        """Row (target position) of every in-CSR edge, lazily cached.

        Aligned with ``in_indices`` / ``in_label_ids``: entry ``k`` is
        the dense position of the node edge ``k`` points *into*.
        """
        rows = self._in_rows
        if rows is None:
            rows = np.repeat(np.arange(len(self.node_ids), dtype=np.int64),
                             np.diff(self.in_indptr))
            self._in_rows = rows
        return rows

    def out_items(self, node: int) -> list:
        """``(neighbor_id, label)`` pairs of *node*, ascending by id.

        The per-node list is materialised once and cached — the hot
        read of the exact engine's frontier loop (which previously
        re-sorted a dict view on every visit).
        """
        index = self.index_of(node)
        cached = self._out_items_cache[index]
        if cached is None:
            start = int(self.out_indptr[index])
            stop = int(self.out_indptr[index + 1])
            node_ids = self.node_ids
            labels = self.labels
            cached = [
                (node_ids[j], labels[l])
                for j, l in zip(self.out_indices[start:stop].tolist(),
                                self.out_label_ids[start:stop].tolist())
            ]
            self._out_items_cache[index] = cached
        return cached

    def authority(self):
        """The shared :class:`~repro.core.scores.AuthorityIndex`.

        One cached instance per snapshot, so every scorer built from
        the same snapshot reuses one set of per-topic authority columns
        instead of each computing its own.
        """
        authority = self._authority
        if authority is None:
            from ..core.scores import AuthorityIndex
            authority = AuthorityIndex(self)
            self._authority = authority
        return authority

    # ------------------------------------------------------------------
    # Graph-mirroring read API
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of accounts in the snapshot."""
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        """Number of follow edges."""
        return len(self.out_indices)

    def __len__(self) -> int:
        return len(self.node_ids)

    def __contains__(self, node: int) -> bool:
        return node in self.position

    def nodes(self) -> Iterator[int]:
        """Iterate over every account id (ascending)."""
        return iter(self.node_ids)

    def edges(self) -> Iterator[Tuple[int, int, TopicSet]]:
        """Yield every edge as ``(source, target, topics)``."""
        for source in self.node_ids:
            for target, label in self.out_items(source):
                yield source, target, label

    def has_edge(self, source: int, target: int) -> bool:
        """Whether *source* follows *target*."""
        source_index = self.position.get(source)
        if source_index is None:
            return False
        return target in self._out_map(source_index)

    def node_topics(self, node: int) -> TopicSet:
        """Publisher profile of *node*."""
        return self.profiles[self.index_of(node)]

    def edge_topics(self, source: int, target: int) -> TopicSet:
        """Topic labels of the edge *source* → *target*."""
        source_index = self.position.get(source)
        if source_index is not None:
            label = self._out_map(source_index).get(target)
            if label is not None:
                return label
        raise EdgeNotFoundError(source, target)

    def _out_map(self, index: int) -> Dict[int, TopicSet]:
        cached = self._out_map_cache[index]
        if cached is None:
            cached = dict(self.out_items(self.node_ids[index]))
            self._out_map_cache[index] = cached
        return cached

    def _in_map(self, index: int) -> Dict[int, TopicSet]:
        cached = self._in_map_cache[index]
        if cached is None:
            start = int(self.in_indptr[index])
            stop = int(self.in_indptr[index + 1])
            node_ids = self.node_ids
            labels = self.labels
            cached = {
                node_ids[j]: labels[l]
                for j, l in zip(self.in_indices[start:stop].tolist(),
                                self.in_label_ids[start:stop].tolist())
            }
            self._in_map_cache[index] = cached
        return cached

    def out_neighbors(self, node: int) -> Mapping[int, TopicSet]:
        """Accounts *node* follows, mapped to the edge labels."""
        return self._out_map(self.index_of(node))

    def in_neighbors(self, node: int) -> Mapping[int, TopicSet]:
        """Followers of *node* (Γ_node), mapped to the edge labels."""
        return self._in_map(self.index_of(node))

    def followers(self, node: int) -> Mapping[int, TopicSet]:
        """Alias for :meth:`in_neighbors` matching the paper's Γu."""
        return self.in_neighbors(node)

    def out_degree(self, node: int) -> int:
        """Number of accounts *node* follows."""
        index = self.index_of(node)
        return int(self.out_indptr[index + 1] - self.out_indptr[index])

    def in_degree(self, node: int) -> int:
        """Number of followers of *node*."""
        index = self.index_of(node)
        return int(self.in_indptr[index + 1] - self.in_indptr[index])

    def follower_count(self, node: int) -> int:
        """``|Γu|`` — total number of followers of *node*."""
        return self.in_degree(node)

    def follower_count_on(self, node: int, topic: str) -> int:
        """``|Γu(t)|`` — followers of *node* whose edge carries *topic*."""
        return self._follower_counts[self.index_of(node)].get(topic, 0)

    def follower_topic_counts(self, node: int) -> Mapping[str, int]:
        """All per-topic follower counts of *node* (zero counts omitted)."""
        return self._follower_counts[self.index_of(node)]

    def follower_counts_column(self, topic: str) -> np.ndarray:
        """``|Γv(t)|`` of every node, as an int64 array by dense position.

        Store-backed snapshots scatter it from the follower-count CSR;
        graph-built and compacted ones read one dict entry per node.
        """
        counts = self._follower_counts
        if isinstance(counts, CsrCountsSequence):
            topic_id = self.topic_ids.get(topic)
            if topic_id is None:
                return np.zeros(len(self.node_ids), dtype=np.int64)
            return counts.column(topic_id)
        return np.fromiter((row.get(topic, 0) for row in counts),
                           dtype=np.int64, count=len(counts))

    def max_followers_on(self, topic: str) -> int:
        """``max_v |Γv(t)|`` — global popularity normaliser (Section 3.2)."""
        return self._max_followers.get(topic, 0)

    def topics(self) -> FrozenSet[str]:
        """The set of topics appearing on any node or edge."""
        return frozenset(self.topic_list)

    # ------------------------------------------------------------------
    # Pickling (the distributed layer ships snapshots across workers)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        store = getattr(self, "_store", None)
        if store is not None and store.backend == "mmap":
            # Ship only the (tiny) store descriptor: the receiving
            # process re-opens and re-maps the same snapshot directory
            # instead of funnelling every array through the pickle
            # stream — this is what keeps cross-process shard workers
            # cheap for mmap-backed snapshots.
            return {"_mmap_store": store}
        state = dict(self.__dict__)
        state["_graph_ref"] = None
        state["_authority"] = None
        state["_out_items_cache"] = None
        state["_out_map_cache"] = None
        state["_in_map_cache"] = None
        state["_in_rows"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        mmap_store = state.pop("_mmap_store", None)
        if mmap_store is not None:
            restored = GraphSnapshot.from_store(mmap_store)
            self.__dict__.update(restored.__dict__)
            return
        self.__dict__.update(state)
        self.__dict__.setdefault("_store", None)
        n = len(self.node_ids)
        self._out_items_cache = [None] * n
        self._out_map_cache = [None] * n
        self._in_map_cache = [None] * n

    def __repr__(self) -> str:
        return (f"GraphSnapshot(nodes={self.num_nodes}, "
                f"edges={self.num_edges}, epoch={self.epoch})")


def as_snapshot(source: GraphLike, allow_stale: bool = False) -> GraphSnapshot:
    """Resolve a graph-or-snapshot argument to a usable snapshot.

    A live graph yields its (cached, always-fresh) current snapshot; a
    snapshot is returned as-is after an epoch check — stale snapshots
    raise :class:`~repro.errors.StaleSnapshotError` unless
    ``allow_stale`` is set.
    """
    if isinstance(source, LabeledSocialGraph):
        return source.snapshot()
    return source.ensure_fresh(allow_stale)
