"""Pluggable array storage for :class:`~repro.graph.snapshot.GraphSnapshot`.

A snapshot is, at bottom, a dozen parallel ``int64`` arrays (CSR out/in
adjacency with interned edge labels, node ids, publisher-profile and
per-topic follower-count CSRs) plus a small amount of header metadata
(epoch, topic vocabulary, label interning table, per-topic maxima).
This module owns that representation on disk and in memory:

- :class:`SnapshotHeader` — the versioned ``header.json`` metadata with
  per-array dtype/length/checksum records;
- :class:`SnapshotWriter` — chunked, resumable appends into the raw
  ``<name>.bin`` array files (the streaming generator writes through
  this without ever holding a full edge list);
- :class:`ArrayStore` and its two backends:
  :class:`RamArrayStore` (arrays loaded eagerly with ``np.fromfile``)
  and :class:`MmapArrayStore` (arrays opened lazily as read-only
  ``np.memmap`` views, so slicing pages in only what is touched);
- lazy read-side structures (:class:`ContiguousPositions`,
  :class:`CsrSetSequence`, :class:`CsrCountsSequence`) that decode the
  profile/follower CSRs on access instead of materialising per-node
  Python objects for the whole graph.

The on-disk layout is one directory::

    <dir>/header.json      # SnapshotHeader (written last, atomically)
    <dir>/<array>.bin      # raw little-endian int64, C order

Both backends expose bitwise-identical arrays, which is what keeps the
RAM-vs-mmap parity guarantees of the scorers trivially true: every
engine reads the same bytes either way.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (IO, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..errors import SnapshotFormatError

PathLike = Union[str, Path]

#: The on-disk format marker in ``header.json``.
SNAPSHOT_FORMAT = "repro-snapshot"
#: Current layout version; bump on any incompatible change.
SNAPSHOT_VERSION = 1

#: Every array a snapshot directory must contain, in canonical order.
ARRAY_NAMES: Tuple[str, ...] = (
    "node_ids",
    "out_indptr", "out_indices", "out_label_ids",
    "in_indptr", "in_indices", "in_label_ids",
    "prof_indptr", "prof_topic_ids",
    "fol_indptr", "fol_topic_ids", "fol_counts",
)

#: The single supported array dtype (explicit-endian so headers are
#: portable across machines).
ARRAY_DTYPE = "<i8"
_ITEMSIZE = np.dtype(ARRAY_DTYPE).itemsize

_HEADER_NAME = "header.json"
_VERIFY_CHUNK_BYTES = 1 << 22  # 4 MiB reads during full verification


def _array_path(directory: Path, name: str) -> Path:
    return directory / f"{name}.bin"


@dataclass(frozen=True)
class ArraySpec:
    """Header record for one persisted array."""

    dtype: str
    count: int
    crc32: int

    @property
    def nbytes(self) -> int:
        """Exact file size the array must occupy on disk."""
        return self.count * _ITEMSIZE


@dataclass(frozen=True)
class SnapshotHeader:
    """Validated metadata of one on-disk snapshot directory.

    ``labels`` is the interning table as topic-*id* lists (indexed by
    label id, ids into ``topics``), so the header stays compact even
    for graphs with millions of edges.
    """

    epoch: int
    num_nodes: int
    num_edges: int
    contiguous_ids: bool
    topics: Tuple[str, ...]
    labels: Tuple[Tuple[int, ...], ...]
    max_followers: Dict[str, int]
    arrays: Dict[str, ArraySpec] = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialise to the ``header.json`` document."""
        payload = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "epoch": self.epoch,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "contiguous_ids": self.contiguous_ids,
            "topics": list(self.topics),
            "labels": [list(ids) for ids in self.labels],
            "max_followers": {t: self.max_followers[t]
                              for t in sorted(self.max_followers)},
            "arrays": {
                name: {"dtype": spec.dtype, "count": spec.count,
                       "crc32": spec.crc32}
                for name, spec in sorted(self.arrays.items())
            },
        }
        return json.dumps(payload, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, path: object) -> "SnapshotHeader":
        """Parse and validate a ``header.json`` document.

        Raises:
            SnapshotFormatError: malformed JSON, wrong format marker or
                version, missing/extra arrays, or an unsupported dtype.
        """
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise SnapshotFormatError(path, f"unparsable header: {exc}")
        if not isinstance(payload, dict):
            raise SnapshotFormatError(path, "header is not a JSON object")
        if payload.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotFormatError(
                path, f"not a {SNAPSHOT_FORMAT} directory "
                      f"(format={payload.get('format')!r})")
        if payload.get("version") != SNAPSHOT_VERSION:
            raise SnapshotFormatError(
                path, f"unsupported snapshot version "
                      f"{payload.get('version')!r} "
                      f"(this build reads version {SNAPSHOT_VERSION})")
        try:
            raw_arrays = payload["arrays"]
            arrays = {
                name: ArraySpec(dtype=str(spec["dtype"]),
                                count=int(spec["count"]),
                                crc32=int(spec["crc32"]))
                for name, spec in raw_arrays.items()
            }
            header = cls(
                epoch=int(payload["epoch"]),
                num_nodes=int(payload["num_nodes"]),
                num_edges=int(payload["num_edges"]),
                contiguous_ids=bool(payload["contiguous_ids"]),
                topics=tuple(str(t) for t in payload["topics"]),
                labels=tuple(tuple(int(i) for i in ids)
                             for ids in payload["labels"]),
                max_followers={str(t): int(c) for t, c
                               in payload["max_followers"].items()},
                arrays=arrays,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotFormatError(path, f"incomplete header: {exc!r}")
        missing = sorted(set(ARRAY_NAMES) - set(arrays))
        if missing:
            raise SnapshotFormatError(
                path, f"header lists no spec for arrays {missing}")
        extra = sorted(set(arrays) - set(ARRAY_NAMES))
        if extra:
            raise SnapshotFormatError(
                path, f"header lists unknown arrays {extra}")
        for name, spec in arrays.items():
            if spec.dtype != ARRAY_DTYPE:
                raise SnapshotFormatError(
                    path, f"array {name!r} has unsupported dtype "
                          f"{spec.dtype!r} (expected {ARRAY_DTYPE!r})")
            if spec.count < 0:
                raise SnapshotFormatError(
                    path, f"array {name!r} has negative count {spec.count}")
        expected_counts = {
            "out_indptr": header.num_nodes + 1,
            "in_indptr": header.num_nodes + 1,
            "prof_indptr": header.num_nodes + 1,
            "fol_indptr": header.num_nodes + 1,
            "node_ids": header.num_nodes,
            "out_indices": header.num_edges,
            "out_label_ids": header.num_edges,
            "in_indices": header.num_edges,
            "in_label_ids": header.num_edges,
        }
        for name, count in expected_counts.items():
            if arrays[name].count != count:
                raise SnapshotFormatError(
                    path, f"array {name!r} has {arrays[name].count} "
                          f"entries, header geometry implies {count}")
        return header

    def total_bytes(self) -> int:
        """Sum of all array file sizes (the in-RAM equivalent floor)."""
        # Integer byte counts: order-independent, but keep the
        # iteration deterministic anyway.
        return sum(sorted(spec.nbytes for spec in self.arrays.values()))


def read_header(path: PathLike) -> SnapshotHeader:
    """Load and validate ``header.json`` of a snapshot directory.

    Raises:
        SnapshotFormatError: missing or invalid header.
    """
    directory = Path(path)
    header_path = directory / _HEADER_NAME
    try:
        text = header_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SnapshotFormatError(
            directory, f"missing or unreadable {_HEADER_NAME}: {exc}")
    return SnapshotHeader.from_json(text, directory)


def _check_file_sizes(directory: Path, header: SnapshotHeader) -> None:
    for name, spec in header.arrays.items():
        file_path = _array_path(directory, name)
        try:
            actual = file_path.stat().st_size
        except OSError as exc:
            raise SnapshotFormatError(
                directory, f"array file {name}.bin is unreadable: {exc}")
        if actual != spec.nbytes:
            raise SnapshotFormatError(
                directory,
                f"array file {name}.bin is {actual} bytes, header "
                f"declares {spec.count} x {spec.dtype} = {spec.nbytes}")


def verify_snapshot(path: PathLike) -> SnapshotHeader:
    """Fully verify a snapshot directory (sizes *and* checksums).

    Reads every array file in bounded chunks and compares its CRC-32
    against the header record; much slower than :func:`read_header` +
    size checks, so it is opt-in (``open_snapshot(..., verify=True)``).

    Raises:
        SnapshotFormatError: any structural or checksum mismatch.
    """
    directory = Path(path)
    header = read_header(directory)
    _check_file_sizes(directory, header)
    for name, spec in header.arrays.items():
        crc = 0
        with _array_path(directory, name).open("rb") as handle:
            for chunk in iter(lambda h=handle: h.read(_VERIFY_CHUNK_BYTES),
                              b""):
                crc = zlib.crc32(chunk, crc)
        if crc != spec.crc32:
            raise SnapshotFormatError(
                directory,
                f"array file {name}.bin failed checksum validation "
                f"(crc32 {crc} != header {spec.crc32})")
    return header


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
class _ArrayProgress:
    """Mutable append state of one array file."""

    __slots__ = ("handle", "count", "crc")

    def __init__(self, handle: IO[bytes], count: int, crc: int) -> None:
        self.handle = handle
        self.count = count
        self.crc = crc


class SnapshotWriter:
    """Chunked writer for the on-disk snapshot format.

    Arrays are appended chunk by chunk (any number of calls per array,
    in any interleaving), each chunk folded into a running CRC-32;
    :meth:`finalize` closes the files and writes ``header.json``
    atomically, which is what makes a directory a valid snapshot — a
    crash before finalize leaves no header and therefore no snapshot.

    The append state is checkpointable: :meth:`state` captures every
    array's (count, crc) pair as a JSON-safe dict and :meth:`restore`
    reopens the files truncated back to exactly that point, so the
    streaming generator can resume emission after an interruption
    without rewriting or re-checksumming earlier chunks.
    """

    def __init__(self, path: PathLike) -> None:
        self._directory = Path(path)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._arrays: Dict[str, _ArrayProgress] = {}
        self._finalized = False

    @property
    def directory(self) -> Path:
        """The snapshot directory being written."""
        return self._directory

    def append(self, name: str, values: np.ndarray) -> None:
        """Append *values* (coerced to little-endian int64) to *name*."""
        if name not in ARRAY_NAMES:
            raise SnapshotFormatError(
                self._directory, f"unknown snapshot array {name!r}")
        chunk = np.ascontiguousarray(values, dtype=ARRAY_DTYPE)
        progress = self._arrays.get(name)
        if progress is None:
            handle = _array_path(self._directory, name).open("wb")
            progress = _ArrayProgress(handle, 0, 0)
            self._arrays[name] = progress
        data = chunk.tobytes()
        progress.handle.write(data)
        progress.count += chunk.size
        progress.crc = zlib.crc32(data, progress.crc)

    def state(self) -> Dict[str, Dict[str, int]]:
        """JSON-safe checkpoint of the append progress.

        Pending buffered bytes are flushed first so the recorded counts
        are durable on disk.
        """
        for progress in self._arrays.values():
            progress.handle.flush()
            os.fsync(progress.handle.fileno())
        return {name: {"count": progress.count, "crc32": progress.crc}
                for name, progress in sorted(self._arrays.items())}

    def restore(self, state: Mapping[str, Mapping[str, int]]) -> None:
        """Resume appending from a :meth:`state` checkpoint.

        Every checkpointed file is truncated back to the recorded
        element count (dropping any partially-written tail) and the
        running CRC is restored, so subsequent appends continue as if
        the interruption never happened.
        """
        for name, spec in state.items():
            if name not in ARRAY_NAMES:
                raise SnapshotFormatError(
                    self._directory,
                    f"checkpoint names unknown array {name!r}")
            count = int(spec["count"])
            file_path = _array_path(self._directory, name)
            try:
                handle = file_path.open("r+b")
            except OSError as exc:
                raise SnapshotFormatError(
                    self._directory,
                    f"cannot resume array {name}.bin: {exc}")
            handle.truncate(count * _ITEMSIZE)
            handle.seek(count * _ITEMSIZE)
            self._arrays[name] = _ArrayProgress(
                handle, count, int(spec["crc32"]))

    def count(self, name: str) -> int:
        """Elements appended to *name* so far."""
        progress = self._arrays.get(name)
        return progress.count if progress is not None else 0

    def finalize(self, *, epoch: int, num_nodes: int, num_edges: int,
                 contiguous_ids: bool, topics: Sequence[str],
                 labels: Sequence[Sequence[int]],
                 max_followers: Mapping[str, int]) -> SnapshotHeader:
        """Close all array files and write the header atomically."""
        specs: Dict[str, ArraySpec] = {}
        for name in ARRAY_NAMES:
            progress = self._arrays.get(name)
            if progress is None:
                # An array with no appended chunk is legal (e.g. an
                # edgeless graph): materialise its empty file.
                self.append(name, np.empty(0, dtype=np.int64))
                progress = self._arrays[name]
            specs[name] = ArraySpec(dtype=ARRAY_DTYPE,
                                    count=progress.count,
                                    crc32=progress.crc)
        header = SnapshotHeader(
            epoch=epoch, num_nodes=num_nodes, num_edges=num_edges,
            contiguous_ids=contiguous_ids, topics=tuple(topics),
            labels=tuple(tuple(ids) for ids in labels),
            max_followers=dict(max_followers), arrays=specs)
        self.close()
        tmp_path = self._directory / (_HEADER_NAME + ".tmp")
        tmp_path.write_text(header.to_json() + "\n", encoding="utf-8")
        os.replace(tmp_path, self._directory / _HEADER_NAME)
        self._finalized = True
        # Fail fast if the writer produced a directory this same build
        # cannot read back (geometry bugs surface here, not at open).
        _check_file_sizes(self._directory, read_header(self._directory))
        return header

    def close(self) -> None:
        """Close every open array file (safe to call repeatedly)."""
        for progress in self._arrays.values():
            if not progress.handle.closed:
                progress.handle.flush()
                progress.handle.close()


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
class ArrayStore:
    """Read-side access to one snapshot directory's arrays.

    Subclasses fix the residency policy: :class:`RamArrayStore` loads
    eagerly into heap arrays, :class:`MmapArrayStore` maps lazily so
    the OS pages data in on first touch. Both return arrays with
    identical dtype, shape and bytes.
    """

    #: Backend tag ("ram" / "mmap") surfaced by the obs gauges.
    backend: str = "abstract"

    def __init__(self, path: PathLike, header: SnapshotHeader) -> None:
        self.path = Path(path)
        self.header = header

    def get(self, name: str) -> np.ndarray:
        """The named array (read-only semantics; never mutate)."""
        raise NotImplementedError

    def bytes_resident(self) -> int:
        """Array bytes guaranteed to occupy private process memory."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(path={str(self.path)!r}, "
                f"nodes={self.header.num_nodes}, "
                f"edges={self.header.num_edges})")


class RamArrayStore(ArrayStore):
    """Backend that loads every array eagerly into process memory."""

    backend = "ram"

    def __init__(self, path: PathLike, header: SnapshotHeader) -> None:
        super().__init__(path, header)
        self._arrays: Dict[str, np.ndarray] = {
            name: np.fromfile(_array_path(self.path, name),
                              dtype=ARRAY_DTYPE)
            for name in ARRAY_NAMES
        }

    def get(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def bytes_resident(self) -> int:
        return sum(sorted(array.nbytes for array in self._arrays.values()))


class MmapArrayStore(ArrayStore):
    """Backend that memory-maps arrays read-only on first access.

    Mapped pages live in the OS page cache and are reclaimable under
    pressure, so :meth:`bytes_resident` reports 0: nothing is pinned
    to the process heap. Pickling ships only the directory path — the
    receiving process re-opens (and re-validates) the same files,
    which is how shard workers cross process boundaries without
    copying a million-node snapshot through the pickle stream.
    """

    backend = "mmap"

    def __init__(self, path: PathLike, header: SnapshotHeader) -> None:
        super().__init__(path, header)
        self._mapped: Dict[str, np.ndarray] = {}

    def get(self, name: str) -> np.ndarray:
        array = self._mapped.get(name)
        if array is None:
            spec = self.header.arrays[name]
            if spec.count == 0:
                array = np.empty(0, dtype=ARRAY_DTYPE)
            else:
                array = np.memmap(_array_path(self.path, name),
                                  dtype=ARRAY_DTYPE, mode="r",
                                  shape=(spec.count,))
            self._mapped[name] = array
        return array

    def bytes_resident(self) -> int:
        return 0

    def __getstate__(self) -> Dict[str, str]:
        return {"path": str(self.path)}

    def __setstate__(self, state: Dict[str, str]) -> None:
        path = Path(state["path"])
        header = read_header(path)
        _check_file_sizes(path, header)
        MmapArrayStore.__init__(self, path, header)


def open_array_store(path: PathLike, backend: str = "mmap") -> ArrayStore:
    """Open a snapshot directory as a validated :class:`ArrayStore`.

    Args:
        path: Snapshot directory written by :class:`SnapshotWriter`.
        backend: ``"mmap"`` (lazy, page-cache resident — the default)
            or ``"ram"`` (eager heap arrays).

    Raises:
        SnapshotFormatError: invalid header, missing array file, or a
            file whose size disagrees with the header; also an unknown
            *backend* name.
    """
    directory = Path(path)
    header = read_header(directory)
    _check_file_sizes(directory, header)
    if backend == "mmap":
        return MmapArrayStore(directory, header)
    if backend == "ram":
        return RamArrayStore(directory, header)
    raise SnapshotFormatError(
        directory, f"unknown store backend {backend!r} "
                   f"(expected 'ram' or 'mmap')")


# ----------------------------------------------------------------------
# Lazy read-side structures
# ----------------------------------------------------------------------
class ContiguousPositions(Mapping):
    """Identity ``node id -> dense position`` map for ids ``0..n-1``.

    Store-backed snapshots of generated graphs have contiguous ids, so
    the position table every router and scorer consults collapses to a
    range check — no n-entry dict on the heap.
    """

    __slots__ = ("_n",)

    def __init__(self, n: int) -> None:
        self._n = n

    def __getitem__(self, node: int) -> int:
        if isinstance(node, (int, np.integer)) and 0 <= node < self._n:
            return int(node)
        raise KeyError(node)

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __contains__(self, node: object) -> bool:
        return isinstance(node, (int, np.integer)) and 0 <= node < self._n


class CsrSetSequence(Sequence):
    """Lazy ``Sequence[frozenset[str]]`` view over a topic-id CSR.

    Decodes one row per access instead of materialising a frozenset
    per node for the whole graph (the store-backed replacement for the
    eager ``profiles`` tuple).
    """

    __slots__ = ("_indptr", "_topic_ids", "_topics")

    def __init__(self, indptr: np.ndarray, topic_ids: np.ndarray,
                 topics: Tuple[str, ...]) -> None:
        self._indptr = indptr
        self._topic_ids = topic_ids
        self._topics = topics

    def __len__(self) -> int:
        return len(self._indptr) - 1

    def _row(self, index: int) -> Tuple[int, int]:
        n = len(self._indptr) - 1
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(index)
        return int(self._indptr[index]), int(self._indptr[index + 1])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i]
                         for i in range(*index.indices(len(self))))
        start, stop = self._row(index)
        topics = self._topics
        return frozenset(topics[t]
                         for t in self._topic_ids[start:stop].tolist())


class CsrCountsSequence(Sequence):
    """Lazy ``Sequence[Dict[str, int]]`` over a (topic, count) CSR.

    The store-backed replacement for the eager per-node follower-count
    dicts; each access decodes one node's counts (rows are sorted by
    topic id, so the decoded dicts are deterministic).
    """

    __slots__ = ("_indptr", "_topic_ids", "_counts", "_topics")

    def __init__(self, indptr: np.ndarray, topic_ids: np.ndarray,
                 counts: np.ndarray, topics: Tuple[str, ...]) -> None:
        self._indptr = indptr
        self._topic_ids = topic_ids
        self._counts = counts
        self._topics = topics

    def __len__(self) -> int:
        return len(self._indptr) - 1

    def _row(self, index: int) -> Tuple[int, int]:
        n = len(self._indptr) - 1
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(index)
        return int(self._indptr[index]), int(self._indptr[index + 1])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i]
                         for i in range(*index.indices(len(self))))
        start, stop = self._row(index)
        topics = self._topics
        return {
            topics[t]: int(c)
            for t, c in zip(self._topic_ids[start:stop].tolist(),
                            self._counts[start:stop].tolist())
        }

    def column(self, topic_id: int) -> np.ndarray:
        """Every node's count on one topic id, as an int64 array.

        One scatter over the CSR instead of a dict decode per row: a
        topic occurs at most once per row, so each matching entry
        lands on its own node.
        """
        n = len(self._indptr) - 1
        column = np.zeros(n, dtype=np.int64)
        hits = np.flatnonzero(np.asarray(self._topic_ids) == topic_id)
        if hits.size:
            rows = np.searchsorted(self._indptr, hits, side="right") - 1
            column[rows] = self._counts[hits]
        return column


def encode_topic_csr(rows: Sequence, topic_ids: Mapping[str, int],
                     counts: bool = False
                     ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Encode per-node topic sets (or count dicts) as a sorted CSR.

    Args:
        rows: Per-node iterables of topics, or — with ``counts=True`` —
            per-node ``{topic: count}`` mappings.
        topic_ids: Topic → interned id.
        counts: Whether *rows* carries counts.

    Returns:
        ``(indptr, topic_id_data, count_data)`` with rows sorted by
        topic id; ``count_data`` is ``None`` unless ``counts`` is set.
    """
    indptr: List[int] = [0]
    data: List[int] = []
    values: List[int] = []
    for row in rows:
        if counts:
            items = sorted((topic_ids[topic], int(count))
                           for topic, count in row.items())
            data.extend(tid for tid, _ in items)
            values.extend(count for _, count in items)
        else:
            data.extend(sorted(topic_ids[topic] for topic in row))
        indptr.append(len(data))
    indptr_arr = np.asarray(indptr, dtype=np.int64)
    data_arr = np.asarray(data, dtype=np.int64)
    if counts:
        return indptr_arr, data_arr, np.asarray(values, dtype=np.int64)
    return indptr_arr, data_arr, None
