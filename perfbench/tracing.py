"""Per-layer tracing from outside the program.

The tracer wraps public entry points of each layer (module functions,
methods, classmethods) while it is active and records one span per
call: name, start, end, parent span and the id of the benchmark
operation that caused it. Spans stay in memory and are written out as
JSON lines when the run ends. Self time is a span's duration minus the
durations of its direct children; for ``distributed.sharded.serve`` and
``ingest.pipeline.compact`` that remainder is reported as the explicit
"unattributed" time of the layer.

Nothing in the program changes: a function that another module imported
by name is patched in *that* module's namespace (for example
``repro.distributed.sharded.distributed_single_source_scores``), which
is the reference the serving path actually calls.
"""

from __future__ import annotations

import functools
import json
import math
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from measure import clock, median

# Span record layout: [name, start, end, parent, request_id, info].
NAME, START, END, PARENT, RID, INFO = range(6)


def _targets() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, info hook) for every traced call."""
    from repro.core.fast import SparseEngine
    from repro.distributed import sharded
    from repro.distributed.sharded import (EpochRollover, ShardChannel,
                                           ShardedPlatform, ShardWorker)
    from repro.dynamics.incremental import IncrementalMaintainer
    from repro.graph import io
    from repro.graph.overlay import DeltaSnapshot
    from repro.ingest.pipeline import IngestPipeline
    from repro.landmarks import selection
    from repro.landmarks.index import LandmarkIndex

    def explore_info(args, kwargs, result):
        stats = result[1]
        return {"supersteps": stats.supersteps,
                "remote_messages": stats.remote_messages}

    def sources_info(args, kwargs, result):
        sources = args[1] if len(args) > 1 else kwargs["sources"]
        return {"sources": len(sources)}

    def flush_info(args, kwargs, result):
        maintainer = args[0]
        return {"refreshed": result,
                "landmarks": len(maintainer.index.landmarks)}

    return [
        (sharded, "distributed_single_source_scores",
         "distributed.cluster.explore", explore_info),
        (ShardedPlatform, "serve", "distributed.sharded.serve", None),
        (ShardChannel, "hedged_fetch", "distributed.sharded.fetch", None),
        (ShardWorker, "landmark_vectors",
         "distributed.sharded.landmark_vectors", None),
        (sharded, "vectors_from_entries",
         "landmarks.query_engine.vector_build", None),
        (sharded, "compose_landmark_contributions",
         "landmarks.query_engine.compose", None),
        (SparseEngine, "multi_source", "core.fast.multi_source",
         sources_info),
        (LandmarkIndex, "build", "landmarks.index.build", None),
        (selection, "select_landmarks", "landmarks.selection.select", None),
        (io, "open_snapshot", "graph.storage.open", None),
        (ShardedPlatform, "build", "distributed.sharded.platform_build",
         None),
        (IncrementalMaintainer, "flush", "dynamics.incremental.flush",
         flush_info),
        (DeltaSnapshot, "apply", "graph.overlay.apply", None),
        (DeltaSnapshot, "compact", "graph.overlay.compact", None),
        (ShardedPlatform, "begin_rollover",
         "distributed.sharded.rollover_prepare", None),
        (EpochRollover, "warm", "distributed.sharded.rollover_warm", None),
        (EpochRollover, "flip", "distributed.sharded.flip", None),
        (IngestPipeline, "submit", "ingest.pipeline.submit", None),
        (IngestPipeline, "compact", "ingest.pipeline.compact", None),
    ]


class Tracer:
    """Records spans around the layer calls listed in :func:`_targets`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.request_id = -1
        self._stack: List[int] = []
        self._originals: List[Tuple[Any, str, Any]] = []
        self._targets = _targets()

    # -- patching ------------------------------------------------------
    def _wrap(self, fn: Callable, name: str,
              info: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.request_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return traced

    def activate(self, on: bool, request_id: int = -1) -> None:
        """Install (``on``) or remove the wrappers; tag later spans."""
        self.request_id = request_id
        if on and not self._originals:
            for owner, attribute, name, info in self._targets:
                original = owner.__dict__[attribute]
                if isinstance(original, classmethod):
                    wrapped: Any = classmethod(
                        self._wrap(original.__func__, name, info))
                else:
                    wrapped = self._wrap(original, name, info)
                self._originals.append((owner, attribute, original))
                setattr(owner, attribute, wrapped)
        elif not on and self._originals:
            for owner, attribute, original in reversed(self._originals):
                setattr(owner, attribute, original)
            self._originals.clear()

    # -- analysis ------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            parent = span[PARENT]
            if parent >= 0:
                own[parent] -= span[END] - span[START]
        return own

    def by_name(self, name: str, pinned: Optional[int] = None) -> List[int]:
        """Indices of spans called *name* (within the pinned prefix)."""
        return [i for i, span in enumerate(self.spans)
                if span[NAME] == name
                and (pinned is None or 0 <= span[RID] < pinned)]

    def attribution(self, root: str) -> List[Tuple[str, int, float]]:
        """Direct children of every *root* span, aggregated by name.

        Returns ``(name, calls, total seconds)`` rows, the root's own
        unattributed remainder last as ``<root>.unattributed``.
        """
        roots = self.by_name(root)
        parents = set(roots)
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            if span[PARENT] in parents:
                row = totals[span[NAME]]
                row[0] += 1
                row[1] += span[END] - span[START]
        own = self.self_times()
        rows = [(name, int(calls), total)
                for name, (calls, total) in sorted(totals.items())]
        rows.append((f"{root}.unattributed", len(roots),
                     math.fsum(own[i] for i in roots)))
        return rows

    def median_ms(self, name: str) -> float:
        return median([(self.spans[i][END] - self.spans[i][START]) * 1e3
                       for i in self.by_name(name)])

    def median_self_ms(self, name: str) -> float:
        own = self.self_times()
        return median([own[i] * 1e3 for i in self.by_name(name)])

    def info_sum(self, name: str, key: str, pinned: int) -> int:
        return sum(self.spans[i][INFO][key]
                   for i in self.by_name(name, pinned))

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT],
                    "request": span[RID], "self": own[i],
                    "info": span[INFO]}) + "\n")
