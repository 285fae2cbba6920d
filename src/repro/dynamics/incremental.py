"""Dirty-frontier incremental landmark maintenance.

The rebuild-based policies of :mod:`repro.dynamics.maintenance` re-run
Algorithm 1 for every landmark whose *stored lists* an event touches —
a heuristic that both over-fires (a listed node far outside the
propagation cone) and under-fires (an unlisted node inside it). This
module replaces the earlier first-order delta approximation with an
**exact** incremental strategy built on
:mod:`repro.landmarks.frontier`:

1. every applied event contributes its frontier
   ``{source} ∪ Γ_now(target)`` to a pending dirty set;
2. at flush time, one backward BFS from the pending frontier (depth ≤
   ``precompute_depth``, along in-edges) finds exactly the landmarks
   whose propagation cone intersects the churn;
3. only those landmarks are re-propagated, with the *same* engine and
   depth cap as :meth:`LandmarkIndex.build` — so the refreshed index is
   bitwise-identical to a from-scratch rebuild, at a fraction of the
   propagation sources (the ``sources_propagated`` stat; the ≥5x
   acceptance gate of ``tests/dynamics/test_incremental.py``).

One global hazard: the authority normaliser ``log1p(max |Γv(t)|)`` is
graph-wide. If churn moves that maximum for a maintained topic, every
landmark's scores shift and the maintainer falls back to a full
refresh for that flush (checked against per-topic marks recorded at
the previous flush).

With the default ``flush_every=1`` the index is fresh after every
event — same observable freshness as :class:`EagerMaintainer`, far
fewer propagations. The ingest pipeline (:mod:`repro.ingest`) instead
constructs it with ``flush_every=0`` and calls :meth:`flush` once per
compaction, passing the compacted snapshot as the propagation view.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

from ..config import ScoreParams
from ..landmarks.frontier import dirty_landmarks
from ..landmarks.index import LandmarkIndex
from ..obs import runtime as _obs
from ..semantics.matrix import SimilarityMatrix
from .events import EdgeEvent
from .maintenance import _BaseMaintainer


class IncrementalMaintainer(_BaseMaintainer):
    """Re-propagate only landmarks whose cone intersects the churn.

    Args:
        graph: The post-event view events are applied to before this
            maintainer sees them (GraphStream's contract) — a live
            graph or a :class:`~repro.graph.overlay.DeltaSnapshot`.
        index: The landmark index to keep fresh.
        topics: Topics maintained (usually the index's vocabulary).
        similarity: Topic-similarity matrix.
        params: Decay parameters.
        flush_every: Auto-flush after this many applied events; ``0``
            disables auto-flush (callers drive :meth:`flush`, e.g. the
            ingest pipeline at compaction boundaries).
        engine: Refresh engine override; defaults to the engine that
            built the index, keeping refreshed lists bitwise-consistent
            with the unrefreshed ones.

    Attributes:
        full_refreshes: Flushes that fell back to refreshing every
            landmark because a per-topic follower maximum moved.
    """

    def __init__(self, graph, index: LandmarkIndex,
                 topics: Sequence[str], similarity: SimilarityMatrix,
                 params: Optional[ScoreParams] = None,
                 flush_every: int = 1,
                 engine: Optional[str] = None) -> None:
        super().__init__(graph, index, topics, similarity, params)
        self.flush_every = flush_every
        self.engine = engine
        self.full_refreshes = 0
        self._frontier: Set[int] = set()
        self._pending = 0
        self._max_marks: Dict[str, int] = {
            topic: graph.max_followers_on(topic) for topic in self.topics}

    # ------------------------------------------------------------------
    def rebind(self, graph) -> None:
        """Point the maintainer at a new post-event view.

        Used by the ingest pipeline after a compaction swaps the
        overlay for a fresh one over the compacted base. The per-topic
        maximum marks carry over — they describe the graph *content*,
        which the swap preserves.
        """
        self.graph = graph

    def on_event(self, event: EdgeEvent) -> None:  # noqa: D102
        self._events_seen += 1
        self._pending += 1
        self._frontier.add(event.source)
        self._frontier.update(self.graph.in_neighbors(event.target))
        if self.flush_every and self._pending >= self.flush_every:
            self.flush()

    @property
    def pending_events(self) -> int:
        """Applied events observed since the last flush."""
        return self._pending

    @property
    def frontier_size(self) -> int:
        """Distinct churn-touched nodes awaiting the next flush."""
        return len(self._frontier)

    def flush(self, view=None) -> int:
        """Refresh every landmark the pending churn can have affected.

        Args:
            view: Propagation view override — the ingest pipeline
                passes the freshly compacted
                :class:`~repro.graph.snapshot.GraphSnapshot` so the
                sparse engine binds to real CSR arrays; defaults to
                the maintainer's bound graph.

        Returns:
            The number of landmarks re-propagated.
        """
        graph = view if view is not None else self.graph
        if not self._pending:
            return 0
        landmarks = list(self.index.landmarks)
        horizon = self.index.landmark_params.precompute_depth
        if horizon is None:
            horizon = self.params.max_iter

        full = False
        for topic in self.topics:
            current = graph.max_followers_on(topic)
            if current != self._max_marks[topic]:
                self._max_marks[topic] = current
                full = True
        if full:
            dirty = landmarks
            self.full_refreshes += 1
        else:
            dirty = dirty_landmarks(graph, landmarks, self._frontier,
                                    horizon)

        with _obs.span("dynamics.incremental_flush") as _sp:
            if _sp:
                _sp.set(pending=self._pending, frontier=len(self._frontier),
                        dirty=len(dirty), total=len(landmarks), full=full)
            refreshed = self._refresh(graph, dirty)
        self._frontier.clear()
        self._pending = 0
        return refreshed
