"""Landmark-index maintenance under graph churn.

Every maintainer satisfies the runtime-checkable
:class:`repro.api.Maintainer` protocol — subscribe ``on_event`` to a
:class:`~repro.dynamics.stream.GraphStream`, read the frozen
:class:`repro.api.MaintenanceStats` snapshot from ``stats`` — so a
serving tier can swap policies without rewiring.

The policies trade freshness against rebuild cost, the dimension the
paper's future-work section opens:

- :class:`EagerMaintainer` — rebuild a landmark the moment an event
  touches its stored neighbourhood (an endpoint appears in its lists,
  or is the landmark itself);
- :class:`BatchMaintainer` — mark such landmarks dirty, rebuild them
  together once the dirty fraction crosses a threshold (amortises the
  Algorithm-1 runs);
- :class:`TTLMaintainer` — ignore event contents entirely, refresh each
  landmark once per fixed event window, spreading the rebuilds
  round-robin across the window instead of bursting them all at once;
- :class:`NoOpMaintainer` — the do-nothing baseline, quantifying how
  stale an unmaintained index becomes.

:func:`measure_staleness` probes an index against fresh Algorithm-1
runs and reports the mean Kendall tau drift — the quantity that decides
whether a policy is good enough.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ..api import MaintenanceStats
from ..config import ScoreParams
from ..errors import ConfigurationError
from ..eval.metrics import kendall_tau_distance
from ..graph.labeled_graph import LabeledSocialGraph
from ..landmarks.frontier import landmark_entries, refresh_landmarks
from ..landmarks.index import LandmarkIndex
from .events import EdgeEvent

__all__ = [
    "MaintenanceStats",
    "NoOpMaintainer",
    "EagerMaintainer",
    "BatchMaintainer",
    "TTLMaintainer",
    "measure_staleness",
]


class _BaseMaintainer:
    """Shared rebuild machinery; subclasses decide *when* to rebuild."""

    #: Refresh engine override; ``None`` rebuilds with the engine that
    #: built the index.
    engine: Optional[str] = None

    def __init__(self, graph: LabeledSocialGraph, index: LandmarkIndex,
                 topics: Sequence[str], similarity,
                 params: Optional[ScoreParams] = None) -> None:
        self.graph = graph
        self.index = index
        self.topics = list(topics)
        self.similarity = similarity
        self.params = params if params is not None else index.params
        self._events_seen = 0
        self._landmarks_rebuilt = 0
        self._rebuild_rounds = 0
        self._sources_propagated = 0
        #: Landmarks rebuilt at least once over this maintainer's life.
        self.rebuilt_ever: Set[int] = set()
        self._watched: Dict[int, Set[int]] = {}
        self._rebuild_watch_index()

    @property
    def stats(self) -> MaintenanceStats:
        """Frozen snapshot of the maintenance counters."""
        return MaintenanceStats(
            events_seen=self._events_seen,
            landmarks_rebuilt=self._landmarks_rebuilt,
            rebuild_rounds=self._rebuild_rounds,
            sources_propagated=self._sources_propagated,
        )

    def _rebuild_watch_index(self) -> None:
        """node → landmarks whose stored lists mention it."""
        watched: Dict[int, Set[int]] = {}
        for landmark in self.index.landmarks:
            watched.setdefault(landmark, set()).add(landmark)
            for topic in self.index.topics_of(landmark):
                for entry in self.index.recommendations(landmark, topic):
                    watched.setdefault(entry.node, set()).add(landmark)
        self._watched = watched

    def _touched_landmarks(self, event: EdgeEvent) -> Set[int]:
        touched: Set[int] = set()
        touched |= self._watched.get(event.source, set())
        touched |= self._watched.get(event.target, set())
        return touched

    def rebuild(self, landmarks: Sequence[int]) -> None:
        """Re-run Algorithm 1 for *landmarks* and refresh the lists,
        bitwise as a fresh :meth:`LandmarkIndex.build` would store them
        (:func:`~repro.landmarks.frontier.refresh_landmarks`)."""
        if self._refresh(self.graph, landmarks):
            self._rebuild_watch_index()

    def _refresh(self, graph, landmarks: Sequence[int]) -> int:
        """Re-propagate *landmarks* over *graph*; count the work."""
        refreshed = refresh_landmarks(self.index, graph, landmarks,
                                      self.topics, self.similarity,
                                      engine=self.engine)
        if refreshed:
            self._landmarks_rebuilt += refreshed
            self._sources_propagated += refreshed
            self._rebuild_rounds += 1
            self.rebuilt_ever.update(landmarks)
        return refreshed

    def on_event(self, event: EdgeEvent) -> None:
        raise NotImplementedError


class NoOpMaintainer(_BaseMaintainer):
    """Never rebuilds — the staleness baseline."""

    def on_event(self, event: EdgeEvent) -> None:  # noqa: D102
        self._events_seen += 1


class EagerMaintainer(_BaseMaintainer):
    """Rebuild immediately whenever an event touches a stored list."""

    def on_event(self, event: EdgeEvent) -> None:  # noqa: D102
        self._events_seen += 1
        touched = self._touched_landmarks(event)
        if touched:
            self.rebuild(sorted(touched))


class BatchMaintainer(_BaseMaintainer):
    """Accumulate dirty landmarks; rebuild when enough have piled up.

    Args:
        dirty_threshold: Rebuild once this fraction of the landmark set
            is dirty.
        max_pending_events: Hard cap — rebuild after this many events
            even if the dirty fraction stays low.
    """

    def __init__(self, graph, index, topics, similarity,
                 params: Optional[ScoreParams] = None,
                 dirty_threshold: float = 0.25,
                 max_pending_events: int = 500) -> None:
        if not 0.0 < dirty_threshold <= 1.0:
            raise ConfigurationError(
                f"dirty_threshold must be in (0, 1], got {dirty_threshold}")
        super().__init__(graph, index, topics, similarity, params)
        self.dirty_threshold = dirty_threshold
        self.max_pending_events = max_pending_events
        self._dirty: Set[int] = set()
        self._pending = 0

    def on_event(self, event: EdgeEvent) -> None:  # noqa: D102
        self._events_seen += 1
        self._pending += 1
        self._dirty |= self._touched_landmarks(event)
        landmark_count = max(1, len(self.index))
        if (len(self._dirty) / landmark_count >= self.dirty_threshold
                or self._pending >= self.max_pending_events):
            self.flush()

    def flush(self) -> None:
        """Rebuild everything currently dirty."""
        if self._dirty:
            self.rebuild(sorted(self._dirty))
            self._dirty.clear()
        self._pending = 0

    @property
    def dirty_count(self) -> int:
        """Landmarks currently awaiting a rebuild."""
        return len(self._dirty)


class TTLMaintainer(_BaseMaintainer):
    """Rebuild every landmark each *ttl_events* events, round-robin.

    Each landmark is refreshed once per *ttl_events*-event window, but
    the work is spread evenly across the window instead of rebuilding
    the whole set in one burst: after ``e`` events exactly
    ``⌊|Λ|·e / ttl_events⌋`` rebuilds have run, taken from a rotating
    cursor over the sorted landmark list.  Amortised cost is therefore
    ``|Λ| / ttl_events`` rebuilds per event with per-tick batches of at
    most ``⌈|Λ| / ttl_events⌉`` — no latency spike every *ttl_events*
    events, same freshness guarantee.
    """

    def __init__(self, graph, index, topics, similarity,
                 params: Optional[ScoreParams] = None,
                 ttl_events: int = 200) -> None:
        if ttl_events < 1:
            raise ConfigurationError(
                f"ttl_events must be >= 1, got {ttl_events}")
        super().__init__(graph, index, topics, similarity, params)
        self.ttl_events = ttl_events
        # Deterministic rotation order; the cursor wraps so every
        # landmark is hit exactly once per ttl window.
        self._order: List[int] = sorted(self.index.landmarks)
        self._cursor = 0
        self._scheduled_done = 0

    def on_event(self, event: EdgeEvent) -> None:  # noqa: D102
        self._events_seen += 1
        if not self._order:
            return
        due = (len(self._order) * self._events_seen) // self.ttl_events
        todo = due - self._scheduled_done
        if todo <= 0:
            return
        batch: List[int] = []
        for _ in range(todo):
            batch.append(self._order[self._cursor])
            self._cursor = (self._cursor + 1) % len(self._order)
        self._scheduled_done += todo
        self.rebuild(batch)


def measure_staleness(
    graph: LabeledSocialGraph,
    index: LandmarkIndex,
    topic: str,
    similarity,
    params: Optional[ScoreParams] = None,
    sample: Optional[Sequence[int]] = None,
    top_k: int = 50,
) -> float:
    """Mean Kendall tau between stored and freshly recomputed lists.

    The fresh lists come from the build's own propagation
    (:func:`~repro.landmarks.frontier.landmark_entries`), so 0 means
    the index still matches the current graph exactly; values grow as
    churn invalidates the precomputation.
    """
    landmarks = list(sample) if sample is not None else list(index.landmarks)
    distances: List[float] = []
    for landmark, per_topic in landmark_entries(
            index, graph, landmarks, [topic], similarity, params=params):
        stored = [entry.node
                  for entry in index.recommendations(landmark, topic)][:top_k]
        fresh = [entry.node for entry in per_topic[topic]][:top_k]
        distances.append(kendall_tau_distance(stored, fresh))
    if not distances:
        return 0.0
    return sum(distances) / len(distances)
