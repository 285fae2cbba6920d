"""The three benchmark workloads.

Each workload builds its inputs from the seed (a streamed on-disk
snapshot, a request stream, a churn stream), sets the serving tier up
several times (the median is ``setup_s``), measures a closed loop
with one client for the requested number of seconds, and then checks
the program's answers outside the timed window.

- ``read-zipf``: who-to-follow reads through ``ShardedPlatform.serve``
  with Zipf-skewed user popularity. The steady-state serving path:
  depth-k explore, remote fetch, compose and merge over warm caches.
- ``ingest-mixed``: churn events through ``IngestPipeline.submit`` with
  uniform reads after each event. Writes beside reads: compaction
  (overlay compact, incremental flush, rollover warm and flip) and
  reads against the cold cache of every fresh epoch.
- ``boot-mmap``: repeated cold starts from a larger on-disk snapshot:
  open (mmap, verified), landmark selection, index build, platform
  build, first answer, then a uniform read phase. The restart path,
  dominated by the bulk kernel and the storage layer.
"""

from __future__ import annotations

import gc
import itertools
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from measure import (ClosedLoop, Phase, Timing, clock, median, peak_rss_mib,
                     peak_rss_reset)

from repro.api import IngestEvent, RecommendationRequest
from repro.config import LandmarkParams
from repro.datasets.streaming import generate_twitter_snapshot_stream
from repro.datasets.twitter import TOPIC_POPULARITY_ORDER
from repro.distributed.sharded import ShardChannel, ShardedPlatform
from repro.dynamics import simulate_churn
from repro.graph import io
from repro.ingest import CompactionPolicy, IngestPipeline
from repro.landmarks import selection
from repro.landmarks.approximate import ApproximateRecommender
from repro.landmarks.index import LandmarkIndex
from repro.semantics import SimilarityMatrix, web_taxonomy

TOP_N = 10
#: Virtual (simulated-network) deadline per request. Generous, so that
#: the jittered channel never degrades an answer: a degraded answer
#: would count as a failed operation.
DEADLINE_MS = 10_000.0
#: Answers compared against the reference recommender after each run.
PARITY_SAMPLE = 40

#: Size knobs per workload (also summarised in BENCHMARK.json).
#:
#: Traffic-mix knobs and their basis:
#:
#: - ``zipf_skew`` 0.8: an assumption. No measurement of who-to-follow
#:   request popularity is at hand; 0.8 lies in the 0.64-0.83 range
#:   Breslau et al. (INFOCOM 1999) fitted to web proxy request traces.
#: - ``unfollow`` 0.5: ``simulate_churn``'s default.
#: - ``retopic`` 0.1: an assumption; the default 0.0 would leave the
#:   relabel path unexercised.
#: - ``reads_per_event`` 4: an assumption, not a measured read/write
#:   ratio. It puts enough reads after each flip to see the cold cache
#:   while ~1000 events still fit in one run.
#: - ``compact_every`` 64: one compaction per 64 applied events, so
#:   more than 1% of submits compact.
#:
#: The ``ingest-mixed`` loop alternates traced and untraced blocks of
#: whole compaction cycles (a block ends at a compacting submit).
KNOBS: Dict[str, Dict[str, float]] = {
    "read-zipf": dict(nodes=20_000, landmarks=32, topics=3, shards=4,
                      replicas=2, zipf_skew=0.8, setups=3, warmup=300,
                      pinned=400, block=50),
    "ingest-mixed": dict(nodes=5_000, landmarks=16, topics=2, shards=4,
                         replicas=2, compact_every=64, reads_per_event=4,
                         unfollow=0.5, retopic=0.1, events=8_000,
                         setups=25, pinned=256),
    "boot-mmap": dict(nodes=24_000, landmarks=16, topics=2, shards=4,
                      replicas=2, reads_per_boot=512, setups=3, pinned=1,
                      block=1),
}


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    e2e: Dict[str, float]
    layer: Dict[str, float]
    work: Dict[str, int]
    phases: List[Phase]
    checks: List[Tuple[str, Optional[str]]]
    report: List[str] = field(default_factory=list)


@dataclass
class Tier:
    """A booted serving tier."""

    snapshot: object
    index: LandmarkIndex
    platform: ShardedPlatform
    topics: List[str]


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------

def similarity() -> SimilarityMatrix:
    return SimilarityMatrix.from_taxonomy(web_taxonomy())


def pick_topics(snapshot, count: int) -> List[str]:
    """The *count* most popular generator topics present in the graph."""
    present = snapshot.topics()
    return [topic for topic in TOPIC_POPULARITY_ORDER if topic in present][
        :int(count)]


def generate(directory: Path, nodes: int, seed: int) -> float:
    """Stream-generate the seeded input snapshot; returns seconds."""
    shutil.rmtree(directory, ignore_errors=True)
    start = clock()
    generate_twitter_snapshot_stream(directory, int(nodes), seed=seed)
    return clock() - start


def boot(directory: Path, knobs, seed: int, sim: SimilarityMatrix, *,
         store: str, verify: bool, first_user: int) -> Tuple[Tier, float]:
    """Open → select → index build → platform build → first answer.

    Returns the tier and the seconds until the first servable answer.
    The layer calls go through their modules' attributes so that the
    tracer's wrappers see them.
    """
    start = clock()
    snapshot = io.open_snapshot(directory, store=store, verify=verify)
    topics = pick_topics(snapshot, knobs["topics"])
    landmarks = selection.select_landmarks(
        snapshot, "In-Deg", int(knobs["landmarks"]), rng=seed)
    index = LandmarkIndex.build(
        snapshot, landmarks, topics, sim,
        landmark_params=LandmarkParams(num_landmarks=int(knobs["landmarks"])))
    platform = ShardedPlatform.build(
        snapshot, sim, index, int(knobs["shards"]),
        replicas=int(knobs["replicas"]),
        channel=ShardChannel(latency_ms=1.0, jitter_ms=1.0, seed=seed),
        deadline_ms=DEADLINE_MS)
    first = platform.recommend(first_user, topics[0], TOP_N)
    elapsed = clock() - start
    if first.degraded:
        raise RuntimeError("first answer after boot was degraded")
    return Tier(snapshot, index, platform, topics), elapsed


class Requests:
    """A seeded request stream held as arrays.

    Requests materialise one at a time, so the stream adds no objects
    for the garbage collector to walk while the program is measured.
    """

    def __init__(self, users: List[int], topic_ids: List[int],
                 topics: List[str]) -> None:
        self.users = np.asarray(users, dtype=np.int64)
        self.topic_ids = np.asarray(topic_ids, dtype=np.int64)
        self.topics = list(topics)

    def __len__(self) -> int:
        return len(self.users)

    def __getitem__(self, i: int) -> RecommendationRequest:
        return RecommendationRequest(
            user=int(self.users[i]),
            topic=self.topics[int(self.topic_ids[i])], top_n=TOP_N)

    def head(self, count: int) -> List[RecommendationRequest]:
        return [self[i] for i in range(min(count, len(self)))]


def uniform_requests(users: List[int], topics: List[str], count: int,
                     rng: random.Random) -> Requests:
    return Requests([rng.choice(users) for _ in range(count)],
                    [rng.randrange(len(topics)) for _ in range(count)],
                    topics)


def zipf_requests(users: List[int], topics: List[str], count: int,
                  skew: float, rng: random.Random) -> Requests:
    """Zipf(*skew*) user popularity over a shuffled user order."""
    weights = list(itertools.accumulate(
        1.0 / (rank ** skew) for rank in range(1, len(users) + 1)))
    order = list(users)
    rng.shuffle(order)
    return Requests(rng.choices(order, cum_weights=weights, k=count),
                    [rng.randrange(len(topics)) for _ in range(count)],
                    topics)


class ReadWork:
    """Exact work counts of a sequence of reads (from response costs and
    the channel's hedge counters). Vector builds are counted from the
    traced ``vectors_from_entries`` calls, in traced runs only."""

    KEYS = ("reads", "supersteps", "remote_messages", "remote_fetches",
            "local_landmarks", "entries_shipped", "hedges_sent",
            "hedges_won")

    def __init__(self) -> None:
        self.counts = dict.fromkeys(self.KEYS, 0)

    def add(self, response) -> None:
        cost = response.cost
        self.counts["reads"] += 1
        self.counts["supersteps"] += cost.propagation.supersteps
        self.counts["remote_messages"] += cost.propagation.remote_messages
        self.counts["remote_fetches"] += cost.remote_landmarks
        self.counts["local_landmarks"] += cost.local_landmarks
        self.counts["entries_shipped"] += cost.entries_transferred


class Reads:
    """Serves requests, timing each and accounting failures."""

    def __init__(self, phase: Phase) -> None:
        self.phase = phase
        self.untraced = Timing()
        #: Samples after the pinned prefix, where traced and untraced
        #: blocks alternate: the pair that prices the tracing overhead.
        self.untraced_after = Timing()
        self.traced_after = Timing()

    def serve(self, platform: ShardedPlatform,
              request: RecommendationRequest, traced: bool,
              pinned: bool, work: Optional[ReadWork]) -> None:
        start = clock()
        try:
            response = platform.serve(request)
        except Exception as exc:  # counted, the loop keeps serving
            self.phase.fail(type(exc).__name__)
            return
        elapsed = clock() - start
        if response.degraded:
            self.phase.fail("degraded")
            return
        self.phase.ok()
        if traced:
            if not pinned:
                self.traced_after.add(elapsed)
        else:
            self.untraced.add(elapsed)
            if not pinned:
                self.untraced_after.add(elapsed)
        if pinned and work is not None:
            work.add(response)


def differing_answer(platform: ShardedPlatform, reference,
                     requests: List[RecommendationRequest]) -> Optional[str]:
    """The first request *platform* and *reference* answer differently.

    Rankings and scores must match bitwise; ``None`` when all agree.
    """
    for request in requests:
        got = platform.serve(request)
        want = reference.recommend(request.user, request.topic,
                                   request.top_n)
        if got.degraded or want.degraded or got.pairs() != want.pairs():
            return (f"user {request.user} topic {request.topic}: "
                    f"{got.pairs()[:3]}... != {want.pairs()[:3]}...")
    return None


def median_setups(count: int,
                  run_once: Callable[[], Tuple[object, float, float]]
                  ) -> Tuple[object, List[float], List[float]]:
    """Run the set-up *count* times; keep the last result.

    ``setup_s`` (and ``boot_s``, where the set-up is a boot) is the
    median over the repetitions.

    *run_once* returns ``(state, setup seconds, boot seconds)``.
    """
    state = None
    setups: List[float] = []
    boots: List[float] = []
    for _ in range(count):
        state = None
        gc.collect()
        state, setup_s, boot_s = run_once()
        setups.append(setup_s)
        boots.append(boot_s)
    return state, setups, boots


def serve_metrics(reads: Reads) -> Dict[str, float]:
    return {"serve_p50_ms": reads.untraced.p50_ms(),
            "serve_p99_ms": reads.untraced.p99_ms(),
            "serve_qps": reads.untraced.per_second()}


def overhead_pct(reads: Reads) -> float:
    """Traced vs untraced serve p50 over the alternating blocks."""
    plain = reads.untraced_after.p50_ms()
    traced = reads.traced_after.p50_ms()
    return (traced - plain) / plain * 100.0 if plain > 0.0 else 0.0


# ----------------------------------------------------------------------
# read-zipf
# ----------------------------------------------------------------------

def read_zipf(work_dir: Path, seed: int, seconds: float,
              tracer) -> Outcome:
    knobs = KNOBS["read-zipf"]
    sim = similarity()
    snapshot_dir = work_dir / "snapshot"
    generate(snapshot_dir, knobs["nodes"], seed)
    probe = io.open_snapshot(snapshot_dir, store="ram")
    users = list(probe.node_ids)
    topics = pick_topics(probe, knobs["topics"])
    del probe
    rng = random.Random(seed)
    stream = zipf_requests(users, topics, 200_000, knobs["zipf_skew"], rng)
    warmup = int(knobs["warmup"])
    check_sample = uniform_requests(users, topics, PARITY_SAMPLE,
                                    random.Random(seed + 1)).head(
                                        PARITY_SAMPLE)
    setup_phase = Phase("setup")

    def set_up():
        start = clock()
        tier, boot_s = boot(snapshot_dir, knobs, seed, sim, store="ram",
                            verify=False, first_user=stream[0].user)
        for i in range(warmup):
            tier.platform.serve(stream[i])
        setup_phase.ok()
        return tier, clock() - start, boot_s

    tier, setups, boots = median_setups(int(knobs["setups"]), set_up)
    platform = tier.platform
    gc.collect()
    peak_rss_reset()

    phase = Phase("serve")
    reads = Reads(phase)
    work = ReadWork()
    pinned = int(knobs["pinned"])
    hedges_before = (platform.channel.hedges_sent,
                     platform.channel.hedges_won)
    loop = ClosedLoop(seconds, pinned, tracer, int(knobs["block"]),
                      limit=len(stream) - warmup)

    def op(i: int, traced: bool) -> None:
        reads.serve(platform, stream[warmup + i], traced, i < pinned, work)
        if i == pinned - 1:
            work.counts["hedges_sent"] = (platform.channel.hedges_sent
                                          - hedges_before[0])
            work.counts["hedges_won"] = (platform.channel.hedges_won
                                         - hedges_before[1])

    loop.run(op)
    rss = peak_rss_mib()

    checks = [("sharded == ApproximateRecommender", differing_answer(
        platform, ApproximateRecommender(tier.snapshot, sim, tier.index),
        check_sample))]
    e2e = {"setup_s": median(setups), "boot_s": median(boots),
           **serve_metrics(reads), "peak_rss_mib": rss}
    report = [f"setups: {[round(s, 4) for s in setups]} "
              f"boots: {[round(s, 4) for s in boots]}",
              f"serve: {reads.untraced.describe()} window={loop.elapsed:.3f}s "
              f"ops={loop.operations}"]
    layer = {}
    if tracer is not None:
        layer = layer_metrics(tracer, work.counts, pinned, reads,
                              phase)
    return Outcome(e2e, layer, dict(work.counts), [setup_phase, phase],
                   checks, report)


# ----------------------------------------------------------------------
# ingest-mixed
# ----------------------------------------------------------------------

def to_ingest(event: tuple) -> IngestEvent:
    kind, source, target, topics, time = event
    return IngestEvent(kind=kind, source=source, target=target,
                       topics=topics, time=time)


def ingest_mixed(work_dir: Path, seed: int, seconds: float,
                 tracer) -> Outcome:
    knobs = KNOBS["ingest-mixed"]
    sim = similarity()
    snapshot_dir = work_dir / "snapshot"
    generate(snapshot_dir, knobs["nodes"], seed)
    probe = io.open_snapshot(snapshot_dir, store="ram")
    users = list(probe.node_ids)
    topics = pick_topics(probe, knobs["topics"])
    # Plain tuples: no objects for the collector to walk while measured.
    events = [(event.kind.value, event.source, event.target,
               tuple(event.topics), event.time) for event in simulate_churn(
        probe, int(knobs["events"]), unfollow_fraction=knobs["unfollow"],
        retopic_fraction=knobs["retopic"], seed=seed)]
    del probe
    per_event = int(knobs["reads_per_event"])
    requests = uniform_requests(users, topics, len(events) * per_event,
                                random.Random(seed + 1))
    check_sample = uniform_requests(users, topics, PARITY_SAMPLE,
                                    random.Random(seed + 2)).head(
                                        PARITY_SAMPLE)
    setup_phase = Phase("setup")

    def set_up():
        start = clock()
        tier, boot_s = boot(snapshot_dir, knobs, seed, sim, store="ram",
                            verify=False, first_user=requests[0].user)
        pipeline = IngestPipeline(
            tier.platform, sim, tier.topics,
            policy=CompactionPolicy(max_events=int(knobs["compact_every"])))
        setup_phase.ok()
        return (tier, pipeline), clock() - start, boot_s

    (tier, pipeline), setups, boots = median_setups(
        int(knobs["setups"]), set_up)
    platform = tier.platform
    maintainer = pipeline.maintainer
    gc.collect()
    peak_rss_reset()

    submits = Phase("ingest")
    read_phase = Phase("serve")
    reads = Reads(read_phase)
    work = ReadWork()
    ingest = Timing()
    visible = Timing()
    pinned = int(knobs["pinned"])
    counters = {"events_applied": 0, "events_skipped": 0,
                "compactions": 0, "full_refreshes": 0,
                "sources_propagated": 0}
    hedges_before = (platform.channel.hedges_sent,
                     platform.channel.hedges_won)
    # The open compaction cycle: submit starts of the applied events it
    # will make servable, its first submit start, its event count and
    # whether any of its operations ran traced. Only untraced cycles
    # feed write_visible_* and ingest_events_per_s.
    cycle = {"waiting": [], "start": None, "events": 0, "traced": False}
    clean = {"events": 0, "seconds": 0.0}

    def close_cycle(done: float) -> None:
        if not cycle["traced"]:
            for submitted in cycle["waiting"]:
                visible.add(done - submitted)
            clean["events"] += cycle["events"]
            clean["seconds"] += done - cycle["start"]
        cycle.update(waiting=[], start=None, events=0, traced=False)

    def snapshot_counters() -> Dict[str, int]:
        return {"events_applied": pipeline.events_total,
                "events_skipped": pipeline.events_skipped,
                "compactions": pipeline.compactions_total,
                "full_refreshes": maintainer.full_refreshes,
                "sources_propagated": maintainer.stats.sources_propagated}

    base_counters = snapshot_counters()

    def op(i: int, traced: bool) -> None:
        start = clock()
        if cycle["start"] is None:
            cycle["start"] = start
        cycle["events"] += 1
        cycle["traced"] = cycle["traced"] or traced
        try:
            response = pipeline.submit(to_ingest(events[i]))
        except Exception as exc:  # counted, the stream continues
            submits.fail(type(exc).__name__)
        else:
            done = clock()
            submits.ok()
            if not traced:
                ingest.add(done - start)
            if response.applied:
                cycle["waiting"].append(start)
            else:
                submits.skipped += 1
            if response.compacted:
                close_cycle(done)
                loop.end_block()
        for r in range(per_event):
            reads.serve(platform, requests[i * per_event + r], traced,
                        i < pinned, work)
        if i == pinned - 1:
            now = snapshot_counters()
            for key in counters:
                counters[key] = now[key] - base_counters[key]
            work.counts["hedges_sent"] = (platform.channel.hedges_sent
                                          - hedges_before[0])
            work.counts["hedges_won"] = (platform.channel.hedges_won
                                         - hedges_before[1])

    loop = ClosedLoop(seconds, pinned, tracer, None, limit=len(events))
    loop.run(op)
    if pipeline.pending_events:
        # The drain closes the last cycle, traced if that cycle was.
        if tracer is not None:
            tracer.activate(cycle["traced"], request_id=loop.operations)
        try:
            pipeline.compact(trigger="drain")
        except Exception as exc:
            submits.fail(f"drain:{type(exc).__name__}")
        else:
            close_cycle(clock())
        if tracer is not None:
            tracer.activate(False)
    rss = peak_rss_mib()
    submitted = submits.attempted
    events_per_s = (clean["events"] / clean["seconds"]
                    if clean["seconds"] else 0.0)

    base = platform.snapshot
    fresh = LandmarkIndex.build(
        base, sorted(pipeline.index.landmarks), tier.topics, sim,
        params=pipeline.index.params,
        landmark_params=pipeline.index.landmark_params)
    mismatch = None
    for landmark in sorted(fresh.landmarks):
        for topic in tier.topics:
            if (pipeline.index.recommendations(landmark, topic)
                    != fresh.recommendations(landmark, topic)):
                mismatch = f"landmark {landmark} topic {topic} differs"
                break
        if mismatch:
            break
    if pipeline.servable_epoch != base.epoch or pipeline.pending_events:
        mismatch = (f"not drained: servable {pipeline.servable_epoch} "
                    f"base {base.epoch} pending {pipeline.pending_events}")
    checks = [
        ("drained index == LandmarkIndex.build(final base)", mismatch),
        ("sharded == ApproximateRecommender (final epoch)",
         differing_answer(platform, ApproximateRecommender(
             base, sim, pipeline.index), check_sample)),
    ]
    work.counts.update(counters)
    e2e = {"setup_s": median(setups), "boot_s": median(boots),
           **serve_metrics(reads), "peak_rss_mib": rss}
    writes = {"ingest_p50_ms": ingest.p50_ms(),
              "ingest_p99_ms": ingest.p99_ms(),
              "ingest_events_per_s": events_per_s,
              "write_visible_p50_ms": visible.p50_ms(),
              "write_visible_p99_ms": visible.p99_ms()}
    report = [f"setups: {[round(s, 4) for s in setups]} "
              f"boots: {[round(s, 4) for s in boots]}",
              f"serve: {reads.untraced.describe()}",
              f"ingest: {ingest.describe()} events={submitted} "
              f"window={loop.elapsed:.3f}s "
              f"compactions={pipeline.compactions_total} untraced cycles: "
              f"{clean['events']} events in {clean['seconds']:.3f}s",
              f"write_visible: {visible.describe()}",
              "writes: " + " ".join(f"{k}={v:.4f}"
                                    for k, v in writes.items())]
    layer = {}
    if tracer is not None:
        layer = layer_metrics(tracer, work.counts, pinned, reads,
                              read_phase, submits)
        layer.update(writes)
    return Outcome(e2e, layer, dict(work.counts),
                   [setup_phase, submits, read_phase], checks, report)


# ----------------------------------------------------------------------
# boot-mmap
# ----------------------------------------------------------------------

def boot_mmap(work_dir: Path, seed: int, seconds: float,
              tracer) -> Outcome:
    knobs = KNOBS["boot-mmap"]
    sim = similarity()
    setup_phase = Phase("setup")
    setups = []
    snapshot_dir = work_dir / "snapshot"
    for _ in range(int(knobs["setups"])):
        setups.append(generate(snapshot_dir, knobs["nodes"], seed))
        setup_phase.ok()
    probe = io.open_snapshot(snapshot_dir, store="mmap")
    users = list(probe.node_ids)
    topics = pick_topics(probe, knobs["topics"])
    del probe
    per_boot = int(knobs["reads_per_boot"])
    requests = uniform_requests(users, topics, 200 * per_boot,
                                random.Random(seed + 1))
    check_sample = requests.head(PARITY_SAMPLE)
    gc.collect()
    peak_rss_reset()

    boots_phase = Phase("boot")
    read_phase = Phase("serve")
    reads = Reads(read_phase)
    work = ReadWork()
    boot_times = Timing()
    pinned = int(knobs["pinned"])
    current: List[Tier] = []

    def op(i: int, traced: bool) -> None:
        current.clear()
        gc.collect()
        try:
            tier, boot_s = boot(snapshot_dir, knobs, seed, sim,
                                store="mmap", verify=True,
                                first_user=requests[0].user)
        except Exception as exc:  # counted, the next boot is tried
            boots_phase.fail(type(exc).__name__)
            return
        boots_phase.ok()
        boot_times.add(boot_s)
        current.append(tier)
        for k in range(i * per_boot, (i + 1) * per_boot):
            reads.serve(tier.platform, requests[k], traced, i < pinned, work)
        if i < pinned:
            channel, index = tier.platform.channel, tier.index
            entries = sum(len(index.recommendations(landmark, topic))
                          for landmark in index.landmarks
                          for topic in tier.topics)
            for key, value in (
                    ("hedges_sent", channel.hedges_sent),
                    ("hedges_won", channel.hedges_won),
                    ("landmarks_built", len(index.landmarks)),
                    ("index_entries", entries)):
                work.counts[key] = work.counts.get(key, 0) + value

    loop = ClosedLoop(seconds, pinned, tracer, int(knobs["block"]),
                      limit=len(requests) // per_boot)
    loop.run(op)
    rss = peak_rss_mib()

    if not current:
        raise RuntimeError("no boot succeeded; nothing to check")
    tier = current[0]
    ram = io.open_snapshot(snapshot_dir, store="ram")
    ram_platform = ShardedPlatform.build(
        ram, sim, tier.index, int(knobs["shards"]),
        replicas=int(knobs["replicas"]),
        channel=ShardChannel(latency_ms=1.0, jitter_ms=1.0, seed=seed),
        deadline_ms=DEADLINE_MS)
    checks = [
        ("sharded == ApproximateRecommender", differing_answer(
            tier.platform,
            ApproximateRecommender(tier.snapshot, sim, tier.index),
            check_sample)),
        ("mmap-served == RAM-served",
         differing_answer(tier.platform, ram_platform, check_sample)),
    ]
    e2e = {"setup_s": median(setups),
           "boot_s": median(boot_times.samples),
           **serve_metrics(reads), "peak_rss_mib": rss}
    report = [f"setups (stream generation): "
              f"{[round(s, 4) for s in setups]}",
              f"boots: {[round(s, 4) for s in boot_times.samples]} "
              f"window={loop.elapsed:.3f}s",
              f"serve: {reads.untraced.describe()}"]
    layer = {}
    if tracer is not None:
        layer = layer_metrics(tracer, work.counts, pinned, reads,
                              read_phase, boots_phase)
    return Outcome(e2e, layer, dict(work.counts),
                   [setup_phase, boots_phase, read_phase], checks, report)


# ----------------------------------------------------------------------
# Per-layer metrics of a traced run
# ----------------------------------------------------------------------

def layer_metrics(tracer, work: Dict[str, int], pinned: int, reads: Reads,
                  *phases: Phase
                  ) -> Dict[str, float]:
    """Per-layer metrics from the spans (times) and the exact work
    counts of the pinned prefix (counts)."""
    t = tracer
    vector_calls = len(t.by_name("distributed.sharded.landmark_vectors",
                                 pinned))
    vector_spans = len(t.by_name("landmarks.query_engine.vector_build",
                                 pinned))
    flushes = t.by_name("dynamics.incremental.flush", pinned)
    refreshed = sum(t.spans[i][5]["refreshed"] for i in flushes)
    possible = sum(t.spans[i][5]["landmarks"] for i in flushes)
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    return {
        "distributed.cluster.explore_ms":
            t.median_ms("distributed.cluster.explore"),
        "distributed.cluster.supersteps": work["supersteps"],
        "distributed.cluster.remote_messages": work["remote_messages"],
        "distributed.sharded.serve_ms":
            t.median_ms("distributed.sharded.serve"),
        "distributed.sharded.serve_unattributed_ms":
            t.median_self_ms("distributed.sharded.serve"),
        "distributed.sharded.fetch_ms":
            t.median_ms("distributed.sharded.fetch"),
        "distributed.sharded.remote_fetches": work["remote_fetches"],
        "distributed.sharded.local_landmarks": work["local_landmarks"],
        "distributed.sharded.entries_shipped": work["entries_shipped"],
        "distributed.sharded.hedges_sent": work["hedges_sent"],
        "distributed.sharded.hedges_won": work["hedges_won"],
        "landmarks.query_engine.compose_ms":
            t.median_ms("landmarks.query_engine.compose"),
        "landmarks.query_engine.vector_build_ms":
            t.median_ms("landmarks.query_engine.vector_build"),
        "landmarks.query_engine.vector_builds": vector_spans,
        "landmarks.query_engine.vector_hit_ratio":
            (1.0 - vector_spans / vector_calls) if vector_calls else 0.0,
        "core.fast.multi_source_ms": t.median_ms("core.fast.multi_source"),
        "core.fast.multi_source_calls":
            len(t.by_name("core.fast.multi_source", pinned)),
        "core.fast.sources_propagated":
            t.info_sum("core.fast.multi_source", "sources", pinned),
        "landmarks.index.build_s":
            t.median_ms("landmarks.index.build") / 1e3,
        "landmarks.selection.select_ms":
            t.median_ms("landmarks.selection.select"),
        "graph.storage.open_ms": t.median_ms("graph.storage.open"),
        "distributed.sharded.platform_build_ms":
            t.median_ms("distributed.sharded.platform_build"),
        "dynamics.incremental.flush_ms":
            t.median_ms("dynamics.incremental.flush"),
        "dynamics.incremental.sources_propagated":
            work.get("sources_propagated", 0),
        "dynamics.incremental.full_refreshes": work.get("full_refreshes", 0),
        "dynamics.incremental.dirty_ratio":
            refreshed / possible if possible else 0.0,
        "graph.overlay.apply_us": t.median_ms("graph.overlay.apply") * 1e3,
        "graph.overlay.compact_ms": t.median_ms("graph.overlay.compact"),
        "distributed.sharded.rollover_prepare_ms":
            t.median_self_ms("distributed.sharded.rollover_prepare"),
        "distributed.sharded.rollover_warm_ms":
            t.median_ms("distributed.sharded.rollover_warm"),
        "distributed.sharded.flip_ms": t.median_ms("distributed.sharded.flip"),
        "ingest.pipeline.submit_us":
            t.median_ms("ingest.pipeline.submit") * 1e3,
        "ingest.pipeline.compact_ms": t.median_ms("ingest.pipeline.compact"),
        "ingest.pipeline.compact_unattributed_ms":
            t.median_self_ms("ingest.pipeline.compact"),
        "ingest.pipeline.compactions": work.get("compactions", 0),
        "ingest.pipeline.events_skipped": work.get("events_skipped", 0),
        "ingest_p50_ms": 0.0,
        "ingest_p99_ms": 0.0,
        "ingest_events_per_s": 0.0,
        "write_visible_p50_ms": 0.0,
        "write_visible_p99_ms": 0.0,
        "failed_frac": failed / attempted if attempted else 0.0,
        "trace.overhead_pct": overhead_pct(reads),
    }


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "read-zipf": read_zipf,
    "ingest-mixed": ingest_mixed,
    "boot-mmap": boot_mmap,
}
