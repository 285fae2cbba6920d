"""The pinned CI smoke workload.

A small, fully-seeded end-to-end run that exercises every instrumented
stage — snapshot construction, exact power iteration, landmark
preprocessing (Algorithm 1), the landmark-accelerated query path
(Algorithm 2), sharded serving, a replicated zero-downtime epoch
rollover under churn, the storage backends, and the event-stream
ingest path (overlay + budgeted compaction) — with the
observability layer enabled, and returns the bench report that
``python -m repro.obs run --json BENCH_ci.json`` writes for CI.

Everything is deterministic except the timings: same seed, same
machine → identical counters and stage call counts, so PR-over-PR
diffs of ``BENCH_ci.json`` isolate *time* changes from *work* changes.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from . import runtime as rt
from .export import build_report

#: Knobs of the pinned CI workload. Changing any of these invalidates
#: ``benchmarks/baseline_ci.json`` — regenerate it in the same commit
#: (see docs/OBSERVABILITY.md).
SMOKE_DEFAULTS: Dict[str, Any] = {
    "nodes": 1200,
    "seed": 7,
    "landmarks": 24,
    "top_n": 100,
    "queries": 8,
    "query_reps": 25,
    "engine": "auto",
    "ingest_events": 30,
    "compact_every": 10,
}


def _latency_summary(samples: List[float]) -> Dict[str, float]:
    """p50/p99/mean/qps over raw per-query latency samples.

    Percentile index is ``ceil(q·n) - 1`` (nearest-rank, clamped), so
    small sample sets stay well-defined and deterministic.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return {"count": 0, "p50": 0.0, "p99": 0.0, "mean": 0.0, "qps": 0.0}

    def pick(q: float) -> float:
        return ordered[min(max(math.ceil(q * n) - 1, 0), n - 1)]

    total = sum(ordered)
    return {
        "count": n,
        "p50": pick(0.50),
        "p99": pick(0.99),
        "mean": total / n,
        "qps": (n / total) if total > 0.0 else 0.0,
    }


def _pick_query_nodes(graph: Any, landmarks: List[int],
                      queries: int) -> List[int]:
    """Deterministic query set: lowest-id non-landmark nodes that
    actually have somewhere to explore."""
    excluded = set(landmarks)
    eligible = sorted(
        node for node in graph.nodes()
        if graph.out_degree(node) >= 2 and node not in excluded)
    return eligible[:queries]


def run_smoke(nodes: int = 0, seed: int = 0, landmarks: int = 0,
              top_n: int = 0, queries: int = 0,
              engine: str = "", query_reps: int = 0) -> Dict[str, Any]:
    """Run the smoke workload with obs enabled; returns the report.

    Any argument left at its falsy default is replaced by the pinned
    value from :data:`SMOKE_DEFAULTS` (explicit zeros are not
    meaningful for any of these knobs).

    The Algorithm-2 stage runs each query ``query_reps`` times through
    the landmark query engine and reports p50/p99/mean/qps under the
    ``latency`` report section (``workload.query.sparse``) — the
    numbers the CI gate holds against ``benchmarks/baseline_ci.json``.
    """
    # Imports are deferred so `import repro.obs` stays dependency-free
    # and cycle-free (core/landmarks import repro.obs at module load).
    from ..core.exact import single_source_scores
    from ..datasets import generate_twitter_graph
    from ..landmarks.approximate import ApproximateRecommender
    from ..landmarks.index import LandmarkIndex
    from ..landmarks.selection import select_landmarks
    from ..config import LandmarkParams, ScoreParams
    from ..semantics import SimilarityMatrix, web_taxonomy

    nodes = nodes if nodes else int(SMOKE_DEFAULTS["nodes"])
    seed = seed if seed else int(SMOKE_DEFAULTS["seed"])
    landmarks = landmarks if landmarks else int(SMOKE_DEFAULTS["landmarks"])
    top_n = top_n if top_n else int(SMOKE_DEFAULTS["top_n"])
    queries = queries if queries else int(SMOKE_DEFAULTS["queries"])
    engine = engine if engine else str(SMOKE_DEFAULTS["engine"])
    query_reps = (query_reps if query_reps
                  else int(SMOKE_DEFAULTS["query_reps"]))

    was_enabled = rt.is_enabled()
    rt.enable(reset=True)
    try:
        with rt.span("workload.setup") as setup_span:
            graph = generate_twitter_graph(nodes, seed=seed)
            similarity = SimilarityMatrix.from_taxonomy(web_taxonomy())
            topics = sorted(graph.topics())
            topic = "technology" if "technology" in topics else topics[0]
            params = ScoreParams()
            if setup_span:
                setup_span.set(nodes=graph.num_nodes,
                               edges=graph.num_edges, topic=topic)

        # Stage 0 — freeze the read path. Every scorer below shares
        # this snapshot (and its authority index); the build itself is
        # the `graph.snapshot_build` stage of the bench report.
        snapshot = graph.snapshot()
        authority = snapshot.authority()

        chosen = select_landmarks(snapshot, "In-Deg", landmarks, rng=seed)
        query_nodes = _pick_query_nodes(snapshot, chosen, queries)

        # Stage 1 — exact power iteration, run to convergence.
        for query in query_nodes:
            single_source_scores(snapshot, query, [topic], similarity,
                                 authority=authority, params=params)

        # Stage 2 — Algorithm 1 landmark preprocessing.
        index = LandmarkIndex.build(
            snapshot, chosen, [topic], similarity, params=params,
            landmark_params=LandmarkParams(num_landmarks=landmarks,
                                           top_n=top_n),
            authority=authority, engine=engine)

        # Stage 3 — Algorithm 2 landmark-accelerated queries, timed
        # per query (the stage keeps its historical ``.sparse`` name:
        # the vectorised engine is the only query engine).
        latencies: Dict[str, List[float]] = {}
        recommender = ApproximateRecommender(
            snapshot, similarity, index, authority=authority)
        # one untimed pass warms the engine's per-snapshot caches
        # (per-topic arrays, landmark vectors, stacked composition)
        for query in query_nodes:
            recommender.recommend(query, topic, top_n=10)
        samples: List[float] = []
        stage = "workload.query.sparse"
        for _ in range(query_reps):
            for query in query_nodes:
                watch = rt.timed_span(stage)
                with watch:
                    recommender.recommend(query, topic, top_n=10)
                samples.append(watch.elapsed)
        latencies[stage] = samples
        latency = {name: _latency_summary(samples)
                   for name, samples in latencies.items()}

        # Stage 4 — the same queries through the sharded serving tier
        # (scatter-gather over 4 range shards; answers are
        # bitwise-identical to stage 3, so the stage isolates routing
        # and merge overhead).
        from ..distributed.sharded import ShardedPlatform

        platform = ShardedPlatform.build(
            snapshot, similarity, index, num_shards=4, params=params)
        for query in query_nodes:
            platform.recommend(query, topic, top_n=10)

        # Stage 5 — zero-downtime epoch rollover under load. A
        # replicated platform serves while seeded churn bumps the
        # epoch; the next generation warms beside the old one and the
        # router flips once every replica is ready. One replica is
        # slowed beforehand so the hedged-fetch path is exercised too.
        # The stage gauges how fast a fresh epoch becomes servable
        # (events/sec from first event applied to post-flip answers)
        # and the hedge win rate over the whole replicated run.
        from ..dynamics import GraphStream, simulate_churn

        replicated = ShardedPlatform.build(
            graph, similarity, index, num_shards=4, replicas=2,
            params=params)
        for _ in range(2):  # per-replica latency history for hedging
            for query in query_nodes:
                replicated.recommend(query, topic, top_n=10)
        replicated.channel.set_replica_latency(1, 0, 25.0)
        for query in query_nodes:
            replicated.recommend(query, topic, top_n=10)

        stream = GraphStream(graph)
        churn_events = 30
        watch = rt.timed_span("workload.rollover")
        with watch:
            applied = stream.apply_all(
                simulate_churn(graph, churn_events, seed=seed))
            rollover = replicated.begin_rollover()
            for query in query_nodes:  # old epoch serves through the warm
                replicated.recommend(query, topic, top_n=10)
            rollover.flip()
            for query in query_nodes:  # fresh epoch, zero downtime
                replicated.recommend(query, topic, top_n=10)
        channel = replicated.channel
        rt.gauge("workload.rollover.events_per_sec",
                 (applied / watch.elapsed) if watch.elapsed > 0 else 0.0)
        rt.gauge("workload.rollover.hedge_win_rate",
                 (channel.hedges_won / channel.hedges_sent)
                 if channel.hedges_sent else 0.0)

        # Stage 6 — storage backends. The frozen snapshot is persisted
        # to the versioned on-disk format, reopened through both the
        # in-RAM store and the memory-mapped store, and the same
        # queries are re-run through each. The two latency entries
        # (``workload.mmap.ram`` / ``workload.mmap.mmap``) measure what
        # serving straight off the page cache costs relative to
        # resident arrays; the answers themselves are bitwise-identical
        # (pinned by the storage parity tests). A peak-RSS gauge rides
        # along so scaling runs can see that the mmap path does not
        # inherit the in-RAM footprint.
        import shutil
        import tempfile

        from ..graph.io import open_snapshot, save_snapshot

        snapshot_dir = tempfile.mkdtemp(prefix="repro-smoke-snapshot-")
        try:
            # Stage 5's churn advanced the live graph past the frozen
            # epoch; the frozen epoch is exactly what we persist.
            save_snapshot(snapshot, snapshot_dir, allow_stale=True)
            for backend in ("ram", "mmap"):
                loaded = open_snapshot(snapshot_dir, store=backend)
                recommender = ApproximateRecommender(
                    loaded, similarity, index, authority=loaded.authority())
                for query in query_nodes:  # untimed cache warm-up
                    recommender.recommend(query, topic, top_n=10)
                samples = []
                stage = f"workload.mmap.{backend}"
                for _ in range(query_reps):
                    for query in query_nodes:
                        watch = rt.timed_span(stage)
                        with watch:
                            recommender.recommend(query, topic, top_n=10)
                        samples.append(watch.elapsed)
                latencies[stage] = samples
                latency[stage] = _latency_summary(samples)
        finally:
            shutil.rmtree(snapshot_dir, ignore_errors=True)
        try:
            import resource
        except ImportError:  # non-POSIX platform: gauge simply absent
            pass
        else:
            # ru_maxrss is kilobytes on Linux.
            rt.gauge("workload.mmap.peak_rss_bytes",
                     float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
                     * 1024.0)

        # Stage 7 — the event-stream ingest path. Churn events stream
        # through the delta overlay with a budgeted compaction every
        # ``compact_every`` applied events; each compaction folds the
        # overlay into a fresh base, refreshes only the dirty-frontier
        # landmarks, and rolls the serving tier over to the new epoch.
        # Per-event latency p50/p99 lands under ``workload.ingest``
        # (compaction submits are the tail), and the
        # ``workload.ingest.events_per_sec`` gauge measures
        # events/sec-to-fresh-servable-epoch: the whole stream is
        # drained to a flipped, servable epoch inside the timed window.
        from ..api import IngestEvent
        from ..ingest import CompactionPolicy, IngestPipeline

        ingest_events = int(SMOKE_DEFAULTS["ingest_events"])
        compact_every = int(SMOKE_DEFAULTS["compact_every"])
        ingest_platform = ShardedPlatform.build(
            graph, similarity, index, num_shards=4, params=params)
        pipeline = IngestPipeline(
            ingest_platform, similarity, [topic],
            policy=CompactionPolicy(max_events=compact_every))
        stream_events = [
            IngestEvent(kind=event.kind.value, source=event.source,
                        target=event.target,
                        topics=tuple(event.topics or ()), time=event.time)
            for event in simulate_churn(graph, ingest_events,
                                        seed=seed + 1)]
        samples = []
        stage = "workload.ingest"
        stream_watch = rt.timed_span("workload.ingest_stream")
        with stream_watch:
            for event in stream_events:
                watch = rt.timed_span(stage)
                with watch:
                    pipeline.submit(event)
                samples.append(watch.elapsed)
            if pipeline.pending_events:
                pipeline.compact(trigger="drain")
        latencies[stage] = samples
        latency[stage] = _latency_summary(samples)
        rt.gauge("workload.ingest.events_per_sec",
                 (pipeline.events_total / stream_watch.elapsed)
                 if stream_watch.elapsed > 0 else 0.0)
        rt.gauge("workload.ingest.compactions",
                 float(pipeline.compactions_total))

        report = build_report(rt.snapshot(), workload={
            "nodes": nodes, "seed": seed, "landmarks": landmarks,
            "top_n": top_n, "queries": len(query_nodes),
            "query_reps": query_reps,
            "engine": index.engine_used, "topic": topic,
            "ingest_events": ingest_events,
            "compact_every": compact_every,
        }, latency=latency)
    finally:
        if not was_enabled:
            rt.disable()
    return report
