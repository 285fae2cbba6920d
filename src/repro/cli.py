"""Command-line interface.

Subcommands::

    repro generate --dataset twitter --nodes 5000 --seed 7 out.jsonl
    repro generate --nodes 1000000 --stream --seed 7 snapshot_dir
    repro stats graph.jsonl
    repro recommend graph.jsonl --user 42 --topic technology --top 10
    repro evaluate graph.jsonl --methods Tr,Katz,TwitterRank
    repro landmarks graph.jsonl --strategy In-Deg --count 50 --out index.rplm
    repro partition graph.jsonl --parts 4 --strategy greedy
    repro shard graph.jsonl --user 42 --topic technology --shards 4
    repro churn graph.jsonl --events 500 --seed 3 --out churned.jsonl
    repro ingest graph.jsonl --events 500 --seed 3 --shards 4 --compact-every 64
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .baselines import SalsaRecommender, TwitterRank
from .config import ENGINE_CHOICES, EvaluationParams, LandmarkParams, ScoreParams
from .core.recommender import Recommender
from .datasets import (
    generate_dblp_graph,
    generate_twitter_graph,
    generate_twitter_snapshot_stream,
)
from .eval import (
    LinkPredictionProtocol,
    katz_scorer,
    make_tr_scorer,
    twitterrank_scorer,
)
from .graph.io import read_jsonl, write_jsonl
from .graph.stats import compute_stats
from .landmarks import LandmarkIndex, save_index, select_landmarks
from .semantics import SimilarityMatrix, dblp_taxonomy, web_taxonomy


def _similarity_for(graph_kind: str) -> SimilarityMatrix:
    taxonomy = dblp_taxonomy() if graph_kind == "dblp" else web_taxonomy()
    return SimilarityMatrix.from_taxonomy(taxonomy)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.stream:
        if args.dataset != "twitter":
            print("--stream supports only the twitter generator",
                  file=sys.stderr)
            return 2
        stream_stats = generate_twitter_snapshot_stream(
            args.output, args.nodes, seed=args.seed)
        resumed = (f", resumed from node {stream_stats.resumed_from}"
                   if stream_stats.resumed_from else "")
        print(f"wrote snapshot {args.output}: {stream_stats.num_nodes} "
              f"nodes, {stream_stats.num_edges} edges, "
              f"{stream_stats.distinct_labels} distinct labels, "
              f"{stream_stats.reciprocal_edges} reciprocal "
              f"({stream_stats.checkpoints} checkpoints{resumed})")
        return 0
    if args.dataset == "twitter":
        graph = generate_twitter_graph(args.nodes, seed=args.seed)
    else:
        graph = generate_dblp_graph(args.nodes, seed=args.seed)
    write_jsonl(graph, args.output)
    # Report counts the generator already accumulated — no re-loading
    # or re-deriving statistics from the file that was just written.
    print(f"wrote {args.output}: {graph.num_nodes} nodes, "
          f"{graph.num_edges} edges")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = read_jsonl(args.graph)
    for name, value in compute_stats(graph).as_rows():
        print(f"{name:28s} {value}")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    graph = read_jsonl(args.graph)
    similarity = _similarity_for(args.taxonomy)
    recommender = Recommender(graph, similarity,
                              ScoreParams(beta=args.beta, alpha=args.alpha))
    results = recommender.recommend(args.user, args.topic, top_n=args.top)
    if not results:
        print("no recommendation found")
        return 1
    for position, item in enumerate(results, start=1):
        print(f"{position:3d}. account {item.node:8d} score={item.score:.6g}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    graph = read_jsonl(args.graph)
    similarity = _similarity_for(args.taxonomy)
    protocol = LinkPredictionProtocol(
        graph,
        EvaluationParams(test_size=args.test_size,
                         num_negatives=args.negatives),
        seed=args.seed)
    scorers = {}
    wanted = [m.strip() for m in args.methods.split(",") if m.strip()]
    for method in wanted:
        if method == "Tr":
            scorers[method] = make_tr_scorer(protocol.graph, similarity,
                                             engine=args.engine)
        elif method == "Katz":
            scorers[method] = katz_scorer(protocol.graph)
        elif method == "TwitterRank":
            scorers[method] = twitterrank_scorer(TwitterRank(protocol.graph))
        elif method == "SALSA":
            salsa = SalsaRecommender(protocol.graph, circle_size=30)

            def salsa_score(source, candidates, topic, _salsa=salsa):
                scores = _salsa.scores(source)
                return {c: scores.get(c, 0.0) for c in candidates}

            scorers[method] = salsa_score
        else:
            print(f"unknown method {method!r}", file=sys.stderr)
            return 2
    curves = protocol.run(scorers)
    header = "N    " + "".join(f"{name:>14s}" for name in curves)
    print(header)
    for n in (1, 5, 10, 20):
        row = f"{n:<5d}" + "".join(
            f"{curve.recall_at(n):14.3f}" for curve in curves.values())
        print(row)
    return 0


def _cmd_landmarks(args: argparse.Namespace) -> int:
    graph = read_jsonl(args.graph)
    similarity = _similarity_for(args.taxonomy)
    landmarks = select_landmarks(graph, args.strategy, args.count,
                                 rng=args.seed)
    topics = sorted(graph.topics())
    index = LandmarkIndex.build(
        graph, landmarks, topics, similarity,
        landmark_params=LandmarkParams(num_landmarks=args.count,
                                       top_n=args.top),
        engine=args.engine, workers=args.workers)
    written = save_index(index, args.out)
    stats = index.stats()
    print(f"built index for {len(landmarks)} landmarks "
          f"({written} bytes, engine={index.engine_used}, "
          f"{stats['mean_build_seconds']:.4f}s/landmark) -> {args.out}")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    from .distributed import (
        greedy_partition,
        hash_partition,
        partition_metrics,
        topic_partition,
    )

    graph = read_jsonl(args.graph)
    partitioners = {
        "hash": lambda: hash_partition(graph, args.parts),
        "greedy": lambda: greedy_partition(graph, args.parts,
                                           seed=args.seed),
        "topic": lambda: topic_partition(graph, args.parts),
    }
    factory = partitioners.get(args.strategy)
    if factory is None:
        print(f"unknown partitioner {args.strategy!r}", file=sys.stderr)
        return 2
    assignment = factory()
    metrics = partition_metrics(graph, assignment)
    print(f"strategy={args.strategy} parts={metrics.num_parts} "
          f"edge_cut={metrics.edge_cut:.3f} balance={metrics.balance:.3f}")
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    from .distributed.sharded import ShardedPlatform

    graph = read_jsonl(args.graph)
    similarity = _similarity_for(args.taxonomy)
    landmarks = select_landmarks(graph, args.strategy, args.count,
                                 rng=args.seed)
    topics = sorted(graph.topics())
    index = LandmarkIndex.build(
        graph, landmarks, topics, similarity,
        landmark_params=LandmarkParams(num_landmarks=args.count,
                                       top_n=args.top))
    platform = ShardedPlatform.build(graph, similarity, index, args.shards,
                                     replicas=args.replicas)
    response = platform.recommend(args.user, args.topic, top_n=args.top_n)
    home = platform.router.shard_of(args.user)
    print(f"shards={platform.num_shards} replicas={platform.replicas} "
          f"epoch={platform.epoch} served_epoch={response.served_epoch} "
          f"home_shard={home} "
          f"degraded={response.degraded} hedged={response.hedged}")
    if not len(response):
        print("no recommendation found")
        return 1
    for position, item in enumerate(response, start=1):
        print(f"{position:3d}. account {item.node:8d} score={item.score:.6g}")
    return 0


def _cmd_churn(args: argparse.Namespace) -> int:
    from .dynamics import GraphStream, simulate_churn

    graph = read_jsonl(args.graph)
    stream = GraphStream(graph)
    applied = stream.apply_all(
        simulate_churn(graph, args.events, seed=args.seed))
    write_jsonl(graph, args.out)
    stats = compute_stats(graph)
    print(f"applied {applied} events "
          f"(skipped {stream.skipped}); wrote {args.out}: "
          f"{stats.num_nodes} nodes, {stats.num_edges} edges")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from .api import IngestEvent
    from .distributed.sharded import ShardedPlatform
    from .dynamics import simulate_churn
    from .ingest import CompactionPolicy, IngestPipeline

    graph = read_jsonl(args.graph)
    similarity = _similarity_for(args.taxonomy)
    landmarks = select_landmarks(graph, args.strategy, args.count,
                                 rng=args.seed)
    topics = sorted(graph.topics())
    index = LandmarkIndex.build(
        graph, landmarks, topics, similarity,
        landmark_params=LandmarkParams(num_landmarks=args.count,
                                       top_n=args.top))
    platform = ShardedPlatform.build(graph, similarity, index, args.shards)
    pipeline = IngestPipeline(
        platform, similarity, topics,
        policy=CompactionPolicy(max_events=args.compact_every))
    # Materialize churn up front: simulate_churn mutates nothing, but
    # the stream must not observe its own deltas mid-generation.
    events = [
        IngestEvent(kind=event.kind.value, source=event.source,
                    target=event.target, topics=tuple(event.topics or ()),
                    time=event.time)
        for event in simulate_churn(graph, args.events, seed=args.seed)]
    responses = pipeline.submit_all(events)
    applied = sum(1 for response in responses if response.applied)
    print(f"ingested {applied}/{len(events)} events "
          f"(skipped {pipeline.events_skipped}) through "
          f"{pipeline.compactions_total} compactions; "
          f"servable epoch {pipeline.servable_epoch}, "
          f"pending {pipeline.pending_events}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tr user recommendation (EDBT 2016 reproduction)")
    parser.add_argument(
        "--obs", action="store_true",
        help="enable the observability layer and print a stage/metric "
             "report to stderr when the command finishes")
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument("output")
    generate.add_argument("--dataset", choices=("twitter", "dblp"),
                          default="twitter")
    generate.add_argument("--nodes", type=int, default=2000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--stream", action="store_true",
        help="stream edges straight into an on-disk snapshot directory "
             "(out-of-core, checkpointed and resumable; twitter only)")
    generate.set_defaults(handler=_cmd_generate)

    stats = sub.add_parser("stats", help="Table-2 style graph statistics")
    stats.add_argument("graph")
    stats.set_defaults(handler=_cmd_stats)

    recommend = sub.add_parser("recommend", help="top-n recommendation")
    recommend.add_argument("graph")
    recommend.add_argument("--user", type=int, required=True)
    recommend.add_argument("--topic", required=True)
    recommend.add_argument("--top", type=int, default=10)
    recommend.add_argument("--beta", type=float, default=ScoreParams().beta)
    recommend.add_argument("--alpha", type=float, default=ScoreParams().alpha)
    recommend.add_argument("--taxonomy", choices=("web", "dblp"),
                           default="web")
    recommend.set_defaults(handler=_cmd_recommend)

    evaluate = sub.add_parser("evaluate", help="link-prediction protocol")
    evaluate.add_argument("graph")
    evaluate.add_argument("--methods", default="Tr,Katz,TwitterRank")
    evaluate.add_argument("--test-size", type=int, default=50)
    evaluate.add_argument("--negatives", type=int, default=1000)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--taxonomy", choices=("web", "dblp"),
                          default="web")
    evaluate.add_argument("--engine", choices=ENGINE_CHOICES, default="auto",
                          help="propagation engine for the Tr scorer")
    evaluate.set_defaults(handler=_cmd_evaluate)

    landmarks = sub.add_parser("landmarks", help="build a landmark index")
    landmarks.add_argument("graph")
    landmarks.add_argument("--strategy", default="In-Deg")
    landmarks.add_argument("--count", type=int, default=50)
    landmarks.add_argument("--top", type=int, default=100)
    landmarks.add_argument("--seed", type=int, default=0)
    landmarks.add_argument("--out", default="landmarks.rplm")
    landmarks.add_argument("--taxonomy", choices=("web", "dblp"),
                           default="web")
    landmarks.add_argument("--engine", choices=ENGINE_CHOICES, default="auto",
                           help="propagation engine for Algorithm 1")
    landmarks.add_argument("--workers", type=int, default=1,
                           help="thread fan-out for the dict engine")
    landmarks.set_defaults(handler=_cmd_landmarks)

    partition = sub.add_parser("partition",
                               help="partition the graph and report quality")
    partition.add_argument("graph")
    partition.add_argument("--parts", type=int, default=4)
    partition.add_argument("--strategy",
                           choices=("hash", "greedy", "topic"),
                           default="greedy")
    partition.add_argument("--seed", type=int, default=0)
    partition.set_defaults(handler=_cmd_partition)

    shard = sub.add_parser(
        "shard", help="serve one recommendation through the sharded tier")
    shard.add_argument("graph")
    shard.add_argument("--user", type=int, required=True)
    shard.add_argument("--topic", required=True)
    shard.add_argument("--shards", type=int, default=4)
    shard.add_argument("--replicas", type=int, default=1,
                       help="replication factor R per shard range "
                            "(>= 2 enables failover and hedged fetches)")
    shard.add_argument("--top-n", type=int, default=10)
    shard.add_argument("--strategy", default="In-Deg",
                       help="landmark selection strategy")
    shard.add_argument("--count", type=int, default=20,
                       help="number of landmarks")
    shard.add_argument("--top", type=int, default=100,
                       help="entries kept per landmark list")
    shard.add_argument("--seed", type=int, default=0)
    shard.add_argument("--taxonomy", choices=("web", "dblp"),
                       default="web")
    shard.set_defaults(handler=_cmd_shard)

    churn = sub.add_parser("churn",
                           help="apply follow/unfollow churn to a graph")
    churn.add_argument("graph")
    churn.add_argument("--events", type=int, default=500)
    churn.add_argument("--seed", type=int, default=0)
    churn.add_argument("--out", default="churned.jsonl")
    churn.set_defaults(handler=_cmd_churn)

    ingest = sub.add_parser(
        "ingest",
        help="stream churn events through the ingest pipeline into a "
             "sharded serving tier (overlay + budgeted compaction)")
    ingest.add_argument("graph")
    ingest.add_argument("--events", type=int, default=500)
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument("--shards", type=int, default=4)
    ingest.add_argument("--compact-every", dest="compact_every", type=int,
                        default=64,
                        help="fold the overlay into a fresh servable base "
                             "after this many applied events")
    ingest.add_argument("--strategy", default="In-Deg",
                        help="landmark selection strategy")
    ingest.add_argument("--count", type=int, default=20,
                        help="number of landmarks")
    ingest.add_argument("--top", type=int, default=100,
                        help="entries kept per landmark list")
    ingest.add_argument("--taxonomy", choices=("web", "dblp"),
                        default="web")
    ingest.set_defaults(handler=_cmd_ingest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.obs:
        from . import obs

        obs.enable()
        try:
            return args.handler(args)
        finally:
            print(obs.render_text(obs.snapshot()), file=sys.stderr)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
