"""Seeded fault-injection suite for the replicated sharded tier.

The serving tier's resilience claims — failover keeps answers exact,
hedging absorbs slow replicas, rollover never surfaces
:class:`~repro.errors.StaleSnapshotError` — are only claims until
something actively breaks them. This module is that something: a
deterministic chaos harness that replays one scripted request stream
against a seeded world while injecting one failure mode, then verifies
the tier's three invariants:

1. **No stale errors** — zero ``StaleSnapshotError`` may reach a
   client, in any cell, rollover or not.
2. **Determinism** — the full response stream (rankings, degradation
   flags, served epochs) is bitwise-identical when the same seeded
   cell runs twice. A ranking digest (SHA-256 over the exact float
   reprs) makes "bitwise" checkable across processes; the closing
   wave is also checked bitwise against the single-process scorer
   (parity).
3. **Redundancy pays** — with ``replicas >= 2`` a single injected
   replica failure must not degrade any response; with ``replicas=1``
   degradation is expected and must itself be deterministic.

The matrix CI runs (``.github/workflows/ci.yml`` · chaos-matrix) is
``{replicas: 1,2,3} x {failure: none, down-replica, slow-replica,
rollover-mid-stream, ingest-under-rollover}``; each cell writes a JSON
verdict artifact and a non-passing cell fails the job. The
``ingest-under-rollover`` cell drives live event ingestion
(:mod:`repro.ingest`) through overlay compactions whose rollovers are
deliberately left pending across request waves — proving a client can
never observe ``StaleSnapshotError`` no matter how writes interleave
with epoch flips. Run one cell locally with::

    PYTHONPATH=src python -m repro.chaos --replicas 2 \\
        --failure down-replica --json verdict.json

or the whole matrix with ``--all``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .api import IngestEvent
from .config import LandmarkParams, ScoreParams
from .datasets import generate_twitter_graph
from .distributed.sharded import ShardChannel, ShardedPlatform
from .dynamics import GraphStream, simulate_churn
from .errors import ConfigurationError, StaleSnapshotError
from .ingest import CompactionPolicy, IngestPipeline
from .landmarks import ApproximateRecommender, LandmarkIndex, select_landmarks
from .semantics import SimilarityMatrix, web_taxonomy

__all__ = [
    "FAILURES",
    "CellSpec",
    "CellVerdict",
    "run_cell",
    "run_matrix",
    "render_markdown",
    "main",
]

#: The injectable failure modes, in matrix order.
FAILURES = ("none", "down-replica", "slow-replica", "rollover-mid-stream",
            "ingest-under-rollover")

_TOPIC = "technology"
_PARAMS = ScoreParams(beta=0.004)
#: The shard whose replica 0 every failure mode targets. Shard 2 of 3
#: is never the scripted users' home shard (low-id users route to
#: shard 0), so down-replica cells degrade remotely instead of
#: hard-failing the home shard.
_TARGET_SHARD = 2


@dataclass(frozen=True)
class CellSpec:
    """One chaos-matrix cell: a replication factor, a failure, a seed."""

    replicas: int
    failure: str
    seed: int = 7

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigurationError(
                f"replicas must be >= 1, got {self.replicas}")
        if self.failure not in FAILURES:
            raise ConfigurationError(
                f"unknown failure {self.failure!r}; "
                f"expected one of {sorted(FAILURES)}")

    @property
    def name(self) -> str:
        """Stable cell identifier (artifact/file naming)."""
        return f"r{self.replicas}-{self.failure}-seed{self.seed}"


@dataclass
class CellVerdict:
    """What one cell observed, plus the pass/fail verdict."""

    spec: CellSpec
    digest: str
    deterministic: bool
    stale_errors: int
    responses: int
    degraded_responses: int
    hedges_sent: int
    hedges_won: int
    parity_ok: bool
    passed: bool
    reasons: List[str]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable verdict (the CI artifact shape)."""
        return {
            "cell": self.spec.name,
            "replicas": self.spec.replicas,
            "failure": self.spec.failure,
            "seed": self.spec.seed,
            "digest": self.digest,
            "deterministic": self.deterministic,
            "stale_errors": self.stale_errors,
            "responses": self.responses,
            "degraded_responses": self.degraded_responses,
            "hedges_sent": self.hedges_sent,
            "hedges_won": self.hedges_won,
            "parity_ok": self.parity_ok,
            "passed": self.passed,
            "reasons": self.reasons,
        }


@dataclass
class _StreamResult:
    """One scripted run: the transcript and what it observed."""

    transcript: List[object]
    stale_errors: int
    degraded: int
    hedges_sent: int
    hedges_won: int
    final_pairs: List[List[tuple]]
    final_index: LandmarkIndex
    final_graph: object


def _digest(transcript: Sequence[object]) -> str:
    """SHA-256 over the exact reprs — float-bit-level comparison."""
    return hashlib.sha256(repr(list(transcript)).encode()).hexdigest()


def _run_stream(spec: CellSpec) -> _StreamResult:
    """Execute the scripted request stream for one cell, once.

    The script is fixed per failure mode and fully seeded: world
    generation, landmark selection, channel RNG, and churn events all
    derive from ``spec.seed``, so two invocations replay byte-identical
    simulated histories.
    """
    graph = generate_twitter_graph(160, seed=spec.seed)
    similarity = SimilarityMatrix.from_taxonomy(web_taxonomy())
    landmarks = select_landmarks(graph, "In-Deg", 10, rng=spec.seed)
    index = LandmarkIndex.build(
        graph, landmarks, [_TOPIC], similarity, params=_PARAMS,
        landmark_params=LandmarkParams(num_landmarks=10, top_n=60))
    platform = ShardedPlatform.build(
        graph, similarity, index, 3, replicas=spec.replicas,
        params=_PARAMS, deadline_ms=10_000.0,
        channel=ShardChannel(seed=spec.seed))
    users = [n for n in sorted(graph.nodes())
             if graph.out_degree(n) >= 3
             and n not in set(index.landmarks)][:5]

    transcript: List[object] = []
    stale_errors = 0
    degraded = 0
    final_pairs: List[List[tuple]] = []
    # What the closing wave's answers are checked against: the live
    # graph, unless the ingest cell replaces it with the final
    # compacted base (the live graph is never mutated there).
    final_graph: object = graph

    def wave(tag: str, record_final: bool = False) -> None:
        nonlocal stale_errors, degraded
        for user in users:
            try:
                response = platform.recommend(user, _TOPIC, top_n=10)
            except StaleSnapshotError:
                stale_errors += 1
                transcript.append((tag, user, "stale-error"))
                continue
            degraded += int(response.degraded)
            pairs = response.pairs()
            transcript.append((tag, user, pairs, response.degraded,
                               response.served_epoch))
            if record_final:
                final_pairs.append(pairs)

    wave("healthy")
    if spec.failure == "none":
        wave("steady", record_final=True)
    elif spec.failure == "down-replica":
        platform.mark_down(_TARGET_SHARD,
                           replica=0 if spec.replicas > 1 else None)
        wave("one-replica-down")
        platform.mark_up(_TARGET_SHARD,
                         replica=0 if spec.replicas > 1 else None)
        wave("recovered", record_final=True)
    elif spec.failure == "slow-replica":
        wave("warmup")  # latency history for the hedge threshold
        platform.channel.set_replica_latency(_TARGET_SHARD, 0, 250.0)
        wave("primary-slow")
        platform.channel.clear_replica_latency(_TARGET_SHARD, 0)
        wave("recovered", record_final=True)
    elif spec.failure == "rollover-mid-stream":
        stream = GraphStream(graph)
        stream.apply_all(simulate_churn(graph, 15, seed=spec.seed))
        rollover = platform.begin_rollover()
        wave("rollover-pending")  # old epoch drains, zero stale errors
        platform.mark_down(_TARGET_SHARD,
                           replica=0 if spec.replicas > 1 else None)
        wave("rollover-pending-replica-down")
        platform.mark_up(_TARGET_SHARD,
                         replica=0 if spec.replicas > 1 else None)
        rollover.flip()
        wave("rolled-over", record_final=True)
    else:  # ingest-under-rollover
        # Live writes stream through the ingest pipeline while every
        # compaction's rollover is deliberately left pending across a
        # request wave (auto_flip=False stretches the window a real
        # deployment keeps short). Reads must keep draining the old
        # epoch with zero stale errors while the overlay keeps
        # absorbing writes — even with a replica down mid-window.
        events = [
            IngestEvent(kind=event.kind.value, source=event.source,
                        target=event.target,
                        topics=tuple(event.topics or ()), time=event.time)
            for event in simulate_churn(graph, 15, seed=spec.seed)]
        pipeline = IngestPipeline(
            platform, similarity, [_TOPIC],
            policy=CompactionPolicy(max_events=4), auto_flip=False)
        pipeline.submit_all(events[:8])
        if platform.pending_rollover is None:  # all 8 skipped: force one
            pipeline.compact(trigger="chaos")
        wave("ingest-pending")  # rollover pending, writes still landing
        platform.mark_down(_TARGET_SHARD,
                           replica=0 if spec.replicas > 1 else None)
        wave("ingest-pending-replica-down")
        platform.mark_up(_TARGET_SHARD,
                         replica=0 if spec.replicas > 1 else None)
        pipeline.submit_all(events[8:])  # next compaction flips the old
        final_graph = pipeline.compact(trigger="drain")
        platform.pending_rollover.flip()  # serve the drained base
        wave("rolled-over", record_final=True)

    return _StreamResult(
        transcript=transcript,
        stale_errors=stale_errors,
        degraded=degraded,
        hedges_sent=platform.channel.hedges_sent,
        hedges_won=platform.channel.hedges_won,
        final_pairs=final_pairs,
        final_index=platform.index,
        final_graph=final_graph,
    )


def _parity_ok(result: _StreamResult) -> bool:
    """Post-failure waves must match the fresh single-process scorer.

    The closing wave of every script runs on a fully healed (or fully
    rolled-over) tier, so each of its rankings must be bitwise-equal to
    :class:`~repro.landmarks.ApproximateRecommender` over the same
    final graph and index.
    """
    single = ApproximateRecommender(
        result.final_graph,
        SimilarityMatrix.from_taxonomy(web_taxonomy()),
        result.final_index, params=_PARAMS)
    users = [entry[1] for entry in result.transcript
             if entry[0] in ("steady", "recovered", "rolled-over")
             and len(entry) == 5]
    expected = [single.recommend(user, _TOPIC, top_n=10).pairs()
                for user in users]
    return expected == result.final_pairs


def run_cell(spec: CellSpec) -> CellVerdict:
    """Run one matrix cell twice, check parity; verdict."""
    first = _run_stream(spec)
    second = _run_stream(spec)

    digest = _digest(first.transcript)
    deterministic = digest == _digest(second.transcript)
    stale_errors = first.stale_errors + second.stale_errors
    parity = _parity_ok(first)

    reasons: List[str] = []
    if stale_errors:
        reasons.append(f"{stale_errors} StaleSnapshotError(s) reached "
                       "clients")
    if not deterministic:
        reasons.append("ranking stream differs between identical seeded "
                       "runs")
    if not parity:
        reasons.append("post-failure wave lost bitwise parity with the "
                       "single-process scorer")
    if spec.replicas >= 2 and first.degraded:
        reasons.append(f"{first.degraded} degraded response(s) despite "
                       f"replicas={spec.replicas}")
    if spec.replicas == 1 and spec.failure == "down-replica" \
            and not first.degraded:
        reasons.append("R=1 down-replica cell degraded nothing — the "
                       "injection did not bite")

    return CellVerdict(
        spec=spec,
        digest=digest,
        deterministic=deterministic,
        stale_errors=stale_errors,
        responses=len(first.transcript),
        degraded_responses=first.degraded,
        hedges_sent=first.hedges_sent,
        hedges_won=first.hedges_won,
        parity_ok=parity,
        passed=not reasons,
        reasons=reasons,
    )


def run_matrix(replicas: Sequence[int] = (1, 2, 3),
               failures: Sequence[str] = FAILURES,
               seed: int = 7) -> List[CellVerdict]:
    """Run the full (or a sliced) chaos matrix."""
    return [run_cell(CellSpec(replicas=r, failure=failure, seed=seed))
            for r in replicas for failure in failures]


def render_markdown(verdicts: Sequence[CellVerdict]) -> str:
    """GitHub-flavoured summary table (for ``$GITHUB_STEP_SUMMARY``)."""
    lines = [
        "### Chaos matrix",
        "",
        "| cell | det | stale | degraded | hedges (won) | parity "
        "| verdict |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for verdict in verdicts:
        mark = "✅" if verdict.passed else "❌"
        lines.append(
            f"| `{verdict.spec.name}` "
            f"| {'yes' if verdict.deterministic else 'NO'} "
            f"| {verdict.stale_errors} "
            f"| {verdict.degraded_responses} "
            f"| {verdict.hedges_sent} ({verdict.hedges_won}) "
            f"| {'yes' if verdict.parity_ok else 'NO'} "
            f"| {mark} |")
    failed = [v for v in verdicts if not v.passed]
    if failed:
        lines.append("")
        for verdict in failed:
            for reason in verdict.reasons:
                lines.append(f"- **{verdict.spec.name}**: {reason}")
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: run one cell (or the matrix), emit verdicts."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="seeded fault-injection verdicts for the sharded tier")
    parser.add_argument("--replicas", type=int, default=2,
                        help="replication factor of the cell")
    parser.add_argument("--failure", choices=FAILURES, default="none",
                        help="failure mode to inject")
    parser.add_argument("--seed", type=int, default=7,
                        help="master seed for world, channel, and churn")
    parser.add_argument("--all", action="store_true",
                        help="run the full {1,2,3} x failures matrix "
                             "instead of one cell")
    parser.add_argument("--json", metavar="PATH",
                        help="write the verdict list as a JSON artifact")
    parser.add_argument("--markdown", metavar="PATH",
                        help="write the markdown summary table "
                             "(use - for stdout)")
    args = parser.parse_args(argv)

    if args.all:
        verdicts = run_matrix(seed=args.seed)
    else:
        verdicts = [run_cell(CellSpec(replicas=args.replicas,
                                      failure=args.failure,
                                      seed=args.seed))]

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump([v.to_dict() for v in verdicts], handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
    markdown = render_markdown(verdicts)
    if args.markdown == "-":
        print(markdown)
    elif args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(markdown)

    for verdict in verdicts:
        status = "PASS" if verdict.passed else "FAIL"
        print(f"{status} {verdict.spec.name}: "
              f"responses={verdict.responses} "
              f"stale={verdict.stale_errors} "
              f"degraded={verdict.degraded_responses} "
              f"hedges={verdict.hedges_sent}/{verdict.hedges_won}")
        for reason in verdict.reasons:
            print(f"  - {reason}", file=sys.stderr)
    return 0 if all(v.passed for v in verdicts) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
