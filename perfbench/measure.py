"""Measurement helpers shared by the workloads: percentiles, memory,
per-phase failure accounting, the closed-loop load generator and the
work-count ledger that flags drift between runs of the same code and
seed."""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

clock = time.perf_counter


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q*n)``-th smallest sample."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(max(math.ceil(q * len(ordered)) - 1, 0), len(ordered) - 1)
    return ordered[rank]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


#: Samples per block of the blocked p99 (see :meth:`Timing.p99_ms`).
#: A whole number of each workload's periods, so that every block holds
#: the same mix of cold and warm reads: one boot's read phase on
#: ``boot-mmap`` (512 reads) and two compaction cycles on
#: ``ingest-mixed`` (64 events x 4 reads each).
P99_BLOCK = 512


@dataclass
class Timing:
    """Latency samples of one operation kind, in seconds."""

    samples: List[float] = field(default_factory=list)

    def add(self, seconds: float) -> None:
        self.samples.append(seconds)

    def p50_ms(self) -> float:
        return nearest_rank(self.samples, 0.50) * 1e3

    def p99_blocks(self) -> List[List[float]]:
        """Consecutive whole blocks of :data:`P99_BLOCK` samples (all
        samples as one block when there are fewer)."""
        n = len(self.samples)
        if n < P99_BLOCK:
            return [self.samples]
        return [self.samples[i:i + P99_BLOCK]
                for i in range(0, n - P99_BLOCK + 1, P99_BLOCK)]

    def p99_ms(self) -> float:
        """Median over consecutive blocks of each block's p99.

        A burst of host noise then moves one block's p99, not the
        figure, while a slowdown that recurs in every block (such as
        the cold reads after each epoch flip) still moves it.
        """
        return median([nearest_rank(block, 0.99)
                       for block in self.p99_blocks()]) * 1e3

    def per_second(self) -> float:
        """Operations per second of time spent inside the operation."""
        busy = math.fsum(self.samples)
        return len(self.samples) / busy if busy > 0.0 else 0.0

    def describe(self) -> str:
        return (f"n={len(self.samples)} p50={self.p50_ms():.4f}ms "
                f"p99={self.p99_ms():.4f}ms "
                f"(median of {len(self.p99_blocks())} block p99s)")


@dataclass
class Phase:
    """Attempted / succeeded / failed operations of one benchmark phase.

    ``skipped`` counts ingest events the program acknowledged as no-ops
    (an unfollow or retopic of an edge that no longer exists). They are
    included in ``succeeded`` and are never failures.
    """

    name: str
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    skipped: int = 0
    errors: Dict[str, int] = field(default_factory=dict)

    def ok(self) -> None:
        self.attempted += 1
        self.succeeded += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors[reason] = self.errors.get(reason, 0) + 1

    def describe(self) -> str:
        text = (f"{self.name}: attempted={self.attempted} "
                f"succeeded={self.succeeded} failed={self.failed}")
        if self.skipped:
            text += f" skipped_noop={self.skipped}"
        if self.errors:
            text += f" errors={self.errors}"
        return text


def peak_rss_reset() -> bool:
    """Reset the kernel's resident-set high-water mark of this process.

    Lets ``peak_rss_mib`` cover only the measured window, not the input
    generation and set-up before it. Returns False where the kernel
    does not offer the reset; the peak then covers the whole process.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mib() -> float:
    """High-water resident set size of this process, MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ClosedLoop:
    """One client, one operation at a time, for a fixed wall-clock span.

    Operations ``0 .. pinned-1`` always run, however long they take:
    they are the fixed prefix whose work counts must repeat exactly.
    After the prefix the loop keeps issuing operations until
    ``seconds`` have passed since it started.

    With a tracer, the prefix is traced, and afterwards blocks alternate
    traced / untraced (at least one of each completes), so one run
    yields per-layer spans and an untraced twin of the same phase to
    price the tracing overhead. A block ends after ``block`` operations
    or, with ``block=None``, when an operation calls :meth:`end_block`.
    """

    def __init__(self, seconds: float, pinned: int, tracer=None,
                 block: Optional[int] = 1,
                 limit: Optional[int] = None) -> None:
        self.seconds = seconds
        self.pinned = pinned
        self.tracer = tracer
        self.block = block
        self.limit = limit
        self.operations = 0
        self.elapsed = 0.0
        #: The block after the prefix continues its tracing.
        self.block_traced = True
        self._ending = False
        self._in_block = 0
        self._completed = [0, 0]  # untraced, traced blocks

    def end_block(self) -> None:
        """End the current block once the running operation returns."""
        self._ending = True

    def _blocks_done(self) -> bool:
        return self.tracer is None or min(self._completed) >= 1

    def run(self, op: Callable[[int, bool], None]) -> None:
        start = clock()
        end = start + self.seconds
        i = 0
        while self.limit is None or i < self.limit:
            if i >= self.pinned and self._blocks_done() and clock() >= end:
                break
            traced = self.tracer is not None and (i < self.pinned
                                                  or self.block_traced)
            if self.tracer is not None:
                self.tracer.activate(traced, request_id=i)
            self._ending = False
            op(i, traced)
            if i >= self.pinned:
                self._in_block += 1
                if self._ending or (self.block is not None
                                    and self._in_block >= self.block):
                    self._completed[self.block_traced] += 1
                    self.block_traced = not self.block_traced
                    self._in_block = 0
            i += 1
        if self.tracer is not None:
            self.tracer.activate(False)
        self.operations = i
        self.elapsed = clock() - start


def source_digest(src: Path) -> str:
    """Content hash of the Python files under *src*."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_work_counts(ledger: Path, key: str,
                      counts: Dict[str, int]) -> List[str]:
    """Compare *counts* with the ones recorded under *key*; record them.

    The key names the workload, its knobs, the seed and the source
    digests of the program and of the benchmark, so any difference is
    drift: the same code on the same inputs did a different amount of
    work. Counts only one kind of run reports (vector builds come from
    traced spans) are added to the record when first seen. Returns one
    line per drifted count (empty when the counts agree or are new).
    """
    ledger.parent.mkdir(parents=True, exist_ok=True)
    recorded: Dict[str, Dict[str, int]] = {}
    if ledger.exists():
        recorded = json.loads(ledger.read_text(encoding="utf-8"))
    previous = recorded.get(key, {})
    drift = [f"{name}: recorded {previous[name]} now {counts[name]}"
             for name in sorted(set(previous) & set(counts))
             if previous[name] != counts[name]]
    if not drift and not set(counts) <= set(previous):
        recorded[key] = {**counts, **previous}
        tmp = ledger.with_suffix(".tmp")
        tmp.write_text(json.dumps(recorded, indent=1, sort_keys=True),
                       encoding="utf-8")
        tmp.replace(ledger)
    return drift
