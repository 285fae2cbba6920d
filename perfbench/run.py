#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload read-zipf --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with every layer running
untouched (``repro.obs`` disabled, nothing wrapped). ``--trace 1`` is a
separate run that wraps the layers' public calls from the benchmark's
own files (see ``tracing.py``) and reports the per-layer metrics. The
metric names and units come from ``BENCHMARK.json``.

Stdout carries a human-readable report (per-phase failure accounting,
correctness checks, exact work counts, every metric with its sample
count); the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout the benchmark
sits in; without it the command exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (listed in .gitignore).
WORK = ROOT / ".bench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["read-zipf", "ingest-mixed", "boot-mmap"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def load_program():
    """Import ``repro`` from this checkout's ``src/``, nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    from repro.obs import runtime
    runtime.disable()


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        load_program()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    from measure import check_work_counts, source_digest
    from tracing import Tracer
    from workloads import KNOBS, WORKLOADS

    tracer = Tracer() if args.trace else None
    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = WORKLOADS[args.workload](work_dir, args.seed,
                                           args.seconds, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    checks = list(outcome.checks)
    pinned = KNOBS[args.workload]["pinned"]
    if tracer is not None:
        # Counted from the traced vectors_from_entries calls.
        outcome.work["vector_builds"] = len(tracer.by_name(
            "landmarks.query_engine.vector_build", pinned))
    key = (f"{args.workload}|seed={args.seed}|src={source_digest(SRC)}|"
           f"bench={source_digest(HERE)}|"
           f"knobs={json.dumps(KNOBS[args.workload], sort_keys=True)}")
    drift = check_work_counts(WORK / "workcounts.json", key, outcome.work)
    checks.append(("work counts repeat at this seed and source",
                   "; ".join(drift) if drift else None))

    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for line in outcome.report:
        print(f"  {line}")
    for phase in outcome.phases:
        print(f"  phase {phase.describe()}")
    print("  work counts (pinned prefix): " + " ".join(
        f"{name}={value}" for name, value in sorted(outcome.work.items())))

    if tracer is not None:
        trace_path = WORK / "traces" / f"{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"  spans: {len(tracer.spans)} written to "
              f"{trace_path.relative_to(ROOT)}")
        for root in ("distributed.sharded.serve", "ingest.pipeline.compact"):
            rows = tracer.attribution(root)
            total = sum(seconds for _, _, seconds in rows)
            if not total:
                continue
            print(f"  attribution of {root} (direct children):")
            for name, calls, seconds in rows:
                print(f"    {name:48s} calls={calls:7d} "
                      f"{seconds * 1e3:11.3f}ms {seconds / total:7.2%}")

    for name, error in checks:
        print(f"  check {'ok  ' if error is None else 'FAIL'} {name}"
              + ("" if error is None else f": {error}"))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = outcome.layer if args.trace else outcome.e2e
    metrics = {}
    for metric in wanted:
        value = float(source[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']} = {value!r} {metric['unit']}")

    measured = [phase for phase in outcome.phases if phase.name != "setup"]
    print(json.dumps({
        "correct": all(error is None for _, error in checks),
        "attempted": sum(phase.attempted for phase in measured),
        "failed": sum(phase.failed for phase in measured),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
