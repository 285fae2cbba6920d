#!/usr/bin/env python
"""Guard: a ``perfbench/run.py`` report must be correct with 0 failed.

``perfbench/run.py`` ends its report with one JSON line carrying
``"correct"`` (every built-in check held: sharded answers equal
``ApproximateRecommender``, the drained ingest index equals a rebuild,
mmap equals RAM bitwise, work counts repeat) and ``"failed"`` (failed
operations). This script reads a report on stdin and exits non-zero
unless that line says ``"correct": true`` and ``"failed": 0``.
Timings in the report are ignored.

Usage::

    python perfbench/run.py --workload boot-mmap --seed 1 --seconds 2 \\
        --trace 0 | python scripts/check_perfbench.py

Stdlib only, no repro import.
"""

from __future__ import annotations

import json
import sys
from typing import Optional


def verdict(report: str) -> Optional[str]:
    """``None`` when *report*'s last line is correct with 0 failed."""
    lines = [line for line in report.splitlines() if line.strip()]
    if not lines:
        return "empty report"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return f"last line is not JSON: {lines[-1][:200]!r}"
    if not isinstance(result, dict):
        return f"last line is not a JSON object: {lines[-1][:200]!r}"
    if result.get("correct") is not True:
        return f"correct={result.get('correct')!r}"
    if result.get("failed") != 0:
        return f"failed={result.get('failed')!r}"
    return None


def main() -> int:
    report = sys.stdin.read()
    sys.stdout.write(report)
    problem = verdict(report)
    if problem is not None:
        print(f"check_perfbench: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
