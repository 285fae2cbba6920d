"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q

The sensitivity test is the case an absolute-threshold gate missed: a
2 ms delay in every depth-k explore must push ``serve_p50_ms`` on
``read-zipf`` past its bound, and must leave ``boot_s`` on
``boot-mmap`` (one explore per boot) within its bound.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

run.load_program()

import tracing  # noqa: E402  (needs the program on sys.path)
import workloads  # noqa: E402
from repro.distributed import sharded  # noqa: E402

BOUNDS = {metric["name"]: metric["bound"] for metric in json.loads(
    (run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}


@pytest.fixture
def work_dir():
    path = run.WORK / "test"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def one_setup(monkeypatch):
    # Set-up time is not under test here; one set-up keeps runs short.
    for knobs in workloads.KNOBS.values():
        monkeypatch.setitem(knobs, "setups", 1)


def delay_explore(monkeypatch, seconds: float = 0.002) -> None:
    explore = sharded.distributed_single_source_scores

    def slow(*args, **kwargs):
        time.sleep(seconds)
        return explore(*args, **kwargs)

    monkeypatch.setattr(sharded, "distributed_single_source_scores", slow)


def test_explore_delay_moves_read_zipf_p50(work_dir, one_setup,
                                           monkeypatch):
    base = workloads.read_zipf(work_dir, 3, 4.0, None)
    delay_explore(monkeypatch)
    slow = workloads.read_zipf(work_dir, 3, 4.0, None)
    ratio = slow.e2e["serve_p50_ms"] / base.e2e["serve_p50_ms"]
    assert ratio > 1.0 + BOUNDS["serve_p50_ms"], ratio
    assert all(error is None for _, error in slow.checks)


def test_explore_delay_leaves_boot_s(work_dir, one_setup, monkeypatch):
    base = workloads.boot_mmap(work_dir, 3, 10.0, None)
    delay_explore(monkeypatch)
    slow = workloads.boot_mmap(work_dir, 3, 10.0, None)
    ratio = slow.e2e["boot_s"] / base.e2e["boot_s"]
    assert ratio < 1.0 + BOUNDS["boot_s"], ratio
    # The read phase after each boot does see the delay.
    assert slow.e2e["serve_p50_ms"] > base.e2e["serve_p50_ms"] + 1.5


def test_work_counts_repeat_exactly(work_dir, one_setup):
    first = workloads.ingest_mixed(work_dir, 5, 0.5, None)
    second = workloads.ingest_mixed(work_dir, 5, 0.5, None)
    assert first.work == second.work
    assert first.work["compactions"] > 0
    assert first.work["reads"] > 0


def test_traced_ingest_times_writes_on_untraced_cycles(work_dir,
                                                        one_setup):
    outcome = workloads.ingest_mixed(work_dir, 5, 0.5, tracing.Tracer())
    for name in ("ingest_p50_ms", "ingest_p99_ms", "ingest_events_per_s",
                 "write_visible_p50_ms", "write_visible_p99_ms"):
        assert outcome.layer[name] > 0.0, name


def test_tracer_restores_program_and_attributes_self_time(work_dir,
                                                          one_setup):
    explore = sharded.distributed_single_source_scores
    serve = sharded.ShardedPlatform.__dict__["serve"]
    build = sharded.ShardedPlatform.__dict__["build"]
    tracer = tracing.Tracer()
    outcome = workloads.read_zipf(work_dir, 4, 0.5, tracer)
    assert sharded.distributed_single_source_scores is explore
    assert sharded.ShardedPlatform.__dict__["serve"] is serve
    assert sharded.ShardedPlatform.__dict__["build"] is build

    serves = tracer.by_name("distributed.sharded.serve")
    assert len(tracer.by_name("distributed.cluster.explore")) == len(serves)
    own = tracer.self_times()
    for i in serves:
        span = tracer.spans[i]
        children = sum(child[tracing.END] - child[tracing.START]
                       for child in tracer.spans
                       if child[tracing.PARENT] == i)
        assert own[i] == pytest.approx(
            span[tracing.END] - span[tracing.START] - children)
        assert own[i] >= 0.0
    # Tracing changes timings only, never the work done.
    assert workloads.read_zipf(work_dir, 4, 0.5, None).work == outcome.work


def test_refuses_to_run_without_program_source(work_dir):
    shutil.copy(run.ROOT / "BENCHMARK.json", work_dir / "BENCHMARK.json")
    shutil.copytree(run.HERE, work_dir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read-zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=work_dir, capture_output=True, text=True, timeout=180)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
