"""Extension bench — how the landmark gain scales with graph size.

The paper reports a 2–3 order of magnitude gain on a 2.2M-node graph;
this reproduction measures tens-of-times gains on thousands of nodes.
The claim connecting the two (EXPERIMENTS.md) is that the gain grows
with graph size: exact propagation touches the whole reachable set,
while the approximate query's cost is bounded by the depth-2 vicinity
plus landmark-list size. This bench verifies that trend on a size
sweep.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import write_result

from repro.config import LandmarkParams, ScoreParams
from repro.core.exact import single_source_scores
from repro.datasets import generate_twitter_graph
from repro.datasets.streaming import generate_twitter_snapshot_stream
from repro.datasets.twitter import TwitterConfig
from repro.graph.storage import read_header
from repro.landmarks import (
    ApproximateRecommender,
    LandmarkIndex,
    select_landmarks,
)
from repro.obs.clock import Stopwatch

TOPIC = "technology"
SIZES = (1000, 2000, 4000)
PARAMS = ScoreParams(beta=0.0005, alpha=0.85)
NUM_LANDMARKS = 30
NUM_QUERIES = 6

#: The out-of-core run: 1M nodes / ~10M edges unless scaled down via
#: REPRO_BENCH_SCALE_NODES (CI-sized machines finish the default in a
#: few minutes; the edge budget tracks nodes × 10).
SCALE_NODES = int(os.environ.get("REPRO_BENCH_SCALE_NODES", "1000000"))


def test_ext_gain_scales_with_graph_size(benchmark, web_sim):
    def run():
        rows = {}
        for size in SIZES:
            graph = generate_twitter_graph(size, seed=size)
            landmarks = select_landmarks(graph, "In-Deg", NUM_LANDMARKS,
                                         rng=1)
            index = LandmarkIndex.build(
                graph, landmarks, [TOPIC], web_sim, params=PARAMS,
                landmark_params=LandmarkParams(
                    num_landmarks=NUM_LANDMARKS, top_n=200))
            recommender = ApproximateRecommender(graph, web_sim, index)
            queries = [n for n in graph.nodes()
                       if graph.out_degree(n) >= 3
                       and n not in set(landmarks)][:NUM_QUERIES]
            approx_watch, exact_watch = Stopwatch(), Stopwatch()
            for query in queries:
                with approx_watch:
                    recommender.query(query, TOPIC)
                with exact_watch:
                    single_source_scores(graph, query, [TOPIC], web_sim,
                                         params=PARAMS)
            rows[size] = (exact_watch.mean_lap, approx_watch.mean_lap,
                          exact_watch.elapsed / approx_watch.elapsed)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["Extension — landmark gain vs graph size "
             f"({NUM_LANDMARKS} landmarks, depth-2 queries)",
             f"  {'nodes':>7s} {'exact (s)':>10s} {'approx (s)':>11s} "
             f"{'gain':>7s}"]
    for size in SIZES:
        exact_s, approx_s, gain = rows[size]
        lines.append(f"  {size:>7d} {exact_s:10.4f} {approx_s:11.4f} "
                     f"{gain:7.1f}")
    write_result("ext_scaling_gain", "\n".join(lines) + "\n")

    # The gain grows with graph size (the bridge to the paper's
    # 2-3 orders of magnitude at 2.2M nodes).
    gains = [rows[size][2] for size in SIZES]
    assert gains[-1] > gains[0]
    # Exact cost grows super-linearly in reach; approximate stays flat-ish.
    assert rows[SIZES[-1]][0] > rows[SIZES[0]][0]


#: Runs in a fresh process so its peak RSS measures the *serving*
#: footprint alone: open the snapshot mmap-backed, build a sampled
#: (Random-strategy, depth-capped, dict-engine) landmark index, answer
#: queries, and report ru_maxrss.
_SERVE_SCRIPT = """
import json, resource, sys
from repro.config import LandmarkParams, ScoreParams
from repro.graph import open_snapshot
from repro.landmarks import (ApproximateRecommender, LandmarkIndex,
                             select_landmarks)
from repro.obs.clock import Stopwatch
from repro.semantics import SimilarityMatrix, web_taxonomy


def peak_rss_bytes():
    # VmHWM, not ru_maxrss: the rusage high-water mark survives
    # execve, so a child forked from a fat parent (pytest after the
    # generation phase) would inherit a peak it never touched.
    # clear_refs resets VmHWM; ru_maxrss stays as the fallback on
    # kernels without it.
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


try:
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")
except OSError:
    pass

path, topic, store = sys.argv[1], sys.argv[2], sys.argv[3]
snapshot = open_snapshot(path, store=store)
web_sim = SimilarityMatrix.from_taxonomy(web_taxonomy())
params = ScoreParams(beta=0.0005, alpha=0.85)
landmark_params = LandmarkParams(num_landmarks=16, top_n=50,
                                 precompute_depth=2)

build_watch = Stopwatch()
with build_watch:
    landmarks = select_landmarks(snapshot, "Random",
                                 landmark_params.num_landmarks, rng=9)
    index = LandmarkIndex.build(
        snapshot, landmarks, [topic], web_sim, params=params,
        landmark_params=landmark_params, engine="dict")

recommender = ApproximateRecommender(snapshot, web_sim, index)
excluded = set(landmarks)
queries = [q for q in range(0, snapshot.num_nodes,
                            max(snapshot.num_nodes // 200, 1))
           if snapshot.out_degree(q) >= 2 and q not in excluded][:20]
query_watch = Stopwatch()
for query in queries:
    with query_watch:
        recommender.recommend(query, topic, top_n=10)

print(json.dumps({
    "peak_rss_bytes": peak_rss_bytes(),
    "build_seconds": build_watch.elapsed,
    "queries": len(queries),
    "query_mean_seconds": query_watch.mean_lap,
}))
"""


@pytest.mark.slow
def test_ext_million_node_graph_served_out_of_core(tmp_path_factory):
    """1M nodes / ~10M edges generated, snapshotted, landmark-built,
    and served on one machine — with the serving process's peak RSS
    bounded well below the in-RAM equivalent of the arrays."""
    path = tmp_path_factory.mktemp("ext_scale") / "million"

    generate_watch = Stopwatch()
    with generate_watch:
        stats = generate_twitter_snapshot_stream(
            path, SCALE_NODES, seed=7,
            config=TwitterConfig(avg_out_degree=10.0))
    header = read_header(path)
    in_ram_bytes = header.total_bytes()
    assert stats.num_edges >= 9 * SCALE_NODES  # the ~10x edge budget

    src = Path(__file__).resolve().parents[1] / "src"
    serve = {}
    for store in ("mmap", "ram"):
        result = subprocess.run(
            [sys.executable, "-c", _SERVE_SCRIPT, str(path), TOPIC, store],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(src)))
        serve[store] = json.loads(result.stdout)

    mmap_serve, ram_serve = serve["mmap"], serve["ram"]
    lines = ["Extension — out-of-core scale "
             f"({SCALE_NODES} nodes, {stats.num_edges} edges)",
             f"  generate (stream)      {generate_watch.elapsed:9.1f} s",
             f"  landmark build (16)    {mmap_serve['build_seconds']:9.1f} s",
             f"  query mean (mmap)      "
             f"{mmap_serve['query_mean_seconds']*1e3:9.2f} ms"
             f"  ({mmap_serve['queries']} queries)",
             f"  query mean (ram)       "
             f"{ram_serve['query_mean_seconds']*1e3:9.2f} ms",
             f"  array bytes (disk)     {in_ram_bytes/2**20:8.1f}  MiB",
             f"  serve peak RSS (ram)   "
             f"{ram_serve['peak_rss_bytes']/2**20:8.1f}  MiB",
             f"  serve peak RSS (mmap)  "
             f"{mmap_serve['peak_rss_bytes']/2**20:8.1f}  MiB"]
    write_result("ext_scaling_out_of_core", "\n".join(lines) + "\n")

    assert mmap_serve["queries"] >= 10
    assert mmap_serve["queries"] == ram_serve["queries"]
    # The acceptance bar: the mmap-backed serving process must not
    # inherit the in-RAM footprint. The ram-backed twin (same work,
    # arrays loaded eagerly) is the measured in-RAM equivalent; it
    # must at least materialise the arrays, and the mmap path must
    # stay well below it.
    if SCALE_NODES >= 500_000:
        assert ram_serve["peak_rss_bytes"] > in_ram_bytes
        assert mmap_serve["peak_rss_bytes"] \
            < 0.7 * ram_serve["peak_rss_bytes"]
