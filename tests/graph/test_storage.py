"""The on-disk snapshot format and the ArrayStore seam.

Round-trips through ``save_snapshot`` / ``open_snapshot``, bitwise
parity between the ``ram`` and ``mmap`` backends, rejection of
corrupted directories, and pickling a mmap-backed snapshot across a
real process boundary.
"""

import json
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import LandmarkParams, ScoreParams
from repro.core.fast import scipy_available
from repro.datasets import generate_twitter_graph
from repro.errors import SnapshotFormatError
from repro.graph import (
    MmapArrayStore,
    RamArrayStore,
    open_array_store,
    open_snapshot,
    save_snapshot,
    verify_snapshot,
)
from repro.graph.builders import graph_from_edges
from repro.graph.storage import ARRAY_NAMES, read_header
from repro.landmarks import (
    ApproximateRecommender,
    LandmarkIndex,
    select_landmarks,
)

TOPIC = "technology"
# The sparse bulk engine needs scipy; the no-scipy leg runs the dict one.
BULK_ENGINES = ["dict", pytest.param("sparse", marks=pytest.mark.skipif(
    not scipy_available(), reason="scipy not installed"))]


@pytest.fixture(scope="module")
def medium_graph():
    return generate_twitter_graph(400, seed=11)


@pytest.fixture(scope="module")
def snapshot_dir(medium_graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("snap") / "twitter400"
    save_snapshot(medium_graph.snapshot(), path)
    return path


def _array_names():
    return list(ARRAY_NAMES)


class TestRoundTrip:
    @pytest.mark.parametrize("store", ["ram", "mmap"])
    def test_arrays_bitwise_identical(self, medium_graph, snapshot_dir,
                                      store):
        original = medium_graph.snapshot()
        loaded = open_snapshot(snapshot_dir, store=store, verify=True)
        for name in ("out_indptr", "out_indices", "out_label_ids",
                     "in_indptr", "in_indices", "in_label_ids"):
            np.testing.assert_array_equal(getattr(loaded, name),
                                          getattr(original, name))
        assert loaded.epoch == original.epoch
        assert loaded.num_nodes == original.num_nodes
        assert loaded.num_edges == original.num_edges
        assert loaded.topic_list == original.topic_list
        assert tuple(loaded.labels) == tuple(original.labels)

    @pytest.mark.parametrize("store", ["ram", "mmap"])
    def test_derived_views_match(self, medium_graph, snapshot_dir, store):
        original = medium_graph.snapshot()
        loaded = open_snapshot(snapshot_dir, store=store)
        assert list(loaded.node_ids) == list(original.node_ids)
        for node in range(0, original.num_nodes, 37):
            assert loaded.position[node] == original.position[node]
            assert loaded.profiles[node] == original.profiles[node]
        for topic in sorted(original.topics()):
            assert (loaded.max_followers_on(topic)
                    == original.max_followers_on(topic))

    def test_store_backend_and_bytes_resident(self, medium_graph,
                                              snapshot_dir):
        built = medium_graph.snapshot()
        assert built.store_backend == "ram"
        assert built.bytes_resident > 0
        ram = open_snapshot(snapshot_dir, store="ram")
        assert ram.store_backend == "ram"
        assert ram.bytes_resident == read_header(snapshot_dir).total_bytes()
        mapped = open_snapshot(snapshot_dir, store="mmap")
        assert mapped.store_backend == "mmap"
        assert mapped.bytes_resident == 0  # pages belong to the kernel

    def test_header_reports_geometry(self, medium_graph, snapshot_dir):
        header = read_header(snapshot_dir)
        assert header.num_nodes == medium_graph.num_nodes
        assert header.num_edges == medium_graph.num_edges
        assert header.contiguous_ids
        assert header.total_bytes() == sum(
            sorted(spec.nbytes for spec in header.arrays.values()))

    def test_save_returns_header_matching_disk(self, medium_graph,
                                               tmp_path):
        header = save_snapshot(medium_graph.snapshot(), tmp_path / "s")
        assert header.to_json() == read_header(tmp_path / "s").to_json()

    def test_non_contiguous_ids_round_trip(self, tmp_path):
        graph = graph_from_edges(
            [(10, 99, ["technology"]), (99, 7, ["food"]),
             (7, 10, ["technology"])],
            node_topics={10: ["technology"], 7: ["food"]})
        save_snapshot(graph.snapshot(), tmp_path / "sparse_ids")
        loaded = open_snapshot(tmp_path / "sparse_ids", store="ram")
        original = graph.snapshot()
        assert not read_header(tmp_path / "sparse_ids").contiguous_ids
        assert list(loaded.node_ids) == list(original.node_ids)
        assert loaded.position == dict(original.position)
        assert dict(loaded.out_neighbors(99)) \
            == dict(original.out_neighbors(99))

    def test_empty_graph_round_trips(self, tmp_path):
        graph = graph_from_edges([], node_topics={0: ["technology"]})
        save_snapshot(graph.snapshot(), tmp_path / "tiny")
        loaded = open_snapshot(tmp_path / "tiny", store="mmap",
                               verify=True)
        assert loaded.num_nodes == 1
        assert loaded.num_edges == 0


class TestRankingParity:
    @pytest.mark.parametrize("engine", BULK_ENGINES)
    def test_ram_and_mmap_rankings_bitwise_identical(
            self, medium_graph, snapshot_dir, web_sim, engine):
        """*engine* is the bulk engine that built the index; both
        backends must also match the dict oracle."""
        from tests.oracles import approximate_ranking

        params = ScoreParams(beta=0.01, alpha=0.85)
        original = medium_graph.snapshot()
        landmarks = select_landmarks(original, "In-Deg", 12, rng=3)
        index = LandmarkIndex.build(
            original, landmarks, [TOPIC], web_sim, params=params,
            landmark_params=LandmarkParams(num_landmarks=12, top_n=50),
            engine=engine)
        queries = [n for n in original.nodes()
                   if original.out_degree(n) >= 2
                   and n not in set(landmarks)][:5]

        results = {}
        for store in ("ram", "mmap"):
            snapshot = open_snapshot(snapshot_dir, store=store)
            recommender = ApproximateRecommender(snapshot, web_sim, index)
            results[store] = [recommender.recommend(q, TOPIC, top_n=10)
                              for q in queries]
        assert results["ram"] == results["mmap"]
        assert [result.pairs() for result in results["mmap"]] == [
            approximate_ranking(original, web_sim, index, q, TOPIC)
            for q in queries]

    def test_loaded_matches_rebuilt(self, medium_graph, snapshot_dir,
                                    web_sim):
        params = ScoreParams(beta=0.01, alpha=0.85)
        original = medium_graph.snapshot()
        landmarks = select_landmarks(original, "In-Deg", 12, rng=3)
        index = LandmarkIndex.build(
            original, landmarks, [TOPIC], web_sim, params=params,
            landmark_params=LandmarkParams(num_landmarks=12, top_n=50))
        query = next(n for n in original.nodes()
                     if original.out_degree(n) >= 2
                     and n not in set(landmarks))
        baseline = ApproximateRecommender(
            original, web_sim, index).recommend(query, TOPIC, top_n=10)
        loaded = open_snapshot(snapshot_dir, store="mmap")
        assert ApproximateRecommender(
            loaded, web_sim, index).recommend(query, TOPIC, top_n=10) \
            == baseline


class TestRejection:
    def test_missing_header_raises(self, tmp_path):
        (tmp_path / "node_ids.bin").write_bytes(b"\0" * 8)
        with pytest.raises(SnapshotFormatError, match="header"):
            open_snapshot(tmp_path)

    def test_corrupted_header_json_raises(self, snapshot_dir, tmp_path):
        broken = tmp_path / "broken"
        _copy_snapshot(snapshot_dir, broken)
        (broken / "header.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(SnapshotFormatError):
            open_snapshot(broken)

    def test_wrong_format_tag_raises(self, snapshot_dir, tmp_path):
        broken = tmp_path / "fmt"
        _copy_snapshot(snapshot_dir, broken)
        _edit_header(broken, format="not-a-snapshot")
        with pytest.raises(SnapshotFormatError, match="format"):
            open_snapshot(broken)

    def test_future_version_raises(self, snapshot_dir, tmp_path):
        broken = tmp_path / "ver"
        _copy_snapshot(snapshot_dir, broken)
        _edit_header(broken, version=999)
        with pytest.raises(SnapshotFormatError, match="version"):
            open_snapshot(broken)

    def test_dtype_mismatch_raises(self, snapshot_dir, tmp_path):
        broken = tmp_path / "dtype"
        _copy_snapshot(snapshot_dir, broken)
        header = json.loads((broken / "header.json").read_text())
        header["arrays"]["out_indices"]["dtype"] = "<f4"
        (broken / "header.json").write_text(json.dumps(header))
        with pytest.raises(SnapshotFormatError, match="dtype"):
            open_snapshot(broken)

    def test_truncated_array_raises(self, snapshot_dir, tmp_path):
        broken = tmp_path / "trunc"
        _copy_snapshot(snapshot_dir, broken)
        data = (broken / "out_indices.bin").read_bytes()
        (broken / "out_indices.bin").write_bytes(data[:-8])
        with pytest.raises(SnapshotFormatError):
            open_snapshot(broken)

    def test_flipped_byte_fails_verification(self, snapshot_dir,
                                             tmp_path):
        broken = tmp_path / "crc"
        _copy_snapshot(snapshot_dir, broken)
        data = bytearray((broken / "in_indices.bin").read_bytes())
        data[0] ^= 0xFF
        (broken / "in_indices.bin").write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="checksum"):
            verify_snapshot(broken)
        # ...but a non-verifying open stays cheap and succeeds.
        open_snapshot(broken, store="mmap")

    def test_missing_array_entry_raises(self, snapshot_dir, tmp_path):
        broken = tmp_path / "missing"
        _copy_snapshot(snapshot_dir, broken)
        header = json.loads((broken / "header.json").read_text())
        del header["arrays"]["fol_counts"]
        (broken / "header.json").write_text(json.dumps(header))
        with pytest.raises(SnapshotFormatError):
            open_snapshot(broken)

    def test_unknown_backend_raises(self, snapshot_dir):
        with pytest.raises(SnapshotFormatError, match="backend"):
            open_array_store(snapshot_dir, backend="tape")


class TestStores:
    def test_ram_store_loads_every_array(self, snapshot_dir):
        store = RamArrayStore(snapshot_dir, read_header(snapshot_dir))
        for name in _array_names():
            array = store.get(name)
            assert array.dtype == np.int64
            assert not isinstance(array, np.memmap)
        assert store.bytes_resident() == store.header.total_bytes()

    def test_mmap_store_lazily_maps(self, snapshot_dir):
        store = MmapArrayStore(snapshot_dir, read_header(snapshot_dir))
        assert store.bytes_resident() == 0
        mapped = store.get("out_indices")
        assert isinstance(mapped, np.memmap)
        assert store.get("out_indices") is mapped  # cached per name
        ram = RamArrayStore(snapshot_dir, read_header(snapshot_dir))
        for name in _array_names():
            np.testing.assert_array_equal(store.get(name), ram.get(name))

    def test_open_array_store_dispatch(self, snapshot_dir):
        assert open_array_store(snapshot_dir, backend="ram").backend \
            == "ram"
        assert open_array_store(snapshot_dir).backend == "mmap"


class TestPickling:
    def test_mmap_snapshot_pickles_by_path(self, snapshot_dir):
        snapshot = open_snapshot(snapshot_dir, store="mmap")
        payload = pickle.dumps(snapshot)
        # The pickle carries the directory path, not the arrays.
        assert len(payload) < 4096
        clone = pickle.loads(payload)
        assert clone.store_backend == "mmap"
        np.testing.assert_array_equal(clone.out_indices,
                                      snapshot.out_indices)

    def test_mmap_snapshot_crosses_process_boundary(self, snapshot_dir,
                                                    tmp_path):
        snapshot = open_snapshot(snapshot_dir, store="mmap")
        blob = tmp_path / "snapshot.pkl"
        blob.write_bytes(pickle.dumps(snapshot))
        script = (
            "import pickle, sys\n"
            "snapshot = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "print(snapshot.num_nodes, snapshot.num_edges,\n"
            "      int(snapshot.out_indices[:10].sum()),\n"
            "      snapshot.store_backend)\n")
        src = Path(__file__).resolve().parents[2] / "src"
        result = subprocess.run(
            [sys.executable, "-c", script, str(blob)],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
        nodes, edges, head, backend = result.stdout.split()
        assert int(nodes) == snapshot.num_nodes
        assert int(edges) == snapshot.num_edges
        assert int(head) == int(snapshot.out_indices[:10].sum())
        assert backend == "mmap"

    def test_ram_loaded_snapshot_still_pickles(self, snapshot_dir):
        snapshot = open_snapshot(snapshot_dir, store="ram")
        clone = pickle.loads(pickle.dumps(snapshot))
        np.testing.assert_array_equal(clone.in_indptr, snapshot.in_indptr)


class TestObservability:
    def test_open_emits_span_and_gauges(self, snapshot_dir):
        from repro.obs import runtime as rt
        was_enabled = rt.is_enabled()
        rt.enable(reset=True)
        try:
            open_snapshot(snapshot_dir, store="mmap")
            snap = rt.snapshot()
        finally:
            if not was_enabled:
                rt.disable()
        assert snap["gauges"]["snapshot.store_backend"] == 1.0
        assert snap["gauges"]["snapshot.bytes_resident"] == 0.0
        assert "graph.snapshot_load" in snap["stages"]

    def test_save_emits_span(self, medium_graph, tmp_path):
        from repro.obs import runtime as rt
        was_enabled = rt.is_enabled()
        rt.enable(reset=True)
        try:
            save_snapshot(medium_graph.snapshot(), tmp_path / "obs")
            snap = rt.snapshot()
        finally:
            if not was_enabled:
                rt.disable()
        assert "graph.snapshot_save" in snap["stages"]


def _copy_snapshot(source: Path, dest: Path) -> None:
    dest.mkdir()
    for child in source.iterdir():
        (dest / child.name).write_bytes(child.read_bytes())


def _edit_header(path: Path, **fields) -> None:
    header = json.loads((path / "header.json").read_text())
    header.update(fields)
    (path / "header.json").write_text(json.dumps(header))
