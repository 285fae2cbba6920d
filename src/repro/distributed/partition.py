"""Graph partitioners and partition-quality metrics.

Three strategies, matching the trade-offs the paper's future-work
paragraph names ("split the graph by taking into account
connectivity"):

- :func:`hash_partition` — the baseline every distributed system can
  do: balanced, connectivity-oblivious;
- :func:`range_partition` — contiguous slices of the snapshot's dense
  node index: balanced, and shard membership is one integer division,
  so a router needs no lookup table;
- :func:`greedy_partition` — Linear Deterministic Greedy (Stanton &
  Kliot): stream nodes, place each where it has the most neighbours,
  damped by a capacity penalty. Connectivity-aware, one pass;
- :func:`topic_partition` — exploit the labeled graph: co-locate
  accounts publishing on the same topics, since recommendation paths
  are topically homophilous.

Every partitioner reads one frozen :class:`~repro.graph.snapshot.GraphSnapshot`
(resolved from a live graph on entry), so an assignment is always
consistent with a single epoch even if the graph mutates concurrently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping

import numpy as np

from ..errors import ConfigurationError
from ..graph.snapshot import GraphLike, GraphSnapshot, as_snapshot
from ..graph.traversal import bfs_levels
from ..utils.rng import SeedLike, rng_from_seed

Assignment = Dict[int, int]


def _check_parts(snapshot: GraphSnapshot, num_parts: int) -> None:
    if num_parts < 1:
        raise ConfigurationError(f"num_parts must be >= 1, got {num_parts}")
    if snapshot.num_nodes == 0:
        raise ConfigurationError("cannot partition an empty graph")


def hash_partition(graph: GraphLike, num_parts: int) -> Assignment:
    """Node id modulo *num_parts* — balanced, cut-oblivious."""
    view = as_snapshot(graph, allow_stale=True)
    _check_parts(view, num_parts)
    return {node: node % num_parts for node in view.nodes()}


def range_partition(graph: GraphLike, num_parts: int) -> Assignment:
    """Contiguous ranges of the snapshot's dense node index.

    Node at snapshot position ``i`` (of ``n``) goes to partition
    ``min(i * num_parts // n, num_parts - 1)`` — balanced to within one
    node, and a router can locate any account from ``(position, n)``
    alone. This is the sharding scheme the roadmap earmarks for a
    distributed serving tier: each shard owns one contiguous slice of
    every snapshot array.

    Edge case: when ``num_parts > num_nodes``, exactly
    ``num_parts − num_nodes`` partitions receive *no* nodes (they are
    spread through the range, not necessarily trailing). The assignment
    is still valid (every node lands on a non-empty shard, and the
    division above never routes a real position to an empty one), but
    serving tiers must not treat empty shards as routable —
    :class:`~repro.distributed.sharded.ShardRouter` raises
    :class:`~repro.errors.ConfigurationError` if asked to route to one.
    """
    view = as_snapshot(graph, allow_stale=True)
    _check_parts(view, num_parts)
    n = view.num_nodes
    return {
        node: min(position * num_parts // n, num_parts - 1)
        for position, node in enumerate(view.node_ids)
    }


def partition_array(snapshot: GraphSnapshot,
                    assignment: Mapping[int, int]) -> np.ndarray:
    """Partition id per dense position of *snapshot*.

    The array form the message accounting of
    :func:`~repro.distributed.cluster.distributed_single_source_scores`
    reads. Built (and validated) once per snapshot, so an incomplete
    assignment fails here instead of mid-query.

    Raises:
        ConfigurationError: a node of the snapshot is unassigned, or
            assigned to something other than a non-negative int.
    """
    parts = np.empty(snapshot.num_nodes, dtype=np.int64)
    for position, node in enumerate(snapshot.node_ids):
        part = assignment.get(node)
        if (not isinstance(part, (int, np.integer))
                or isinstance(part, bool) or part < 0):
            raise ConfigurationError(
                f"node {node} has no valid partition (got {part!r}): "
                f"every node must be assigned to a non-negative int")
        parts[position] = part
    return parts


def greedy_partition(graph: GraphLike, num_parts: int,
                     seed: SeedLike = None) -> Assignment:
    """Linear Deterministic Greedy streaming partitioner.

    Nodes are streamed in randomized BFS order (so neighbourhoods
    arrive together); each node goes to the partition maximising
    ``|neighbours already there| · (1 − size/capacity)``.
    """
    view = as_snapshot(graph, allow_stale=True)
    _check_parts(view, num_parts)
    rng = rng_from_seed(seed)
    nodes = list(view.node_ids)
    capacity = max(1.0, 1.1 * len(nodes) / num_parts)

    # randomized BFS order over weak connectivity
    order: List[int] = []
    visited = set()
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    for start in shuffled:
        if start in visited:
            continue
        for node in bfs_levels(view, start, direction="out"):
            if node not in visited:
                visited.add(node)
                order.append(node)
        # also pull in pure-follower neighbourhoods
        for node in bfs_levels(view, start, direction="in"):
            if node not in visited:
                visited.add(node)
                order.append(node)

    assignment: Assignment = {}
    sizes = [0] * num_parts
    for node in order:
        neighbour_counts = [0.0] * num_parts
        for neighbor in view.out_neighbors(node):
            part = assignment.get(neighbor)
            if part is not None:
                neighbour_counts[part] += 1.0
        for neighbor in view.in_neighbors(node):
            part = assignment.get(neighbor)
            if part is not None:
                neighbour_counts[part] += 1.0
        best_part = 0
        best_score = float("-inf")
        for part in range(num_parts):
            penalty = 1.0 - sizes[part] / capacity
            score = neighbour_counts[part] * max(0.0, penalty)
            # tie-break towards the emptiest partition
            if score > best_score or (
                    score == best_score and sizes[part] < sizes[best_part]):
                best_score = score
                best_part = part
        assignment[node] = best_part
        sizes[best_part] += 1
    return assignment


def topic_partition(graph: GraphLike, num_parts: int,
                    slack: float = 1.15) -> Assignment:
    """Co-locate accounts by dominant publisher topic.

    Topic groups are bin-packed onto partitions largest-first. A group
    bigger than one partition's capacity (the Zipf head topic usually
    is) is split across the smallest partitions, so balance stays
    within *slack* of ideal while same-topic accounts remain as
    co-located as capacity allows.
    """
    view = as_snapshot(graph, allow_stale=True)
    _check_parts(view, num_parts)
    dominant: Dict[int, str] = {}
    for node in view.nodes():
        profile = sorted(view.node_topics(node))
        if profile:
            # most-followed-on topic first, profile order as tie-break
            dominant[node] = max(
                profile,
                key=lambda t: (view.follower_count_on(node, t), t))

    groups: Dict[str, List[int]] = {}
    for node in sorted(view.nodes()):
        groups.setdefault(dominant.get(node, ""), []).append(node)

    capacity = max(1.0, slack * view.num_nodes / num_parts)
    sizes = [0] * num_parts
    assignment: Assignment = {}
    ordered_groups = sorted(groups.items(),
                            key=lambda kv: (-len(kv[1]), kv[0]))
    for _, members in ordered_groups:
        cursor = 0
        while cursor < len(members):
            smallest = min(range(num_parts), key=lambda p: sizes[p])
            room = max(1, int(capacity - sizes[smallest]))
            chunk = members[cursor:cursor + room]
            for node in chunk:
                assignment[node] = smallest
            sizes[smallest] += len(chunk)
            cursor += len(chunk)
    return assignment


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def edge_cut_fraction(graph: GraphLike,
                      assignment: Assignment) -> float:
    """Fraction of edges whose endpoints live on different partitions."""
    view = as_snapshot(graph, allow_stale=True)
    if view.num_edges == 0:
        return 0.0
    cut = sum(1 for source, target, _ in view.edges()
              if assignment[source] != assignment[target])
    return cut / view.num_edges


def balance(assignment: Assignment) -> float:
    """Largest partition size over the ideal size (1.0 = perfect)."""
    if not assignment:
        return 1.0
    sizes = Counter(assignment.values())
    num_parts = max(assignment.values()) + 1
    ideal = len(assignment) / num_parts
    return max(sizes.values()) / ideal


@dataclass(frozen=True)
class PartitionMetrics:
    """Quality summary of one partitioning."""

    num_parts: int
    edge_cut: float
    balance: float


def partition_metrics(graph: GraphLike,
                      assignment: Assignment) -> PartitionMetrics:
    """Compute both quality metrics in one call."""
    num_parts = max(assignment.values()) + 1 if assignment else 0
    return PartitionMetrics(
        num_parts=num_parts,
        edge_cut=edge_cut_fraction(graph, assignment),
        balance=balance(assignment),
    )
