"""Distributed recommendation over a partitioned social graph.

The paper's conclusion sketches this as future work: "distribution
implies to split the graph by taking into account connectivity, but
also to perform landmark selections and distributions that allow a node
to evaluate the recommendation scores 'locally' minimizing network
transfer costs." This subpackage implements that simulation:

- graph partitioners — hash, connectivity-aware greedy (LDG), and
  topic-based — with edge-cut and balance metrics (:mod:`partition`);
- Pregel-style message accounting over the package's one depth-k
  kernel (:class:`~repro.landmarks.query_engine.QueryEngine`): the
  same bit-identical exploration, with every cross-partition message
  counted from the rounds' edge arrays (:mod:`cluster`);
- a distributed landmark service where remote landmark lookups cost
  transfer units, so landmark placement strategies can be compared
  (:mod:`recommend`);
- a sharded serving tier on contiguous range partitions — integer-
  division routing, R-way replica sets with deterministic failover and
  hedged fetches, zero-downtime epoch rollover, scatter-gather
  execution, simulated failures and deadlines, results
  bitwise-identical to the single-machine recommender (:mod:`sharded`).
"""

from .partition import (
    PartitionMetrics,
    balance,
    edge_cut_fraction,
    greedy_partition,
    hash_partition,
    partition_array,
    partition_metrics,
    range_partition,
    topic_partition,
)
from .cluster import MessageStats, distributed_single_source_scores
from .recommend import DistributedLandmarkService, QueryCost
from .sharded import (
    EpochRollover,
    ReplicaSet,
    ShardChannel,
    ShardedPlatform,
    ShardRouter,
    ShardSpec,
    ShardWorker,
    shard_bounds,
)

__all__ = [
    "hash_partition",
    "range_partition",
    "greedy_partition",
    "topic_partition",
    "edge_cut_fraction",
    "balance",
    "partition_metrics",
    "partition_array",
    "PartitionMetrics",
    "distributed_single_source_scores",
    "MessageStats",
    "DistributedLandmarkService",
    "QueryCost",
    "shard_bounds",
    "ShardSpec",
    "ShardRouter",
    "ShardChannel",
    "ShardWorker",
    "ReplicaSet",
    "EpochRollover",
    "ShardedPlatform",
]
