"""Pregel-style distributed Tr propagation with message accounting.

The frontier propagation of Proposition 1 maps directly onto the
superstep model: at step ``k`` every active node sends its length-k
walk mass along its out-edges. When the sender and the receiver live on
different partitions, that value transfer is a network message; values
to the *same* remote neighbour within one superstep are combined before
shipping (Pregel's combiner optimisation), and per-topic payloads ride
in the same message as the topological mass.

The walk itself is :meth:`~repro.landmarks.query_engine.QueryEngine.explore`
— the package's one depth-k kernel — run with a per-position partition
array, so each round's gathered ``(walker, neighbour)`` edges are also
counted into :class:`~repro.landmarks.query_engine.MessageStats`. The
scores are therefore the single-machine engine's, bit for bit, and the
message counts are exactly what a real deployment would pay — the cost
model the paper's future-work paragraph says a distributed design must
minimise.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..landmarks.query_engine import (DenseExploration, MessageStats,
                                      QueryEngine)

__all__ = ["MessageStats", "distributed_single_source_scores"]


def distributed_single_source_scores(
    engine: QueryEngine,
    partition: np.ndarray,
    source: int,
    topic: str,
    max_depth: Optional[int] = None,
    absorbing: Union[None, frozenset, np.ndarray] = None,
) -> Tuple[DenseExploration, MessageStats]:
    """Prop.-1 propagation with per-partition message accounting.

    Args:
        engine: Query engine pinned to the (logically partitioned)
            snapshot.
        partition: Partition id per dense snapshot position — build it
            with :func:`~repro.distributed.partition.partition_array`,
            which refuses unassigned nodes.
        source: Query node.
        topic: Topic to score.
        max_depth: Walk-length cap (``None`` = ``params.max_iter``, i.e.
            to convergence).
        absorbing: Nodes whose mass is not propagated further (the
            landmark pruning of Algorithm 2) — a node-id set or a
            boolean mask over dense positions.

    Returns:
        ``(exploration, stats)`` where *exploration* matches the
        single-machine engine exactly and *stats* records the message
        traffic.
    """
    depth = engine.params.max_iter if max_depth is None else max_depth
    exploration = engine.explore(source, topic, depth, absorbing=absorbing,
                                 partition=partition)
    assert exploration.messages is not None  # partition was passed
    return exploration, exploration.messages
