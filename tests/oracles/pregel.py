"""Dict Pregel walker: Proposition-1 propagation with message counting.

Walks Python dicts per edge: at superstep ``k`` every active walker
(ascending id) sends its length-k mass along its out-edges (ascending
neighbour id). A transfer whose sender and receiver sit on different
partitions is a remote value; values bound for one receiver from one
sending partition within a superstep combine into one message.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.config import ScoreParams
from repro.core.exact import ScoreState, _MaxSimCache
from repro.core.scores import AuthorityIndex
from repro.distributed import MessageStats
from repro.errors import ConfigurationError
from repro.graph.snapshot import as_snapshot
from repro.semantics.matrix import SimilarityMatrix


def pregel_scores(
    graph,
    assignment: Mapping[int, int],
    source: int,
    topics: Sequence[str],
    similarity: SimilarityMatrix,
    authority: Optional[AuthorityIndex] = None,
    params: ScoreParams = ScoreParams(),
    max_depth: Optional[int] = None,
    absorbing: Optional[frozenset] = None,
) -> Tuple[ScoreState, MessageStats]:
    """Propagate from *source*; returns ``(state, message stats)``.

    *graph* needs ``out_neighbors``; *assignment* maps every node to
    its partition. ``max_depth=None`` runs ``params.max_iter`` rounds
    (to convergence); *absorbing* nodes other than the source receive
    mass but never expand.
    """
    if source not in assignment:
        raise ConfigurationError(f"node {source} has no partition")
    if authority is None:
        authority = AuthorityIndex(graph)
    cache = _MaxSimCache(similarity)
    beta = params.beta
    alphabeta = params.edge_decay
    edge_factor = params.beta * params.alpha

    cumulative_scores = {topic: {} for topic in topics}
    cumulative_tb: Dict[int, float] = {source: 1.0}
    cumulative_tab: Dict[int, float] = {source: 1.0}
    frontier_r: Dict[str, Dict[int, float]] = {topic: {} for topic in topics}
    frontier_tb: Dict[int, float] = {source: 1.0}
    frontier_tab: Dict[int, float] = {source: 1.0}

    stats = MessageStats()
    limit = params.max_iter if max_depth is None else max_depth
    converged = False

    for _ in range(limit):
        next_r: Dict[str, Dict[int, float]] = {topic: {} for topic in topics}
        next_tb: Dict[int, float] = {}
        next_tab: Dict[int, float] = {}
        # (receiver, sender_partition, receiver_partition) triples that
        # crossed partitions this superstep — one combined message each.
        combined_remote: set = set()
        touched = set(frontier_tb)
        for topic in topics:
            touched.update(frontier_r[topic])
        if absorbing:
            touched = {walker for walker in touched
                       if walker == source or walker not in absorbing}
        if not touched:
            converged = True
            break
        for walker in sorted(touched):
            walker_part = assignment[walker]
            tb_mass = frontier_tb.get(walker, 0.0)
            tab_mass = frontier_tab.get(walker, 0.0)
            r_masses = [frontier_r[topic].get(walker, 0.0)
                        for topic in topics]
            for neighbor, label in sorted(graph.out_neighbors(walker).items()):
                neighbor_part = assignment[neighbor]
                if neighbor_part == walker_part:
                    stats.local_transfers += 1
                else:
                    stats.remote_values += 1
                    combined_remote.add(
                        (neighbor, walker_part, neighbor_part))
                if tb_mass:
                    next_tb[neighbor] = (
                        next_tb.get(neighbor, 0.0) + beta * tb_mass)
                if tab_mass:
                    next_tab[neighbor] = (
                        next_tab.get(neighbor, 0.0) + alphabeta * tab_mass)
                for topic, r_mass in zip(topics, r_masses):
                    increment = beta * r_mass
                    if tab_mass and label:
                        best = cache.max_similarity(label, topic)
                        if best:
                            auth_value = authority.auth(neighbor, topic)
                            if auth_value:
                                increment += (tab_mass * edge_factor
                                              * best * auth_value)
                    if increment:
                        bucket = next_r[topic]
                        bucket[neighbor] = (
                            bucket.get(neighbor, 0.0) + increment)
        stats.supersteps += 1
        stats.remote_messages += len(combined_remote)
        for _, sender_part, receiver_part in sorted(combined_remote):
            link = (sender_part, receiver_part)
            stats.per_link[link] = stats.per_link.get(link, 0) + 1

        new_mass = math.fsum(
            math.fsum(bucket.values()) for bucket in next_r.values())
        new_mass += math.fsum(next_tb.values())
        for node, value in sorted(next_tb.items()):
            cumulative_tb[node] = cumulative_tb.get(node, 0.0) + value
        for node, value in sorted(next_tab.items()):
            cumulative_tab[node] = cumulative_tab.get(node, 0.0) + value
        for topic in topics:
            bucket = cumulative_scores[topic]
            for node, value in sorted(next_r[topic].items()):
                bucket[node] = bucket.get(node, 0.0) + value
        frontier_r, frontier_tb, frontier_tab = next_r, next_tb, next_tab
        if new_mass < params.tolerance:
            converged = True
            break

    state = ScoreState.from_dicts(
        as_snapshot(graph, allow_stale=True), source, cumulative_scores,
        cumulative_tb, cumulative_tab, iterations=stats.supersteps,
        converged=converged)
    return state, stats
