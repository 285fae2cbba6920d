"""The eleven landmark-selection strategies of Table 4.

Each strategy is a function ``(graph, count, rng, **options) -> list``
registered in :data:`STRATEGIES` under the exact name the paper's
tables use. All are deterministic for a fixed seed.

The coverage-based strategies (``Central``, ``Out-Cen``, ``Combine``)
follow Potamias et al.'s seed-coverage idea the paper cites: sample
seed nodes, explore to a fixed depth, and prefer nodes that many seeds
can reach (Central) or that reach many seeds (Out-Cen).
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..graph.labeled_graph import LabeledSocialGraph
from ..graph.snapshot import GraphSnapshot
from ..graph.traversal import bfs_levels
from ..utils.rng import SeedLike, rng_from_seed

SelectionFn = Callable[..., List[int]]


def _check_count(graph: LabeledSocialGraph, count: int) -> None:
    if count < 1:
        raise ConfigurationError(f"landmark count must be >= 1, got {count}")
    if count > graph.num_nodes:
        raise ConfigurationError(
            f"cannot select {count} landmarks from {graph.num_nodes} nodes")


def _weighted_sample(rng: random.Random,
                     weighted: Sequence[tuple[int, float]],
                     count: int) -> List[int]:
    """Efraimidis–Spirakis weighted sampling without replacement.

    Items with zero weight are only used to pad when fewer than *count*
    positive-weight items exist.
    """
    keyed = []
    zero_weight = []
    for node, weight in weighted:
        if weight > 0.0:
            keyed.append((rng.random() ** (1.0 / weight), node))
        else:
            zero_weight.append(node)
    keyed.sort(reverse=True)
    chosen = [node for _, node in keyed[:count]]
    if len(chosen) < count:
        rng.shuffle(zero_weight)
        chosen.extend(zero_weight[: count - len(chosen)])
    return chosen


# ----------------------------------------------------------------------
# Simple random / degree strategies
# ----------------------------------------------------------------------

def select_random(graph: LabeledSocialGraph, count: int,
                  rng: SeedLike = None) -> List[int]:
    """``Random``: uniform draw without replacement."""
    _check_count(graph, count)
    return rng_from_seed(rng).sample(sorted(graph.nodes()), count)


def select_follow(graph: LabeledSocialGraph, count: int,  # repro: ignore[W4] -- dispatched by paper-strategy name through the STRATEGIES registry below
                  rng: SeedLike = None) -> List[int]:
    """``Follow``: draw with probability proportional to #followers."""
    _check_count(graph, count)
    weighted = [(node, float(graph.in_degree(node)))
                for node in sorted(graph.nodes())]
    return _weighted_sample(rng_from_seed(rng), weighted, count)


def select_publish(graph: LabeledSocialGraph, count: int,  # repro: ignore[W4] -- dispatched by paper-strategy name through the STRATEGIES registry below
                   rng: SeedLike = None) -> List[int]:
    """``Publish``: draw with probability proportional to #accounts followed."""
    _check_count(graph, count)
    weighted = [(node, float(graph.out_degree(node)))
                for node in sorted(graph.nodes())]
    return _weighted_sample(rng_from_seed(rng), weighted, count)


def _top_by_degree(graph: Any, count: int, out: bool) -> List[int]:
    """The *count* nodes of highest in- (or out-) degree, ties by id.

    A snapshot's degrees come straight from its CSR ``indptr``; other
    views are asked node by node. Either way one ``lexsort`` ranks.
    """
    _check_count(graph, count)
    if isinstance(graph, GraphSnapshot):
        node_ids = np.asarray(graph.node_ids, dtype=np.int64)
        degree = np.diff(graph.out_indptr if out else graph.in_indptr)
    else:
        nodes = list(graph.nodes())
        node_ids = np.asarray(nodes, dtype=np.int64)
        degree_of = graph.out_degree if out else graph.in_degree
        degree = np.fromiter((degree_of(node) for node in nodes),
                             dtype=np.int64, count=len(nodes))
    order = np.lexsort((node_ids, -degree))
    ranked: List[int] = node_ids[order[:count]].tolist()
    return ranked


def select_in_degree(graph: LabeledSocialGraph, count: int,
                     rng: SeedLike = None) -> List[int]:
    """``In-Deg``: the *count* most-followed accounts."""
    return _top_by_degree(graph, count, out=False)


def select_out_degree(graph: LabeledSocialGraph, count: int,
                      rng: SeedLike = None) -> List[int]:
    """``Out-Deg``: the *count* most-active readers."""
    return _top_by_degree(graph, count, out=True)


def _percentile_band(values: List[int], low: float, high: float) -> tuple[int, int]:
    ordered = sorted(values)
    low_index = min(len(ordered) - 1, int(low * len(ordered)))
    high_index = min(len(ordered) - 1, int(high * len(ordered)))
    return ordered[low_index], ordered[high_index]


def select_between_followers(graph: LabeledSocialGraph, count: int,
                             rng: SeedLike = None,
                             low: float = 0.5, high: float = 0.95,
                             ) -> List[int]:
    """``Btw-Fol``: uniform among nodes with #followers in a band.

    The paper leaves ``[min_follow, max_follow]`` unspecified; we take a
    percentile band (default: the 50th–95th percentile of in-degree),
    i.e. moderately-popular accounts, excluding both celebrities and
    near-orphans.
    """
    _check_count(graph, count)
    degrees = [graph.in_degree(node) for node in graph.nodes()]
    minimum, maximum = _percentile_band(degrees, low, high)
    eligible = sorted(
        node for node in graph.nodes()
        if minimum <= graph.in_degree(node) <= maximum)
    generator = rng_from_seed(rng)
    if len(eligible) <= count:
        filler = [node for node in sorted(graph.nodes()) if node not in set(eligible)]
        generator.shuffle(filler)
        return eligible + filler[: count - len(eligible)]
    return generator.sample(eligible, count)


def select_between_publishers(graph: LabeledSocialGraph, count: int,  # repro: ignore[W4] -- dispatched by paper-strategy name through the STRATEGIES registry below
                              rng: SeedLike = None,
                              low: float = 0.5, high: float = 0.95,
                              ) -> List[int]:
    """``Btw-Pub``: uniform among nodes with out-degree in a band."""
    _check_count(graph, count)
    degrees = [graph.out_degree(node) for node in graph.nodes()]
    minimum, maximum = _percentile_band(degrees, low, high)
    eligible = sorted(
        node for node in graph.nodes()
        if minimum <= graph.out_degree(node) <= maximum)
    generator = rng_from_seed(rng)
    if len(eligible) <= count:
        filler = [node for node in sorted(graph.nodes()) if node not in set(eligible)]
        generator.shuffle(filler)
        return eligible + filler[: count - len(eligible)]
    return generator.sample(eligible, count)


# ----------------------------------------------------------------------
# Coverage (centrality-flavoured) strategies
# ----------------------------------------------------------------------

def _coverage_scores(graph: LabeledSocialGraph, seeds: List[int],
                     depth: int, direction: str) -> Dict[int, int]:
    """How many seeds can reach each node within *depth* hops.

    ``direction="out"`` explores along follow edges from each seed, so
    a node's score counts seeds it is *reachable from* (Central).
    ``direction="in"`` explores reverse edges, so the score counts
    seeds the node *can reach* (Out-Cen).
    """
    scores: Dict[int, int] = {}
    for seed in seeds:
        for node, hop in bfs_levels(graph, seed, max_depth=depth,  # repro: ignore[R2] -- coverage counts are integers; addition is exact in any order
                                    direction=direction).items():
            if hop > 0:
                scores[node] = scores.get(node, 0) + 1
    return scores


def select_central(graph: LabeledSocialGraph, count: int,
                   rng: SeedLike = None, num_seeds: int = 50,
                   depth: int = 2) -> List[int]:
    """``Central``: nodes reachable at distance ≤ *depth* from most seeds."""
    _check_count(graph, count)
    generator = rng_from_seed(rng)
    nodes = sorted(graph.nodes())
    seeds = generator.sample(nodes, min(num_seeds, len(nodes)))
    coverage = _coverage_scores(graph, seeds, depth, direction="out")
    ranked = sorted(nodes, key=lambda n: (-coverage.get(n, 0), n))
    return ranked[:count]


def select_out_central(graph: LabeledSocialGraph, count: int,  # repro: ignore[W4] -- dispatched by paper-strategy name through the STRATEGIES registry below
                       rng: SeedLike = None, num_seeds: int = 50,
                       depth: int = 2) -> List[int]:
    """``Out-Cen``: nodes that can reach the most distinct seeds."""
    _check_count(graph, count)
    generator = rng_from_seed(rng)
    nodes = sorted(graph.nodes())
    seeds = generator.sample(nodes, min(num_seeds, len(nodes)))
    coverage = _coverage_scores(graph, seeds, depth, direction="in")
    ranked = sorted(nodes, key=lambda n: (-coverage.get(n, 0), n))
    return ranked[:count]


def select_combine(graph: LabeledSocialGraph, count: int,
                   rng: SeedLike = None, num_seeds: int = 50,
                   depth: int = 2, weight: float = 0.5) -> List[int]:
    """``Combine``: weighted combination of Central and Out-Cen coverage."""
    _check_count(graph, count)
    if not 0.0 <= weight <= 1.0:
        raise ConfigurationError(f"weight must be in [0, 1], got {weight}")
    generator = rng_from_seed(rng)
    nodes = sorted(graph.nodes())
    seeds = generator.sample(nodes, min(num_seeds, len(nodes)))
    inbound = _coverage_scores(graph, seeds, depth, direction="out")
    outbound = _coverage_scores(graph, seeds, depth, direction="in")
    in_max = max(inbound.values(), default=1) or 1
    out_max = max(outbound.values(), default=1) or 1

    def combined(node: int) -> float:
        return (weight * inbound.get(node, 0) / in_max
                + (1.0 - weight) * outbound.get(node, 0) / out_max)

    ranked = sorted(nodes, key=lambda n: (-combined(n), n))
    return ranked[:count]


def select_combine2(graph: LabeledSocialGraph, count: int,  # repro: ignore[W4] -- dispatched by paper-strategy name through the STRATEGIES registry below
                    rng: SeedLike = None, weight: float = 0.5,
                    low: float = 0.5, high: float = 0.95) -> List[int]:
    """``Combine2``: mixture of Btw-Fol and Btw-Pub draws."""
    _check_count(graph, count)
    if not 0.0 <= weight <= 1.0:
        raise ConfigurationError(f"weight must be in [0, 1], got {weight}")
    generator = rng_from_seed(rng)
    follower_quota = int(math.floor(weight * count))
    from_followers = select_between_followers(
        graph, max(1, follower_quota) if follower_quota else 1,
        rng=generator, low=low, high=high) if follower_quota else []
    chosen = list(dict.fromkeys(from_followers))[:follower_quota]
    remaining = count - len(chosen)
    taken = set(chosen)
    publishers = select_between_publishers(
        graph, min(graph.num_nodes, count * 2), rng=generator,
        low=low, high=high)
    for node in publishers:
        if remaining == 0:
            break
        if node not in taken:
            chosen.append(node)
            taken.add(node)
            remaining -= 1
    if remaining:
        filler = [n for n in sorted(graph.nodes()) if n not in taken]
        generator.shuffle(filler)
        chosen.extend(filler[:remaining])
    return chosen


#: Strategy registry keyed by the paper's Table 4/5/6 names.
STRATEGIES: Dict[str, SelectionFn] = {
    "Random": select_random,
    "Follow": select_follow,
    "Publish": select_publish,
    "In-Deg": select_in_degree,
    "Btw-Fol": select_between_followers,
    "Out-Deg": select_out_degree,
    "Btw-Pub": select_between_publishers,
    "Central": select_central,
    "Out-Cen": select_out_central,
    "Combine": select_combine,
    "Combine2": select_combine2,
}


def select_landmarks(graph: LabeledSocialGraph, strategy: str, count: int,
                     rng: SeedLike = None, **options: Any) -> List[int]:
    """Select *count* landmarks with the named Table-4 strategy.

    Raises:
        ConfigurationError: on an unknown strategy name.
    """
    try:
        function = STRATEGIES[strategy]
    except KeyError:
        known = ", ".join(sorted(STRATEGIES))
        raise ConfigurationError(
            f"unknown landmark strategy {strategy!r}; known: {known}") from None
    return function(graph, count, rng=rng, **options)
