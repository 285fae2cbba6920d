"""Bounded top-k accumulator and the per-shard top-n merge.

:func:`merge_shard_partials` reduces each healthy shard's candidates
to a local top-n with :class:`TopK` and merges the partials — the
readable second implementation that the sharded tier's one masked
:func:`repro.core.exact.rank_dense` is pinned against. The merge is
exact: a candidate in the global top-n ranks at least as high among its
own shard's candidates, so every global winner survives its shard's cut
and the merged top-n equals the global top-n.

:class:`TopK` keeps a dict of current scores and sorts on demand; n is
small (<= 1000) throughout the paper, which makes the O(m log m)
finalisation cheap.
"""

from __future__ import annotations

from typing import (AbstractSet, Callable, Dict, Generic, Hashable, Iterator,
                    List, Mapping, Tuple, TypeVar)

K = TypeVar("K", bound=Hashable)


class TopK(Generic[K]):
    """Accumulate additive scores per item and report the k largest.

    Ties are broken by item (ascending) so results are deterministic.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._scores: Dict[K, float] = {}

    def add(self, item: K, score: float) -> None:
        """Add *score* to the running total of *item*."""
        self._scores[item] = self._scores.get(item, 0.0) + score

    def set(self, item: K, score: float) -> None:
        """Overwrite the score of *item*."""
        self._scores[item] = score

    def get(self, item: K, default: float = 0.0) -> float:
        """Current score of *item* (default when absent)."""
        return self._scores.get(item, default)

    def __contains__(self, item: K) -> bool:
        return item in self._scores

    def __len__(self) -> int:
        return len(self._scores)

    def __iter__(self) -> Iterator[K]:
        return iter(self._scores)

    def items(self) -> Iterator[Tuple[K, float]]:
        """Iterate over (item, score) pairs, unordered."""
        return iter(self._scores.items())

    def best(self) -> List[Tuple[K, float]]:
        """Return up to k (item, score) pairs, highest score first."""
        ranked = sorted(self._scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[: self.k]

    def prune(self) -> None:
        """Drop everything outside the current top k.

        Useful for long-running accumulations where the candidate pool
        is much larger than k; callers decide when pruning is safe
        (i.e. when dropped items can no longer re-enter the top k).
        """
        if len(self._scores) > self.k:
            self._scores = dict(self.best())


def merge_shard_partials(scores: Mapping[int, float], top_n: int,
                         shard_of: Callable[[int], int],
                         lost: AbstractSet[int] = frozenset(),
                         ) -> List[Tuple[int, float]]:
    """Global top-n as the merge of per-shard top-n partial rankings.

    Non-positive scores never rank; candidates whose shard is in *lost*
    have no shard to answer for them and drop out.
    """
    partials: Dict[int, TopK[int]] = {}
    for node, value in scores.items():
        if value <= 0.0:
            continue
        owner = shard_of(node)
        if owner in lost:
            continue
        per_shard = partials.get(owner)
        if per_shard is None:
            per_shard = partials[owner] = TopK(top_n)
        per_shard.set(node, value)
    gathered: TopK[int] = TopK(top_n)
    for owner in sorted(partials):
        for node, value in partials[owner].best():
            gathered.set(node, value)
    return gathered.best()
