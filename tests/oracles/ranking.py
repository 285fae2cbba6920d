"""Dict ranking: the top-n of a node → score mapping, one sort.

Positive scores only, descending, ties broken by ascending node id,
*exclude* dropped — the ordering every stored landmark list and every
``ScoreState.ranked`` answer follows.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Tuple


def ranked(scores: Mapping[int, float], top_n: Optional[int] = None,
           exclude: Iterable[int] = ()) -> List[Tuple[int, float]]:
    """Rank *scores* by ``(-score, node)``; truncate to *top_n*."""
    excluded = set(exclude)
    entries = [(node, value) for node, value in scores.items()
               if node not in excluded and value > 0.0]
    entries.sort(key=lambda kv: (-kv[1], kv[0]))
    if top_n is not None:
        return entries[:top_n]
    return entries
