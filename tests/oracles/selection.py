"""Degree-ranked landmark selection as one key-function sort.

``In-Deg`` / ``Out-Deg`` order every node by ``(-degree, node)``
through the view's per-node degree API; the vectorised ``lexsort``
over the CSR ``indptr`` must pick exactly the same list.
"""

from __future__ import annotations

from typing import List


def top_by_degree(graph, count: int, out: bool = False) -> List[int]:
    """The *count* nodes of highest in- (or out-) degree, ties by id."""
    degree = graph.out_degree if out else graph.in_degree
    ranked = sorted(graph.nodes(), key=lambda n: (-degree(n), n))
    return ranked[:count]
