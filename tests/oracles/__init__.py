"""Dict reference implementations the parity suites pin production to.

The package runs one depth-k kernel
(:class:`~repro.landmarks.query_engine.QueryEngine`) and one
vectorised Proposition-4 composition. These oracles are the readable
second implementations they are checked against, bit for bit:

- :func:`pregel_scores` — the dict Pregel walker with per-partition
  message counting (:mod:`tests.oracles.pregel`);
- :func:`compose` — the entry-by-entry Proposition-4 loop
  (:mod:`tests.oracles.compose`);
- :func:`ranked` — the one-sort dict ranking that
  ``ScoreState.ranked`` / ``top_entries`` replace with a partition
  over the score column (:mod:`tests.oracles.ranking`);
- :func:`approximate_scores` / :func:`approximate_ranking` — Algorithm
  2 end to end on top of the walker and the compose loop, optionally with lost shards (the
  sharded tier's degraded path);
- :func:`auth` — the per-node authority formula that
  ``AuthorityIndex.column`` computes once per topic in numpy
  (:mod:`tests.oracles.authority`);
- :func:`top_by_degree` — the key-function sort that degree-ranked
  landmark selection replaces with a ``lexsort`` over the CSR
  (:mod:`tests.oracles.selection`);
- :class:`TopK` / :func:`merge_shard_partials` — the per-shard top-n
  merge that the sharded tier's one masked
  :func:`~repro.core.exact.rank_dense` must equal
  (:mod:`tests.oracles.topk`).
"""

from .authority import auth
from .compose import approximate_ranking, approximate_scores, compose
from .pregel import pregel_scores
from .ranking import ranked
from .selection import top_by_degree
from .topk import TopK, merge_shard_partials

__all__ = ["TopK", "approximate_ranking", "approximate_scores", "auth",
           "compose", "merge_shard_partials", "pregel_scores", "ranked",
           "top_by_degree"]
