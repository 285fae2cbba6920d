"""Dict reference implementations the parity suites pin production to.

The package runs one depth-k kernel
(:class:`~repro.landmarks.query_engine.QueryEngine`) and one
vectorised Proposition-4 composition. These oracles are the readable
second implementations they are checked against, bit for bit:

- :func:`pregel_scores` — the dict Pregel walker with per-partition
  message counting (:mod:`tests.oracles.pregel`);
- :func:`compose` — the entry-by-entry Proposition-4 loop
  (:mod:`tests.oracles.compose`);
- :func:`approximate_scores` / :func:`approximate_ranking` — Algorithm
  2 end to end on top of those two, optionally with lost shards (the
  sharded tier's degraded path).
"""

from .compose import approximate_ranking, approximate_scores, compose
from .pregel import pregel_scores

__all__ = ["approximate_ranking", "approximate_scores", "compose",
           "pregel_scores"]
