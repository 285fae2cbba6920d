"""Scalar authority: ``auth(u, t)`` from one node's follower counts.

``(|Γu(t)| / |Γu|) · log1p(|Γu(t)|) / log1p(max_v |Γv(t)|)``, read
node by node through the view's graph-mirroring API — the formula the
per-topic ``AuthorityIndex.column`` vectorises and must equal bit for
bit.
"""

from __future__ import annotations

import math


def auth(view, node: int, topic: str) -> float:
    """Authority of *node* on *topic* over *view*, in ``[0, 1]``."""
    followers_on_topic = view.follower_count_on(node, topic)
    if followers_on_topic == 0:
        return 0.0
    total_followers = view.follower_count(node)
    local = followers_on_topic / total_followers
    # followers_on_topic >= 1 implies the global max >= 1 too, so the
    # normaliser is strictly positive here.
    normaliser = math.log1p(view.max_followers_on(topic))
    global_popularity = math.log1p(followers_on_topic) / normaliser
    return local * global_popularity
