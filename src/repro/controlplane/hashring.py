"""Consistent-hash function→shard routing.

The frontend must route every request for one function to one gateway
shard (so exactly one intent log owns each function's requests), keep
that mapping stable as shards crash and recover, and move only the
crashed shard's keys while it is down.  A classic consistent-hash ring
with virtual nodes does all three.

Hashes come from sha256, not Python's salted ``hash()``: the ring must
be identical across worker processes (PR 7's byte-identity contract
covers the routing decisions) and across interpreter restarts (the CI
recovery job diffs two subprocesses).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, List, Optional, Tuple


def _h(key: str) -> int:
    """Stable 64-bit hash (first 8 bytes of sha256)."""
    return int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """A fixed population of shard ids 0..n-1 on a consistent-hash ring.

    The ring is built once — shards never join or leave the population;
    they only go down and come back.  Routing walks clockwise from the
    key's point to the first *alive* shard, so a down shard's keys all
    land on ring-successor shards and snap back the instant it recovers.
    """

    __slots__ = ("nodes", "vnodes", "_points", "_owners")

    def __init__(self, nodes: int, vnodes: int = 64, salt: str = "") -> None:
        if nodes < 1:
            raise ValueError(f"ring needs >= 1 node, got {nodes}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.nodes = nodes
        self.vnodes = vnodes
        points: List[Tuple[int, int]] = []
        for node in range(nodes):
            for replica in range(vnodes):
                points.append((_h(f"{salt}:{node}:{replica}"), node))
        points.sort()
        self._points = [point for point, _node in points]
        self._owners = [node for _point, node in points]

    def owner(self, key: str, alive: Iterable[int]) -> Optional[int]:
        """First alive shard clockwise from *key* — None when all down."""
        up = frozenset(alive)
        if not up:
            return None
        owners = self._owners
        count = len(owners)
        start = bisect.bisect_right(self._points, _h(key))
        for step in range(count):
            node = owners[(start + step) % count]
            if node in up:
                return node
        return None  # pragma: no cover — up is non-empty and a subset

    def __repr__(self) -> str:
        return f"HashRing(nodes={self.nodes}, vnodes={self.vnodes})"
