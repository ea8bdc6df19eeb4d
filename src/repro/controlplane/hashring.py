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
from functools import lru_cache
from typing import Iterable, Optional, Tuple


def _h(key: str) -> int:
    """Stable 64-bit hash (first 8 bytes of sha256)."""
    return int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
    )


@lru_cache(maxsize=64)
def _shape(
    nodes: int, vnodes: int, salt: str
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Sorted ring points and their owners for one ring shape.

    A pure function of ``(nodes, vnodes, salt)``, hashed once per
    process and shared (as tuples, so no ring can mutate it) by every
    ring of that shape: each recovery cell builds a ring per control
    plane, always of the same few shapes.
    """
    points = sorted(
        (_h(f"{salt}:{node}:{replica}"), node)
        for node in range(nodes)
        for replica in range(vnodes)
    )
    return (
        tuple(point for point, _node in points),
        tuple(node for _point, node in points),
    )


class HashRing:
    """A fixed population of shard ids 0..n-1 on a consistent-hash ring.

    The ring is fixed — shards never join or leave the population;
    they only go down and come back — so its points are built once per
    shape and shared.  Routing walks clockwise from the key's point to
    the first *alive* shard, so a down shard's keys all land on
    ring-successor shards and snap back the instant it recovers.
    """

    __slots__ = ("nodes", "vnodes", "_points", "_owners")

    def __init__(self, nodes: int, vnodes: int = 64, salt: str = "") -> None:
        if nodes < 1:
            raise ValueError(f"ring needs >= 1 node, got {nodes}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.nodes = nodes
        self.vnodes = vnodes
        self._points, self._owners = _shape(nodes, vnodes, salt)

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
