"""Machine-speed calibration for host-time metrics.

On a shared machine the CPU this process gets slows down and speeds up
with its neighbours' load, by up to 2x for minutes at a time.  That
swing is not the simulator's doing, so every host time the benchmark
reports is scaled to a reference machine speed:

    reported time = measured time / slowdown
    slowdown      = mean(calibration before, calibration after) / REFERENCE_S

The calibration is a fixed loop of the operations the simulator's hot
paths are made of: a generator feeding a heap, small-object
allocation, pointer chasing, dict updates and 64-bit integer mixing.
It is timed right before and right after each measured interval.  The
garbage collector is off while it runs, so the program's heap cannot
change its speed.  Contention that flips faster
than a round still leaves per-round noise; the medians over rounds
absorb it, while a slow or fast spell that lasts a whole run is
cancelled.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: calibration time on an uncontended 2-core Xeon VM (the reference speed)
REFERENCE_S = 0.004
_SAMPLES = 3
_MASK64 = (1 << 64) - 1


class _Node:
    __slots__ = ("key", "next")

    def __init__(self, key: int, next_node) -> None:
        self.key = key
        self.next = next_node


def _keys(count: int):
    for i in range(count):
        yield (i * 7919) % 1000


def _loop() -> int:
    """One calibration pass: the simulator's kinds of work in small."""
    heap: list = []
    for key in _keys(6000):
        heapq.heappush(heap, key)
        if len(heap) > 64:
            heapq.heappop(heap)
    table: dict = {}
    head = None
    for i in range(4000):
        head = _Node(i & 1023, head)
        table[i & 511] = table.get(i & 511, 0) + head.key
    total = 0
    while head is not None:
        total += head.key
        head = head.next
    x = 12345
    for _ in range(3000):
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        total ^= ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return total


def calibration_s() -> float:
    """Median wall time of the calibration loop, GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(_SAMPLES):
            start = time.perf_counter()
            _loop()
            samples.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


def slowdown(before: float, after: float) -> float:
    """How much slower than the reference the machine ran (1.0 = equal)."""
    return (before + after) / 2.0 / REFERENCE_S
