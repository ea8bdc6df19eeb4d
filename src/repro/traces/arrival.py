"""Arrival processes: when invocations hit the platform.

Examples drive the FaaS gateway from an arrival process:
:class:`PoissonArrivals` is memoryless background traffic.  A
synthesized Azure-like trace is replayed from its sorted timestamps
(:meth:`repro.traces.azure.SyntheticTrace.merged_timestamps`).
"""

from __future__ import annotations

import abc
import random
from typing import Iterator


class ArrivalProcess(abc.ABC):
    """Produces a monotone stream of arrival timestamps (ns)."""

    @abc.abstractmethod
    def arrivals(self, start_ns: int, end_ns: int) -> Iterator[int]:
        """Yield arrival instants in [start_ns, end_ns), ascending."""


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at *rate_per_second*."""

    def __init__(self, rate_per_second: float, rng: random.Random) -> None:
        if rate_per_second < 0:
            raise ValueError(f"rate must be >= 0, got {rate_per_second}")
        self.rate_per_second = rate_per_second
        self._rng = rng

    def arrivals(self, start_ns: int, end_ns: int) -> Iterator[int]:
        if self.rate_per_second == 0:
            # A zero-rate function never fires; an empty stream (rather
            # than an error) lets trace synthesis keep dead functions.
            return
        mean_gap_ns = 1e9 / self.rate_per_second
        when = float(start_ns)
        while True:
            when += self._rng.expovariate(1.0) * mean_gap_ns
            if when >= end_ns:
                return
            yield round(when)

