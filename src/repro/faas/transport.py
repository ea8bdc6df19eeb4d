"""Trigger transport models (the paper's §2 network assumption).

The paper "consider[s] the data center network stack fast enough to
ensure the nanosecond-scale trigger of functions" and therefore
triggers on the node where the function runs.  This module makes that
assumption an explicit, swappable model so the sensitivity can be
studied: how fast must the trigger path be before sandbox
initialization — the thing HORSE fixes — dominates again?

Models (latency drawn per trigger):

* ``LOCAL``       — same-node trigger, ~0 ns (the paper's setting);
* ``NANO_FABRIC`` — nanoPU-class network stack, ~100s of ns;
* ``KERNEL_BYPASS`` — DPDK/RDMA-class RPC, ~2 us;
* ``TCP``         — conventional kernel TCP RPC, ~30 us.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from repro.sim.units import microseconds, nanoseconds


class TransportKind(enum.Enum):
    LOCAL = "local"
    NANO_FABRIC = "nano-fabric"
    KERNEL_BYPASS = "kernel-bypass"
    TCP = "tcp"


@dataclass(frozen=True)
class TransportModel:
    """Latency envelope of one trigger-delivery path."""

    kind: TransportKind
    base_ns: int
    jitter_rel: float = 0.1

    def __post_init__(self) -> None:
        if self.base_ns < 0:
            raise ValueError(f"negative base latency {self.base_ns}")
        if self.jitter_rel < 0:
            raise ValueError(f"negative jitter {self.jitter_rel}")

    def sample_ns(self, rng: random.Random) -> int:
        """Draw one trigger-delivery latency."""
        if self.base_ns == 0:
            return 0
        jitter = rng.gauss(0.0, self.base_ns * self.jitter_rel)
        return max(0, round(self.base_ns + jitter))


LOCAL = TransportModel(TransportKind.LOCAL, base_ns=0)
NANO_FABRIC = TransportModel(TransportKind.NANO_FABRIC, base_ns=nanoseconds(350))
KERNEL_BYPASS = TransportModel(TransportKind.KERNEL_BYPASS, base_ns=microseconds(2))
TCP = TransportModel(TransportKind.TCP, base_ns=microseconds(30))

ALL_TRANSPORTS = (LOCAL, NANO_FABRIC, KERNEL_BYPASS, TCP)
