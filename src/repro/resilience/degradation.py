"""Graceful degradation: the hot → warm → cold ladder and load shedding.

Two mechanisms keep the platform answering *something* instead of
collapsing tail latency when the fast path breaks:

* the **degradation ladder** — a request that wanted a HORSE hot resume
  falls back to a vanilla warm resume after a fast-path failure, and to
  a cold start after that (or immediately, when no pooled sandbox
  exists anywhere).  Every step down is explicit and counted;
* the **admission controller** — under overload the platform sheds the
  lowest-priority work at the door.  Capacity above the low-priority
  watermark is reserved headroom only priority >= ``RESERVED_PRIORITY``
  requests may use, so load shedding rejects cheap work first and uLL
  traffic last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.faas.invocation import StartType

#: The ladder, fastest first.  RESTORE is deliberately absent: snapshot
#: restore needs per-function snapshot templates which a degraded node
#: cannot assume, so the chain steps straight to the always-possible
#: cold boot.
DEGRADATION_LADDER = (StartType.HORSE, StartType.WARM, StartType.COLD)

#: minimum priority allowed to use the reserved admission headroom
RESERVED_PRIORITY = 1


def ladder_level(start_type: StartType) -> int:
    """Position of *start_type* on the ladder (COLD for off-ladder)."""
    try:
        return DEGRADATION_LADDER.index(start_type)
    except ValueError:
        return len(DEGRADATION_LADDER) - 1


def degrade(start_type: StartType) -> StartType:
    """One step down the ladder (COLD degrades to itself)."""
    level = ladder_level(start_type)
    return DEGRADATION_LADDER[min(level + 1, len(DEGRADATION_LADDER) - 1)]


@dataclass(frozen=True)
class AdmissionConfig:
    """Load-shedding thresholds for the admission controller."""

    #: maximum concurrently admitted (non-terminal) requests
    capacity: int = 64
    #: slots above ``capacity - reserved_slots`` need high priority
    reserved_slots: int = 8

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if not 0 <= self.reserved_slots < self.capacity:
            raise ValueError(
                f"reserved_slots must be in [0, capacity), got "
                f"{self.reserved_slots}"
            )


class AdmissionController:
    """Accept-or-shed decisions; the caller reports occupancy."""

    def __init__(self, config: AdmissionConfig = AdmissionConfig()) -> None:
        self.config = config
        self.admitted = 0
        self.shed = 0
        self.shed_by_priority: Dict[int, int] = {}

    def limit_for(self, priority: int) -> int:
        """Concurrency watermark applying to *priority* requests."""
        if priority >= RESERVED_PRIORITY:
            return self.config.capacity
        return self.config.capacity - self.config.reserved_slots

    def admit(self, priority: int, in_flight: int) -> bool:
        """Decide one arrival; updates the shed/admit counters."""
        if in_flight < self.limit_for(priority):
            self.admitted += 1
            return True
        self.shed += 1
        self.shed_by_priority[priority] = (
            self.shed_by_priority.get(priority, 0) + 1
        )
        return False


@dataclass
class DegradationStats:
    """Ladder usage over one run, per transition tag."""

    #: "horse->warm", "warm->cold", ... -> count
    transitions: Dict[str, int] = field(default_factory=dict)

    def record(self, source: StartType, target: StartType) -> None:
        if source is target:
            return
        tag = f"{source.value}->{target.value}"
        self.transitions[tag] = self.transitions.get(tag, 0) + 1

    def total(self) -> int:
        return sum(self.transitions.values())
