"""Per-node circuit breakers (closed / open / half-open).

A breaker guards one host.  Consecutive attempt failures trip it OPEN;
while open, routing skips the host entirely (no request pays the cost
of discovering the same sick node again).  After ``open_ns`` of
simulated time the breaker admits one HALF_OPEN probe attempt at a
time: one success re-closes it, one failure re-opens it.

State machine (the only legal edges — checked by
``invariant_violations`` and the ``repro.check`` breaker checker)::

    CLOSED ──failures >= threshold──▶ OPEN
    OPEN ──open_ns elapsed──▶ HALF_OPEN
    HALF_OPEN ──probe success──▶ CLOSED
    HALF_OPEN ──probe failure──▶ OPEN

Every transition is timestamped and kept, so a chaos run can be audited
(and exported as ``repro.obs`` instants) after the fact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.obs.context import NULL_OBS, Observability
from repro.sim.units import milliseconds


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: Legal state-machine edges; anything else is an invariant violation.
LEGAL_TRANSITIONS = {
    (BreakerState.CLOSED, BreakerState.OPEN),
    (BreakerState.OPEN, BreakerState.HALF_OPEN),
    (BreakerState.HALF_OPEN, BreakerState.CLOSED),
    (BreakerState.HALF_OPEN, BreakerState.OPEN),
}

#: concurrent probe attempts allowed while HALF_OPEN
HALF_OPEN_PROBES = 1


@dataclass(frozen=True, slots=True)
class BreakerConfig:
    """Tunables for one circuit breaker."""

    #: consecutive failures that trip CLOSED -> OPEN
    failure_threshold: int = 3
    #: how long an OPEN breaker rejects before probing (simulated ns)
    open_ns: int = milliseconds(500)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.open_ns < 0:
            raise ValueError(f"open_ns must be >= 0, got {self.open_ns}")


@dataclass(frozen=True, slots=True)
class BreakerTransition:
    """One audited state change."""

    now_ns: int
    source: BreakerState
    target: BreakerState
    reason: str


class CircuitBreaker:
    """One host's breaker; all times are simulated nanoseconds."""

    __slots__ = (
        "config", "name", "obs", "state", "consecutive_failures",
        "opened_at_ns", "probes_in_flight", "transitions",
        "successes", "failures",
    )

    def __init__(
        self,
        config: BreakerConfig = BreakerConfig(),
        name: str = "",
        obs: Observability = NULL_OBS,
    ) -> None:
        self.config = config
        self.name = name
        self.obs = obs
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at_ns: Optional[int] = None
        self.probes_in_flight = 0
        self.transitions: List[BreakerTransition] = []
        self.successes = 0
        self.failures = 0

    # ------------------------------------------------------------------
    def _transition(self, target: BreakerState, now_ns: int, reason: str) -> None:
        record = BreakerTransition(now_ns, self.state, target, reason)
        self.transitions.append(record)
        self.state = target
        if self.obs.enabled:
            self.obs.metrics.counter(
                f"breaker.transition.{target.value}",
                "circuit breaker state entries",
            ).inc()
            self.obs.tracer.record_instant(
                "breaker.transition",
                now_ns,
                category="resilience",
                breaker=self.name,
                source=record.source.value,
                target=target.value,
                reason=reason,
            )

    # ------------------------------------------------------------------
    def allow(self, now_ns: int) -> bool:
        """May an attempt be routed through this breaker right now?

        An OPEN breaker whose cool-down elapsed lazily moves to
        HALF_OPEN here, so callers never need a timer event per breaker.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            assert self.opened_at_ns is not None
            if now_ns - self.opened_at_ns >= self.config.open_ns:
                self._transition(
                    BreakerState.HALF_OPEN, now_ns, "open interval elapsed"
                )
                self.probes_in_flight = 0
                return True
            return False
        return self.probes_in_flight < HALF_OPEN_PROBES

    def force_open(self, now_ns: int, reason: str = "forced open") -> None:
        """Trip the breaker administratively (CLOSED -> OPEN).

        The control plane uses this for conservative post-recovery
        rebuilds: a replacement gateway shard cannot know which hosts
        its predecessor's breakers were guarding (breaker state is not
        in the intent log by design), so it re-opens every breaker and
        lets the half-open probes rediscover health.  No-op unless the
        breaker is CLOSED — an already-OPEN breaker is already cautious.
        """
        if self.state is not BreakerState.CLOSED:
            return
        self._transition(BreakerState.OPEN, now_ns, reason)
        self.opened_at_ns = now_ns
        self.consecutive_failures = 0

    def on_attempt(self, now_ns: int) -> None:
        """An attempt was actually launched through this breaker."""
        if self.state is BreakerState.HALF_OPEN:
            self.probes_in_flight += 1

    def record_success(self, now_ns: int) -> None:
        self.successes += 1
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self.probes_in_flight = max(0, self.probes_in_flight - 1)
            self._transition(BreakerState.CLOSED, now_ns, "probe succeeded")
            self.opened_at_ns = None

    def record_failure(self, now_ns: int) -> None:
        self.failures += 1
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self.probes_in_flight = max(0, self.probes_in_flight - 1)
            self._transition(BreakerState.OPEN, now_ns, "probe failed")
            self.opened_at_ns = now_ns
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.config.failure_threshold
        ):
            self._transition(
                BreakerState.OPEN,
                now_ns,
                f"{self.consecutive_failures} consecutive failures",
            )
            self.opened_at_ns = now_ns

    # ------------------------------------------------------------------
    @property
    def open_count(self) -> int:
        """Times this breaker entered OPEN."""
        return sum(
            1 for t in self.transitions if t.target is BreakerState.OPEN
        )

    def invariant_violations(self) -> List[str]:
        """Breaker state-machine problems, as messages (empty = sound)."""
        violations: List[str] = []
        label = self.name or "breaker"
        previous: Tuple[BreakerState, int] = (BreakerState.CLOSED, 0)
        for record in self.transitions:
            if (record.source, record.target) not in LEGAL_TRANSITIONS:
                violations.append(
                    f"{label}: illegal transition {record.source.value} -> "
                    f"{record.target.value} at {record.now_ns}"
                )
            if record.source is not previous[0]:
                violations.append(
                    f"{label}: transition at {record.now_ns} leaves "
                    f"{record.source.value} but breaker was in "
                    f"{previous[0].value}"
                )
            if record.now_ns < previous[1]:
                violations.append(
                    f"{label}: transition timestamps not monotone at "
                    f"{record.now_ns}"
                )
            previous = (record.target, record.now_ns)
        if previous[0] is not self.state:
            violations.append(
                f"{label}: recorded transitions end in {previous[0].value} "
                f"but live state is {self.state.value}"
            )
        if self.state is BreakerState.OPEN and self.opened_at_ns is None:
            violations.append(f"{label}: OPEN without an opened_at timestamp")
        if self.probes_in_flight < 0:
            violations.append(
                f"{label}: negative probes_in_flight {self.probes_in_flight}"
            )
        return violations

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name or '?'}, {self.state.value}, "
            f"fails={self.consecutive_failures})"
        )
