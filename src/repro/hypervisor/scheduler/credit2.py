"""Credit2-style policy (Xen).

Credit2 gives each vCPU a credit budget that burns while it runs; run
queues are kept sorted so "the process with the least remaining credit
first" — the paper's description — really means the queue is ordered by
how much credit remains, and the scheduler picks the head.

Faithful simplifications: a single global credit reset threshold
(instead of per-runqueue epochs) and weight-proportional burn rates.
"""

from __future__ import annotations

from repro.hypervisor.scheduler.base import SchedulerPolicy
from repro.hypervisor.vcpu import Vcpu
from repro.sim.units import milliseconds

#: Fresh credit grant on (re)entry to a queue, in credit units.
CREDIT_INITIAL = 10_000.0

#: Credits burned per millisecond of CPU at weight 1024.
CREDIT_BURN_PER_MS = 500.0

#: When the head's credit dips below this, everyone gets a refill.
CREDIT_RESET_THRESHOLD = 0.0


class Credit2Policy(SchedulerPolicy):
    """Xen's credit2 scheduler, reduced to its queue-ordering essence."""

    name = "credit2"

    def __init__(self, timeslice_ns: int = milliseconds(5)) -> None:
        if timeslice_ns <= 0:
            raise ValueError(f"timeslice must be positive, got {timeslice_ns}")
        super().__init__()
        self._timeslice_ns = timeslice_ns

    def sort_key(self, vcpu: Vcpu) -> float:
        # Head of queue = next to run = most deserving = *highest*
        # remaining credit; the list sorts ascending, so negate.
        return -vcpu.credit

    def on_enqueue(self, vcpu: Vcpu) -> None:
        self.enqueues += 1
        if vcpu.credit <= CREDIT_RESET_THRESHOLD:
            vcpu.credit = CREDIT_INITIAL

    def charge(self, vcpu: Vcpu, ran_ns: int) -> None:
        if ran_ns < 0:
            raise ValueError(f"negative runtime {ran_ns}")
        weight_scale = vcpu.weight / 1024.0
        vcpu.credit -= CREDIT_BURN_PER_MS * (ran_ns / 1_000_000.0) / max(
            weight_scale, 1e-9
        )

    def default_timeslice_ns(self) -> int:
        return self._timeslice_ns
