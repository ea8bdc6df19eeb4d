"""CFS-style policy (Linux KVM / Firecracker hosts).

The completely fair scheduler orders entities by *virtual runtime*: the
entity that has run least (weighted) runs next.  Firecracker microVM
vCPUs are ordinary host threads scheduled by CFS, so this is the policy
active in the paper's Firecracker experiments.
"""

from __future__ import annotations

from operator import attrgetter

from repro.hypervisor.scheduler.base import SchedulerPolicy
from repro.hypervisor.vcpu import Vcpu
from repro.sim.units import milliseconds

#: Weight that maps 1 ns of real runtime to 1 ns of vruntime.
NICE_0_WEIGHT = 1024.0


class CfsPolicy(SchedulerPolicy):
    """Completely-fair-scheduler essentials: vruntime ordering."""

    name = "cfs"

    def __init__(self, timeslice_ns: int = milliseconds(5)) -> None:
        if timeslice_ns <= 0:
            raise ValueError(f"timeslice must be positive, got {timeslice_ns}")
        self._timeslice_ns = timeslice_ns
        self._min_vruntime = 0.0

    #: ``vcpu.vruntime``, read in C: every run-queue hop and snapshot
    #: key read calls it.
    sort_key = staticmethod(attrgetter("vruntime"))

    def on_enqueue(self, vcpu: Vcpu) -> None:
        self.observe_enqueue(vcpu)
        # A woken entity is placed at the queue's min vruntime so it
        # neither starves others nor is starved (CFS's sleeper logic,
        # reduced to its placement effect).
        if vcpu.vruntime < self._min_vruntime:
            vcpu.vruntime = self._min_vruntime

    def charge(self, vcpu: Vcpu, ran_ns: int) -> None:
        if ran_ns < 0:
            raise ValueError(f"negative runtime {ran_ns}")
        vcpu.vruntime += ran_ns * (NICE_0_WEIGHT / max(vcpu.weight, 1e-9))
        if vcpu.vruntime > self._min_vruntime:
            self._min_vruntime = max(self._min_vruntime, vcpu.vruntime - 1e9)

    def default_timeslice_ns(self) -> int:
        return self._timeslice_ns
