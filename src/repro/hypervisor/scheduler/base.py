"""Scheduler policy interface.

The paper notes the run-queue sort attribute "depends on the
virtualization system and the scheduler algorithm used" — credit2 sorts
by remaining credit on Xen, CFS by virtual runtime on KVM.  A policy
supplies the sort key, the default timeslice, and the bookkeeping
applied when a vCPU consumes CPU time, so the same run-queue and
pause/resume machinery serves both platforms.
"""

from __future__ import annotations

import abc

from repro.hypervisor.vcpu import Vcpu


class SchedulerPolicy(abc.ABC):
    """Strategy object: how a platform orders and charges vCPUs."""

    #: Human-readable policy name ("credit2", "cfs").
    name: str = "abstract"

    def __init__(self) -> None:
        #: ``on_enqueue`` calls so far; the platform's collector exports
        #: them as ``scheduler.<name>.enqueue``.
        self.enqueues = 0

    @abc.abstractmethod
    def sort_key(self, vcpu: Vcpu) -> float:
        """Run-queue ordering key; smallest runs first."""

    @abc.abstractmethod
    def on_enqueue(self, vcpu: Vcpu) -> None:
        """Normalize per-vCPU accounting when it becomes runnable, and
        add one to :attr:`enqueues`."""

    @abc.abstractmethod
    def charge(self, vcpu: Vcpu, ran_ns: int) -> None:
        """Account *ran_ns* of CPU time consumed by *vcpu*."""

    @abc.abstractmethod
    def default_timeslice_ns(self) -> int:
        """Preemption quantum for general-purpose run queues."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
