"""Virtual CPUs: the schedulable entities of the hypervisor model."""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from repro.hypervisor.load_tracking import DEFAULT_ENTITY_WEIGHT

_vcpu_ids = itertools.count()


class VcpuState(enum.Enum):
    """Lifecycle of a vCPU, mirroring its sandbox plus queue residency."""

    OFFLINE = "offline"        # sandbox not started
    RUNNABLE = "runnable"      # on a run queue, waiting for the core
    RUNNING = "running"        # currently on the core
    PAUSED = "paused"          # removed from run queues (sandbox paused)


class Vcpu:
    """One virtual CPU of a sandbox.

    Schedulers order vCPUs by a policy-specific sort key fed by
    ``credit`` (credit2) or ``vruntime`` (CFS); both fields live here so
    a sandbox can migrate between platforms in tests.  ``state`` and
    ``runqueue_id`` are written in place by whatever moves the vCPU: the
    run queue's sorted insert, and the pause and resume paths.
    """

    __slots__ = (
        "vcpu_id",
        "index",
        "sandbox_id",
        "weight",
        "credit",
        "vruntime",
        "state",
        "runqueue_id",
    )

    def __init__(
        self,
        index: int,
        sandbox_id: str,
        weight: float = DEFAULT_ENTITY_WEIGHT,
        credit: float = 0.0,
        vruntime: float = 0.0,
    ) -> None:
        if index < 0:
            raise ValueError(f"vCPU index must be >= 0, got {index}")
        self.vcpu_id: int = next(_vcpu_ids)
        self.index = index
        self.sandbox_id = sandbox_id
        self.weight = weight
        self.credit = credit
        self.vruntime = vruntime
        self.state = VcpuState.OFFLINE
        self.runqueue_id: Optional[int] = None

    def mark_running(self) -> None:
        self.state = VcpuState.RUNNING

    def __repr__(self) -> str:
        return (
            f"Vcpu(#{self.vcpu_id} {self.sandbox_id}/{self.index} "
            f"{self.state.value} credit={self.credit:.1f})"
        )
