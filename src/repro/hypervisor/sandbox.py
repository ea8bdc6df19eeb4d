"""Sandboxes: the microVMs / VMs the FaaS platform runs functions in.

A sandbox owns its vCPUs and memory and moves through a strict
lifecycle state machine; the pause/resume transitions are the ones the
paper optimizes.  HORSE-specific pause-time artifacts (the sorted
``merge_vcpus`` list, the P2SM precomputed state, the coalesced load
update) hang off the sandbox exactly as the paper describes ("save
these two values as an attribute of the sandbox").
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, List, Optional

from repro.core.coalesce import CoalescedUpdate
from repro.hypervisor.vcpu import Vcpu

if TYPE_CHECKING:  # import cycle guard: p2sm only needed for typing
    from repro.core.p2sm import P2SMState

_sandbox_seq = itertools.count()


class SandboxState(enum.Enum):
    CREATING = "creating"
    RUNNING = "running"
    PAUSED = "paused"
    RESUMING = "resuming"
    STOPPED = "stopped"


#: Legal state-machine edges; anything else raises SandboxError.
_TRANSITIONS = {
    SandboxState.CREATING: {SandboxState.RUNNING, SandboxState.STOPPED},
    SandboxState.RUNNING: {SandboxState.PAUSED, SandboxState.STOPPED},
    SandboxState.PAUSED: {SandboxState.RESUMING, SandboxState.STOPPED},
    SandboxState.RESUMING: {SandboxState.RUNNING, SandboxState.STOPPED},
    SandboxState.STOPPED: set(),
}


class SandboxError(Exception):
    """Illegal sandbox operation (bad transition, wrong state, ...)."""


class Sandbox:
    """One microVM with its vCPUs, memory, and pause/resume artifacts."""

    def __init__(
        self,
        vcpus: int,
        memory_mb: int,
        sandbox_id: Optional[str] = None,
        is_ull: bool = False,
    ) -> None:
        if vcpus < 1:
            raise SandboxError(f"sandbox needs >= 1 vCPU, got {vcpus}")
        if memory_mb < 1:
            raise SandboxError(f"sandbox needs >= 1 MB, got {memory_mb}")
        self.sandbox_id = sandbox_id or f"sb-{next(_sandbox_seq)}"
        self.memory_mb = memory_mb
        self.is_ull = is_ull
        self.state = SandboxState.CREATING
        self.vcpus: List[Vcpu] = [
            Vcpu(index=i, sandbox_id=self.sandbox_id) for i in range(vcpus)
        ]
        # -- HORSE pause-time artifacts (populated by the fast path) ----
        #: Sandbox vCPUs pre-sorted by the active scheduler key.
        self.merge_vcpus: Optional[List[Vcpu]] = None
        #: Precomputed arrayB/posA against the assigned ull_runqueue.
        self.p2sm_state: Optional["P2SMState"] = None
        #: Precomputed alpha^n and beta term for the fused load update.
        self.coalesced_update: Optional[CoalescedUpdate] = None
        #: ull_runqueue this paused sandbox is tied to (HORSE §4.1.3).
        self.assigned_ull_runqueue: Optional[int] = None
        # -- lifecycle bookkeeping ---------------------------------------
        self.pause_count = 0
        self.resume_count = 0

    # ------------------------------------------------------------------
    @property
    def vcpu_count(self) -> int:
        return len(self.vcpus)

    def transition(self, target: SandboxState) -> None:
        """Move to *target*, enforcing the lifecycle state machine."""
        if target not in _TRANSITIONS[self.state]:
            raise SandboxError(
                f"{self.sandbox_id}: illegal transition "
                f"{self.state.value} -> {target.value}"
            )
        self.state = target
        if target is SandboxState.PAUSED:
            self.pause_count += 1

    def require_state(self, *allowed: SandboxState) -> None:
        """Raise unless the sandbox is in one of *allowed* states."""
        if self.state not in allowed:
            names = "/".join(s.value for s in allowed)
            raise SandboxError(
                f"{self.sandbox_id}: expected state {names}, is {self.state.value}"
            )

    def clear_horse_artifacts(self) -> None:
        """Drop pause-time precomputation (after resume or on stop)."""
        self.merge_vcpus = None
        self.p2sm_state = None
        self.coalesced_update = None
        self.assigned_ull_runqueue = None

    def __repr__(self) -> str:
        kind = "uLL " if self.is_ull else ""
        return (
            f"Sandbox({self.sandbox_id}, {kind}{self.vcpu_count} vCPU, "
            f"{self.memory_mb} MB, {self.state.value})"
        )
