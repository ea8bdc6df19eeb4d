"""Sandbox start strategies: cold, restore, warm, and HORSE.

These are the four ways the evaluation obtains a ready sandbox
(Table 1, Figure 1, Figure 4):

* **cold** — build a sandbox from scratch: VMM setup, guest boot,
  language-runtime init, function load (~1.5 s total);
* **restore** — FaaSnap-style snapshot restore (~1300 us);
* **warm** — resume a paused pool sandbox through the *vanilla*
  resume path (~1.1 us at 1 vCPU, grows with vCPUs);
* **horse** — resume through the HORSE fast path (~130-150 ns, flat).

Each strategy returns the ready sandbox plus the initialization
duration in simulated ns; the gateway stitches those into invocation
timelines.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core.hot_resume import HorsePauseResume
from repro.faas.function import FunctionSpec
from repro.faas.invocation import StartType
from repro.faas.pool import SandboxPool
from repro.hypervisor.platform import VirtualizationPlatform
from repro.hypervisor.sandbox import Sandbox, SandboxState


class PoolMissError(Exception):
    """A warm-path strategy found no pooled sandbox for the function."""


@dataclass
class StartOutcome:
    """A ready (RUNNING) sandbox and how long readiness took."""

    sandbox: Sandbox
    init_ns: int
    start_type: StartType


class StartStrategy(abc.ABC):
    """Obtains a ready sandbox for one function trigger."""

    start_type: StartType

    @abc.abstractmethod
    def obtain(self, spec: FunctionSpec, now_ns: int) -> StartOutcome:
        """Produce a RUNNING sandbox for *spec*; charges init time."""


class ColdStart(StartStrategy):
    """Boot a brand-new sandbox (paper's *cold* scenario)."""

    start_type = StartType.COLD

    def __init__(self, virt: VirtualizationPlatform) -> None:
        self.virt = virt

    def obtain(self, spec: FunctionSpec, now_ns: int) -> StartOutcome:
        sandbox = Sandbox(
            vcpus=spec.vcpus, memory_mb=spec.memory_mb, is_ull=spec.is_ull
        )
        self.virt.host.allocate_memory(spec.memory_mb)
        self.virt.vanilla.place_initial(sandbox, now_ns)
        return StartOutcome(
            sandbox=sandbox,
            init_ns=self.virt.costs.cold_start_ns,
            start_type=self.start_type,
        )


class RestoreStart(StartStrategy):
    """FaaSnap-style restore from a per-function snapshot."""

    start_type = StartType.RESTORE

    def __init__(self, virt: VirtualizationPlatform) -> None:
        self.virt = virt

    def _snapshot_name(self, spec: FunctionSpec) -> str:
        return f"faasnap:{spec.name}"

    def ensure_snapshot(self, spec: FunctionSpec, now_ns: int) -> None:
        """Capture the function's template snapshot once (offline work,
        not charged to any invocation)."""
        name = self._snapshot_name(spec)
        if name in self.virt.snapshots:
            return
        template = Sandbox(
            vcpus=spec.vcpus, memory_mb=spec.memory_mb, is_ull=spec.is_ull
        )
        self.virt.host.allocate_memory(spec.memory_mb)
        self.virt.vanilla.place_initial(template, now_ns)
        self.virt.snapshots.snapshot(name, template)
        # The template itself is torn down after snapshotting.
        self.virt.vanilla.pause(template, now_ns)
        template.transition(SandboxState.STOPPED)
        self.virt.host.release_memory(spec.memory_mb)

    def obtain(self, spec: FunctionSpec, now_ns: int) -> StartOutcome:
        self.ensure_snapshot(spec, now_ns)
        sandbox, restore_ns = self.virt.snapshots.restore(self._snapshot_name(spec))
        self.virt.host.allocate_memory(spec.memory_mb)
        self.virt.vanilla.place_initial(sandbox, now_ns)
        return StartOutcome(
            sandbox=sandbox, init_ns=restore_ns, start_type=self.start_type
        )


class WarmStart(StartStrategy):
    """Resume a pooled sandbox through the vanilla resume path."""

    start_type = StartType.WARM

    def __init__(self, virt: VirtualizationPlatform, pool: SandboxPool) -> None:
        self.virt = virt
        self.pool = pool

    def obtain(self, spec: FunctionSpec, now_ns: int) -> StartOutcome:
        sandbox = self.pool.acquire(spec.name)
        if sandbox is None:
            raise PoolMissError(
                f"no warm sandbox pooled for {spec.name!r}; provision first"
            )
        result = self.virt.vanilla.resume(sandbox, now_ns)
        return StartOutcome(
            sandbox=sandbox, init_ns=result.total_ns, start_type=self.start_type
        )


class HorseStart(StartStrategy):
    """Resume a pooled uLL sandbox through the HORSE fast path."""

    start_type = StartType.HORSE

    def __init__(
        self,
        virt: VirtualizationPlatform,
        pool: SandboxPool,
        horse: HorsePauseResume,
    ) -> None:
        self.virt = virt
        self.pool = pool
        self.horse = horse

    def obtain(self, spec: FunctionSpec, now_ns: int) -> StartOutcome:
        sandbox = self.pool.acquire(spec.name)
        if sandbox is None:
            raise PoolMissError(
                f"no HORSE-paused sandbox pooled for {spec.name!r}; "
                "provision first"
            )
        result = self.horse.resume(sandbox, now_ns)
        return StartOutcome(
            sandbox=sandbox, init_ns=result.total_ns, start_type=self.start_type
        )
