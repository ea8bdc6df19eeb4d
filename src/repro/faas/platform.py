"""The assembled FaaS platform.

:class:`FaaSPlatform` wires the virtualization substrate, the function
registry, the warm pool, the four start strategies, and the HORSE fast
path into one object experiments and examples drive.  The typical
session::

    faas = FaaSPlatform.build("firecracker", seed=42)
    faas.register(FunctionSpec("fw", FirewallWorkload(), vcpus=1))
    faas.provision_warm("fw", count=1, use_horse=True)
    invocation = faas.trigger("fw", StartType.HORSE)
    faas.engine.run(until=faas.engine.now + seconds(1))
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.hot_resume import HorseConfig, HorsePauseResume
from repro.core.ull_runqueue import UllRunqueueManager
from repro.faas.function import FunctionRegistry, FunctionSpec
from repro.faas.gateway import FaaSGateway
from repro.faas.invocation import Invocation, StartType
from repro.faas.pool import SandboxPool
from repro.faas.keepalive import FixedWindow, PrewarmPolicy
from repro.faas.startup import (
    ColdStart,
    HorseStart,
    RestoreStart,
    StartStrategy,
    WarmStart,
)
from repro.hypervisor.platform import VirtualizationPlatform, platform_by_name
from repro.hypervisor.sandbox import Sandbox, SandboxState
from repro.obs.context import Observability, current as current_obs
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import SECOND


class FaaSPlatform:
    """A single-host FaaS deployment over the simulated hypervisor."""

    def __init__(
        self,
        engine: Engine,
        virt: VirtualizationPlatform,
        rngs: RngRegistry,
        policy: Optional[PrewarmPolicy] = None,
        horse_config: HorseConfig = HorseConfig.full(),
        obs: Optional[Observability] = None,
    ) -> None:
        self.engine = engine
        self.virt = virt
        self.rngs = rngs
        #: Observability bundle; defaults to the active context (NULL
        #: unless the caller opted in with ``obs.activate(...)``).
        self.obs = obs if obs is not None else current_obs()
        self.virt.attach_observability(self.obs)
        self.registry = FunctionRegistry()
        self.ull_manager = UllRunqueueManager(virt.host)
        # The eviction hook is the memory accounting itself, not a
        # method of this platform: the pool must not point back at its
        # owner (DESIGN.md §10).
        self.pool = SandboxPool(
            engine,
            policy or FixedWindow(600 * SECOND),
            on_evict=self.ull_manager.reclaim,
            obs=self.obs,
        )
        self.horse = HorsePauseResume(
            host=virt.host,
            policy=virt.policy,
            costs=virt.costs,
            ull_manager=self.ull_manager,
            config=horse_config,
            obs=self.obs,
        )
        strategies: Dict[StartType, StartStrategy] = {
            StartType.COLD: ColdStart(virt),
            StartType.RESTORE: RestoreStart(virt),
            StartType.WARM: WarmStart(virt, self.pool),
            StartType.HORSE: HorseStart(virt, self.pool, self.horse),
        }
        self.gateway = FaaSGateway(
            engine=engine,
            virt=virt,
            registry=self.registry,
            pool=self.pool,
            strategies=strategies,
            rng=rngs.stream("gateway"),
            horse=self.horse,
            obs=self.obs,
        )

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        platform_name: str = "firecracker",
        seed: int = 0,
        reserved_ull_cores: int = 1,
        policy: Optional[PrewarmPolicy] = None,
        horse_config: HorseConfig = HorseConfig.full(),
    ) -> "FaaSPlatform":
        """One-call construction with a named hypervisor platform."""
        engine = Engine()
        virt = platform_by_name(
            platform_name, reserved_ull_cores=reserved_ull_cores
        )
        return cls(
            engine=engine,
            virt=virt,
            rngs=RngRegistry(seed),
            policy=policy,
            horse_config=horse_config,
        )

    # ------------------------------------------------------------------
    # Deployment & provisioning
    # ------------------------------------------------------------------
    def register(self, spec: FunctionSpec) -> None:
        self.registry.register(spec)
        if spec.provisioned_concurrency > 0:
            self.pool.mark_provisioned(spec.name, spec.provisioned_concurrency)

    def provision_warm(
        self, function_name: str, count: int, use_horse: Optional[bool] = None
    ) -> None:
        """Pre-create *count* paused sandboxes for the function.

        Provisioning happens ahead of triggers (the premium options:
        Azure Premium Functions, Lambda Provisioned Concurrency), so
        creation cost is not charged to any invocation.  ``use_horse``
        defaults to the function's uLL-ness: uLL sandboxes pause through
        the HORSE path so their P2SM state is precomputed.
        """
        if count < 1:
            raise ValueError(f"provision count must be >= 1, got {count}")
        spec = self.registry.get(function_name)
        horse_pause = spec.is_ull if use_horse is None else use_horse
        now = self.engine.now
        for _ in range(count):
            sandbox = Sandbox(
                vcpus=spec.vcpus, memory_mb=spec.memory_mb, is_ull=spec.is_ull
            )
            self.virt.host.allocate_memory(spec.memory_mb)
            self.virt.vanilla.place_initial(sandbox, now)
            if horse_pause:
                self.horse.pause(sandbox, now)
            else:
                self.virt.vanilla.pause(sandbox, now)
            self.pool.release(function_name, sandbox)

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def trigger(
        self,
        function_name: str,
        start_type: StartType,
        run_logic: bool = False,
        return_to_pool: bool = True,
        extra_delay_ns: int = 0,
    ) -> Invocation:
        return self.gateway.trigger(
            function_name,
            start_type,
            run_logic=run_logic,
            return_to_pool=return_to_pool,
            extra_delay_ns=extra_delay_ns,
        )

    # ------------------------------------------------------------------
    # Failure handling (repro.resilience)
    # ------------------------------------------------------------------
    def destroy_sandbox(self, sandbox: Sandbox) -> None:
        """Tear one sandbox down from any live state and free its memory.

        Used when an operation on the sandbox failed terminally (hung
        resume, host crash mid-execution): the sandbox is stopped, its
        HORSE artifacts and ull_runqueue assignment are detached, and
        its memory is returned to the host.
        """
        if sandbox.state is not SandboxState.STOPPED:
            sandbox.transition(SandboxState.STOPPED)
        self.ull_manager.reclaim(sandbox)

    def fail_all_pooled(self) -> int:
        """Destroy every idle pooled sandbox (node crash); returns the
        number destroyed."""
        destroyed = 0
        for sandboxes in self.pool.drain_all().values():
            for sandbox in sandboxes:
                self.destroy_sandbox(sandbox)
                destroyed += 1
        return destroyed

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"FaaSPlatform({self.virt.name}, functions={len(self.registry)}, "
            f"pooled={self.pool.total_size()})"
        )
