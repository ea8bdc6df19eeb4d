"""Failure domains: seeded, replayable infrastructure failures.

The injector models two independent failure domains over a
:class:`~repro.faas.cluster.FaaSCluster`:

* **node crashes** — whole hosts die and later recover.  Up-times are
  exponential draws from a per-host seeded stream; crash and recovery
  events go through the sim engine at ``EventPriority.FAILURE`` so a
  crash landing on the same nanosecond as user work strikes first and
  replays identically;
* **resume faults** — individual pause/resume operations fail via the
  hypervisor fault hooks: transient command errors (retryable), slow
  resumes (latency spike), and hung resumes (permanent stall the
  caller must time out).  Fault probability is per-host: a fixed
  fraction of hosts are *flaky* and concentrate most of the faults,
  which is exactly the asymmetry a circuit breaker exists to exploit.

Everything derives from ``(seed, FailureConfig)``; two same-seed runs
crash the same hosts at the same nanoseconds and fail the same resumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.faas.cluster import FaaSCluster
from repro.hypervisor.pause_resume import (
    RESUME_FAULT_HUNG,
    RESUME_FAULT_SLOW,
    RESUME_FAULT_TRANSIENT,
    ResumeFault,
)
from repro.hypervisor.sandbox import Sandbox
from repro.sim.event import EventPriority
from repro.sim.rng import RngRegistry
from repro.sim.units import milliseconds, seconds

#: Every injectable failure kind, in documentation order.
FAILURE_KINDS: Tuple[str, ...] = (
    "node_crash",
    RESUME_FAULT_TRANSIENT,
    RESUME_FAULT_SLOW,
    RESUME_FAULT_HUNG,
)

#: fraction of hosts that are flaky (at least one when rate > 0)
FLAKY_FRACTION = 0.25
#: fault-probability multiplier on flaky hosts
FLAKY_BIAS = 6.0
#: relative weights of the three resume-fault kinds
TRANSIENT_WEIGHT = 0.5
SLOW_WEIGHT = 0.3
HUNG_WEIGHT = 0.2
#: stall added by a slow resume, in µs (jittered 0.5x - 1.5x)
SLOW_STALL_US = 200.0
#: mean down-time after a host crash, in ms (jittered +/- 50 %)
HOST_RECOVERY_MS = 400.0


@dataclass(frozen=True)
class FailureConfig:
    """One knob (``failure_rate``) plus its decomposition.

    ``failure_rate`` in [0, 1) scales both domains: per-resume fault
    probability on flaky hosts is ``min(0.9, failure_rate *
    FLAKY_BIAS)`` (and ``failure_rate * calm_factor`` elsewhere), and
    mean host up-time is ``crash_mtbf_base_s / failure_rate``.
    """

    failure_rate: float = 0.1
    #: fault-probability multiplier on calm hosts
    calm_factor: float = 0.2
    #: mean up-time = crash_mtbf_base_s / failure_rate
    crash_mtbf_base_s: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate < 1.0:
            raise ValueError(
                f"failure_rate must be in [0, 1), got {self.failure_rate}"
            )

    def resume_fault_probability(self, flaky: bool) -> float:
        scale = FLAKY_BIAS if flaky else self.calm_factor
        return min(0.9, self.failure_rate * scale)

    def mean_uptime_ns(self) -> Optional[int]:
        if self.failure_rate == 0.0:
            return None
        return seconds(self.crash_mtbf_base_s / self.failure_rate)


class FailureInjector:
    """Applies a :class:`FailureConfig` to one cluster, deterministically.

    Usage::

        injector = FailureInjector(cluster, config, seed=7)
        injector.schedule_crashes(until_ns=seconds(10))
        # hooks installed; run the engine

    ``on_crash`` / ``on_recover`` listeners fire as ``f(index, now_ns)``
    — the resilient gateway uses them to fail in-flight work and to
    re-warm recovered hosts.
    """

    def __init__(
        self,
        cluster: FaaSCluster,
        config: FailureConfig,
        seed: int = 0,
        domain: int = 0,
    ) -> None:
        self.cluster = cluster
        self.config = config
        self.seed = seed
        #: failure-domain id — the shard unit in sharded runs.  Purely
        #: a label (trace records, repr); per-domain independence comes
        #: from the caller seeding each domain's injector separately.
        self.domain = domain
        self._rngs = RngRegistry(seed).fork("resilience-failures")
        self.fired: Dict[str, int] = {kind: 0 for kind in FAILURE_KINDS}
        self.on_crash: List[Callable[[int, int], None]] = []
        self.on_recover: List[Callable[[int, int], None]] = []
        self.flaky_hosts = self._pick_flaky_hosts()
        self._install_resume_hooks()

    # ------------------------------------------------------------------
    def _pick_flaky_hosts(self) -> Tuple[int, ...]:
        """Deterministically choose which hosts concentrate faults."""
        if self.config.failure_rate == 0.0:
            return ()
        count = len(self.cluster.hosts)
        flaky_count = max(1, round(count * FLAKY_FRACTION))
        rng = self._rngs.stream("flaky-pick")
        return tuple(sorted(rng.sample(range(count), flaky_count)))

    def _install_resume_hooks(self) -> None:
        for index, host in enumerate(self.cluster.hosts):
            hook = self._make_resume_hook(index)
            host.virt.vanilla.fault_hook = hook
            host.horse.fault_hook = hook

    def _make_resume_hook(self, index: int):
        probability = self.config.resume_fault_probability(
            index in self.flaky_hosts
        )
        rng = self._rngs.stream(f"resume:{index}")
        weights = (
            (RESUME_FAULT_TRANSIENT, TRANSIENT_WEIGHT),
            (RESUME_FAULT_SLOW, SLOW_WEIGHT),
            (RESUME_FAULT_HUNG, HUNG_WEIGHT),
        )
        total_weight = sum(weight for _, weight in weights)

        def hook(sandbox: Sandbox, now_ns: int) -> Optional[ResumeFault]:
            if probability <= 0.0 or rng.random() >= probability:
                return None
            pick = rng.random() * total_weight
            cursor = 0.0
            kind = weights[-1][0]
            for candidate, weight in weights:
                cursor += weight
                if pick < cursor:
                    kind = candidate
                    break
            self.fired[kind] += 1
            if kind == RESUME_FAULT_SLOW:
                stall = round(SLOW_STALL_US * 1000 * (0.5 + rng.random()))
                return ResumeFault(kind, stall_ns=stall)
            return ResumeFault(kind)

        return hook

    # ------------------------------------------------------------------
    def schedule_crashes(self, until_ns: int) -> int:
        """Pre-schedule every crash/recovery up to *until_ns*.

        All times are drawn up front from per-host streams, so the
        schedule is a pure function of ``(seed, config)`` regardless of
        what the workload does.  Returns the number of crashes planned.
        """
        mean_up_ns = self.config.mean_uptime_ns()
        if mean_up_ns is None:
            return 0
        engine = self.cluster.engine
        recovery_ns = milliseconds(HOST_RECOVERY_MS)
        planned = 0
        for index in range(len(self.cluster.hosts)):
            rng = self._rngs.stream(f"crash:{index}")
            t = engine.now
            while True:
                t += max(1, round(rng.expovariate(1.0 / mean_up_ns)))
                if t >= until_ns:
                    break
                engine.schedule_at(
                    t,
                    lambda i=index: self._crash(i),
                    priority=EventPriority.FAILURE,
                    label=f"node-crash:{index}",
                )
                planned += 1
                t += max(1, round(recovery_ns * (0.5 + rng.random())))
                engine.schedule_at(
                    t,
                    lambda i=index: self._recover(i),
                    priority=EventPriority.FAILURE,
                    label=f"node-recover:{index}",
                )
        return planned

    def _crash(self, index: int) -> None:
        now = self.cluster.engine.now
        if not self.cluster.health[index].up:
            return  # already down (overlapping draw); recovery pending
        lost = self.cluster.crash_host(index)
        self.fired["node_crash"] += 1
        host = self.cluster.hosts[index]
        if host.obs.enabled:
            host.obs.metrics.counter(
                "failures.node_crash", "injected node crashes"
            ).inc()
            host.obs.tracer.record_instant(
                "node.crash", now, category="resilience",
                host=index, pooled_lost=lost, domain=self.domain,
            )
        for listener in self.on_crash:
            listener(index, now)

    def _recover(self, index: int) -> None:
        now = self.cluster.engine.now
        if self.cluster.health[index].up:
            return
        self.cluster.recover_host(index)
        host = self.cluster.hosts[index]
        if host.obs.enabled:
            host.obs.tracer.record_instant(
                "node.recover", now, category="resilience",
                host=index, domain=self.domain,
            )
        for listener in self.on_recover:
            listener(index, now)

    def __repr__(self) -> str:
        return (
            f"FailureInjector(rate={self.config.failure_rate}, "
            f"domain={self.domain}, flaky={list(self.flaky_hosts)}, "
            f"fired={self.fired})"
        )


#: mean gateway-shard up-time = this / gateway_failure_rate (0.25 s at
#: rate 0.2 gives a 1.25 s MTBF per shard)
GATEWAY_MTBF_BASE_S = 0.25
#: mean control-plane recovery window, in ms (jittered +/- 50 %)
GATEWAY_RECOVERY_MS = 400.0


@dataclass(frozen=True)
class GatewayFailureConfig:
    """Crash/recovery schedule for *gateway shards* (control plane).

    Mirrors the host-level decomposition: mean shard up-time is
    ``GATEWAY_MTBF_BASE_S / gateway_failure_rate`` and recovery (the
    window the replacement takes to come up and replay its log) is
    jittered around ``GATEWAY_RECOVERY_MS``.  Rate 0 disables the domain
    entirely — the zero-failure oracle twin runs with the exact same
    arrival stream and host schedule, just no gateway crashes.
    """

    gateway_failure_rate: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.gateway_failure_rate < 1.0:
            raise ValueError(
                f"gateway_failure_rate must be in [0, 1), got "
                f"{self.gateway_failure_rate}"
            )

    def mean_uptime_ns(self) -> Optional[int]:
        if self.gateway_failure_rate == 0.0:
            return None
        return seconds(GATEWAY_MTBF_BASE_S / self.gateway_failure_rate)


class GatewayFailureInjector:
    """Crashes and recovers whole gateway shards, deterministically.

    The gateway failure domain is independent of the host domain: its
    RNG registry is forked under its own label, so enabling (or
    disabling) gateway crashes perturbs no host-level draw — the
    property the exactly-once differential oracle relies on.

    Crash/recovery events target the control plane
    (:meth:`~repro.controlplane.ControlPlane.crash_shard` /
    :meth:`~repro.controlplane.ControlPlane.recover_shard`); the plane
    fences the dead incarnation, replays the intent log into the
    replacement, and drains the frontend parking lot.
    """

    def __init__(
        self,
        plane,
        config: GatewayFailureConfig,
        seed: int = 0,
        domain: int = 0,
    ) -> None:
        self.plane = plane
        self.config = config
        self.seed = seed
        self.domain = domain
        self._rngs = RngRegistry(seed).fork("gateway-failures")
        self.crashes = 0
        self.recoveries = 0
        self.on_crash: List[Callable[[int, int], None]] = []
        self.on_recover: List[Callable[[int, int], None]] = []

    def schedule_crashes(self, until_ns: int) -> int:
        """Pre-schedule every shard crash/recovery up to *until_ns*.

        Same shape as the host injector: all times drawn up front from
        per-shard streams, crashes only before the horizon, the paired
        recovery scheduled unconditionally (a shard never stays down
        forever — required for the final drain to resolve parked and
        re-dispatched work).  Returns the number of crashes planned.
        """
        mean_up_ns = self.config.mean_uptime_ns()
        if mean_up_ns is None:
            return 0
        engine = self.plane.engine
        recovery_ns = milliseconds(GATEWAY_RECOVERY_MS)
        planned = 0
        for index in range(len(self.plane.shards)):
            rng = self._rngs.stream(f"crash:{index}")
            t = engine.now
            while True:
                t += max(1, round(rng.expovariate(1.0 / mean_up_ns)))
                if t >= until_ns:
                    break
                engine.schedule_at(
                    t,
                    lambda i=index: self._crash(i),
                    priority=EventPriority.FAILURE,
                    label=f"gateway-crash:{index}",
                )
                planned += 1
                t += max(1, round(recovery_ns * (0.5 + rng.random())))
                engine.schedule_at(
                    t,
                    lambda i=index: self._recover(i),
                    priority=EventPriority.FAILURE,
                    label=f"gateway-recover:{index}",
                )
        return planned

    def _crash(self, index: int) -> None:
        now = self.plane.engine.now
        if not self.plane.crash_shard(index, now):
            return  # already down (overlapping draw); recovery pending
        self.crashes += 1
        for listener in self.on_crash:
            listener(index, now)

    def _recover(self, index: int) -> None:
        if self.plane.shards[index].down is False:
            return
        now = self.plane.engine.now
        self.plane.recover_shard(index, now)
        self.recoveries += 1
        for listener in self.on_recover:
            listener(index, now)

    def __repr__(self) -> str:
        return (
            f"GatewayFailureInjector(rate={self.config.gateway_failure_rate}, "
            f"shards={len(self.plane.shards)}, crashes={self.crashes}, "
            f"recoveries={self.recoveries})"
        )
