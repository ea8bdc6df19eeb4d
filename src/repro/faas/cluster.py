"""Multi-host FaaS cluster (extension beyond the paper's single node).

The paper evaluates one server; a deployable platform schedules
sandboxes across many.  :class:`FaaSCluster` runs one
:class:`~repro.faas.platform.FaaSPlatform` per host over a shared
engine and routes each trigger with a pluggable placement policy.
Functions are registered (and optionally pre-warmed) on every host, so
any host can serve any function — the provisioned-concurrency model.

Placement policies:

* ``round-robin`` — cycle hosts (baseline);
* ``least-loaded`` — host with the fewest in-flight invocations;
* ``warm-affinity`` — prefer hosts with a pooled warm sandbox for the
  function, falling back to least-loaded (avoids needless cold starts).

Every policy chooses among the cluster's *routable* hosts only: nodes
marked down (crashed) are skipped, as is any node vetoed by the
cluster's ``host_gate`` (the resilience layer installs a per-node
circuit breaker there).  Warm-path misses never silently cold-start:
the degradation from the requested start type is explicit, counted per
transition in :class:`ClusterStats` and traceable per trigger.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.hot_resume import HorseConfig
from repro.faas.function import FunctionSpec
from repro.faas.invocation import Invocation, StartType
from repro.faas.platform import FaaSPlatform
from repro.hypervisor.platform import platform_by_name
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


class NoHealthyHostError(Exception):
    """Every host is down or gated — nothing can serve."""


@dataclass
class NodeHealth:
    """One host's availability, as the control plane sees it."""

    up: bool = True
    crashes: int = 0
    recoveries: int = 0


def plan_start(
    pool_size: int, requested: StartType
) -> Tuple[StartType, Optional[str]]:
    """The degradation decision for one trigger, given how many pooled
    sandboxes of the function the chosen host holds.

    Warm-path requests (HORSE hot resume, vanilla warm resume) need a
    pooled sandbox; when the host's pool is empty the trigger falls
    through to a cold start.  Returns ``(effective, reason)`` where
    *reason* is None for an undegraded start and a ``"<from>->cold"``
    tag otherwise — callers must surface it, never swallow it.  The
    cluster decides this per trigger and the resilient gateway per
    attempt, before it touches the host.
    """
    if requested in (StartType.WARM, StartType.HORSE) and pool_size == 0:
        return StartType.COLD, f"{requested.value}->cold"
    return requested, None


class PlacementPolicy(abc.ABC):
    """Chooses the host index for one trigger."""

    name: str = "abstract"

    def choose(self, cluster: "FaaSCluster", function_name: str) -> int:
        """Return the index of the host to route to.

        Only routable hosts (healthy, not vetoed by the host gate) are
        returned; raises :class:`NoHealthyHostError` when there are none.
        """
        return self.choose_from(
            cluster, function_name, cluster.routable_hosts()
        )

    @abc.abstractmethod
    def choose_from(
        self, cluster: "FaaSCluster", function_name: str, candidates: List[int]
    ) -> int:
        """Pick one of *candidates* (a non-empty, ascending routable
        list).  Callers that already computed routability — the
        resilient gateway checks it on every launch attempt — use this
        directly to avoid recomputing it inside the policy.
        """


class RoundRobinPlacement(PlacementPolicy):
    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def choose_from(
        self, cluster: "FaaSCluster", function_name: str, candidates: List[int]
    ) -> int:
        index = candidates[self._next % len(candidates)]
        self._next += 1
        return index


def _least_loaded_of(cluster: "FaaSCluster", candidates: List[int]) -> int:
    """Lowest in-flight count among *candidates*, lowest index on ties.

    Candidates arrive in ascending index order, so a strict ``<`` on the
    in-flight count preserves the ``min`` over ``(in_flight, i)`` tuple
    semantics without allocating a key tuple per host.  Placement runs
    once per launch attempt — including every retry of the chaos study's
    no-host rewait loop — so this is a hot path.
    """
    in_flight = cluster.in_flight
    best = candidates[0]
    best_load = in_flight[best]
    for i in candidates:
        load = in_flight[i]
        if load < best_load:
            best = i
            best_load = load
    return best


class LeastLoadedPlacement(PlacementPolicy):
    name = "least-loaded"

    def choose_from(
        self, cluster: "FaaSCluster", function_name: str, candidates: List[int]
    ) -> int:
        return _least_loaded_of(cluster, candidates)


class WarmAffinityPlacement(PlacementPolicy):
    name = "warm-affinity"

    def choose_from(
        self, cluster: "FaaSCluster", function_name: str, candidates: List[int]
    ) -> int:
        hosts = cluster.hosts
        warm = [i for i in candidates if hosts[i].pool.size(function_name) > 0]
        return _least_loaded_of(cluster, warm if warm else candidates)


@dataclass
class ClusterStats:
    triggers: int = 0
    per_host_triggers: Dict[int, int] = field(default_factory=dict)
    cold_fallbacks: int = 0
    #: explicit degradations, counted per transition tag ("horse->cold")
    degraded: Dict[str, int] = field(default_factory=dict)
    #: host crashes / recoveries observed by the routing layer
    crashes: int = 0
    recoveries: int = 0


class FaaSCluster:
    """A fleet of single-host platforms behind one routing layer."""

    def __init__(
        self,
        hosts: int,
        platform_name: str = "firecracker",
        seed: int = 0,
        placement: Optional[PlacementPolicy] = None,
        horse_config: HorseConfig = HorseConfig.full(),
        engine: Optional[Engine] = None,
    ) -> None:
        if hosts < 1:
            raise ValueError(f"cluster needs >= 1 host, got {hosts}")
        # Several clusters may share one engine (the sharded control
        # plane runs one cluster per gateway shard on the cell's clock).
        self.engine = engine if engine is not None else Engine()
        root = RngRegistry(seed)
        self.hosts: List[FaaSPlatform] = [
            FaaSPlatform(
                engine=self.engine,
                virt=platform_by_name(platform_name),
                rngs=root.fork(f"host-{index}"),
                horse_config=horse_config,
            )
            for index in range(hosts)
        ]
        self.placement = placement or WarmAffinityPlacement()
        self.in_flight: Dict[int, int] = {i: 0 for i in range(hosts)}
        self.stats = ClusterStats()
        self.health: List[NodeHealth] = [NodeHealth() for _ in range(hosts)]
        #: Optional routing veto consulted per host (the resilience
        #: layer points this at its per-node circuit breakers).
        self.host_gate: Optional[Callable[[int], bool]] = None
        #: host index -> accelerator tags ("gpu", ...).  Empty dict =
        #: homogeneous cluster; dispatch policies skip the eligibility
        #: filter entirely then, keeping the common path allocation-free.
        self.accelerators: Dict[int, Tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # Health & routability
    # ------------------------------------------------------------------
    def routable_or_empty(self, exclude: Optional[int] = None) -> List[int]:
        """Hosts a trigger may be routed to right now — empty when none.

        The resilient gateway checks routability on every attempt and
        capacity wake; returning an empty list lets it branch instead
        of paying exception machinery when nothing is routable.  A
        hedge passes its primary's host as *exclude*: it must land on
        a different node.  The host gate is never asked about it.
        """
        gate = self.host_gate
        return [
            i
            for i, health in enumerate(self.health)
            if health.up and i != exclude and (gate is None or gate(i))
        ]

    def routable_hosts(self) -> List[int]:
        """Hosts a trigger may be routed to right now.

        Raises :class:`NoHealthyHostError` when empty so no caller can
        accidentally treat "nowhere to go" as index 0.
        """
        candidates = self.routable_or_empty()
        if not candidates:
            raise NoHealthyHostError(
                f"no routable host ({len(self.hosts)} total)"
            )
        return candidates

    def mark_down(self, index: int) -> None:
        """Take a host out of routing (crash detected)."""
        health = self.health[index]
        if not health.up:
            return
        health.up = False
        health.crashes += 1
        self.stats.crashes += 1

    def mark_up(self, index: int) -> None:
        """Return a recovered host to routing."""
        health = self.health[index]
        if health.up:
            return
        health.up = True
        health.recoveries += 1
        self.stats.recoveries += 1

    def crash_host(self, index: int) -> int:
        """Crash one host: mark it down and destroy its warm pool.

        Returns the number of pooled sandboxes lost.  In-flight
        invocations on the host are the resilience layer's problem (it
        tracks them and re-dispatches); the cluster only owns routing
        state and pooled capacity.
        """
        self.mark_down(index)
        return self.hosts[index].fail_all_pooled()

    def recover_host(self, index: int) -> None:
        """Bring a crashed host back (empty-pooled until re-warmed)."""
        self.mark_up(index)

    # ------------------------------------------------------------------
    def tag_accelerator(self, index: int, *tags: str) -> None:
        """Attach accelerator tags ("gpu", ...) to one host.

        A function whose spec names an ``accelerator`` is only eligible
        for hosts carrying that tag.  Tags survive crash/recovery — the
        hardware does not un-plug when the node reboots.
        """
        if not 0 <= index < len(self.hosts):
            raise ValueError(
                f"host index {index} out of range (cluster has "
                f"{len(self.hosts)} hosts)"
            )
        cleaned = tuple(sorted({t.strip() for t in tags if t.strip()}))
        if not cleaned:
            raise ValueError("tag_accelerator needs at least one tag")
        existing = self.accelerators.get(index, ())
        self.accelerators[index] = tuple(sorted(set(existing) | set(cleaned)))

    # ------------------------------------------------------------------
    def register(self, spec: FunctionSpec) -> None:
        """Deploy the function on every host."""
        for host in self.hosts:
            host.register(spec)

    def provision_warm(
        self, function_name: str, per_host: int, use_horse: Optional[bool] = None
    ) -> None:
        for host in self.hosts:
            host.provision_warm(function_name, count=per_host, use_horse=use_horse)

    # ------------------------------------------------------------------
    def trigger(
        self, function_name: str, start_type: StartType, **kwargs
    ) -> Invocation:
        """Route one trigger via the placement policy."""
        index = self.placement.choose(self, function_name)
        return self.trigger_on(index, function_name, start_type, **kwargs)

    def trigger_on(
        self, index: int, function_name: str, start_type: StartType, **kwargs
    ) -> Invocation:
        """Fire one trigger on a specific host.

        Warm-path pool misses degrade to cold *explicitly*: the
        transition is counted in ``stats.degraded`` (and the legacy
        ``cold_fallbacks`` counter) and, when tracing, recorded as a
        ``cluster.degrade`` instant — never silently.
        """
        if not self.health[index].up:
            raise NoHealthyHostError(f"host {index} is down")
        host = self.hosts[index]
        self.stats.triggers += 1
        self.stats.per_host_triggers[index] = (
            self.stats.per_host_triggers.get(index, 0) + 1
        )
        effective, degraded = plan_start(
            host.pool.size(function_name), start_type
        )
        if degraded is not None:
            self.stats.degraded[degraded] = self.stats.degraded.get(degraded, 0) + 1
            self.stats.cold_fallbacks += 1
            if host.obs.enabled:
                host.obs.metrics.counter(
                    f"cluster.degrade.{degraded}",
                    "warm-path miss degraded to cold",
                ).inc()
                if host.obs.tracer.enabled:
                    host.obs.tracer.record_instant(
                        "cluster.degrade", self.engine.now, category="cluster",
                        function=function_name, host=index, transition=degraded,
                    )
        self.in_flight[index] += 1
        try:
            invocation = host.trigger(function_name, effective, **kwargs)
        except BaseException:
            # A failed trigger (injected resume fault, pool error) must
            # not leak in-flight accounting — placement would otherwise
            # see a phantom load on this host forever.
            self.in_flight[index] -= 1
            raise
        self.engine.schedule_at(
            invocation.exec_end_ns,
            lambda: self._finish(index),
            label=f"cluster-finish:{invocation.invocation_id}",
            transient=True,
        )
        return invocation

    def _finish(self, index: int) -> None:
        self.in_flight[index] -= 1

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        up = sum(h.up for h in self.health)
        return (
            f"FaaSCluster(hosts={len(self.hosts)}, up={up}, "
            f"placement={self.placement.name}, triggers={self.stats.triggers})"
        )
