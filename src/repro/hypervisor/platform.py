"""Virtualization platform assembly.

A :class:`VirtualizationPlatform` bundles everything a FaaS layer or an
experiment needs from the hypervisor: the host, the scheduler policy,
the cost model, the vanilla pause/resume path, and a snapshot store.
Factories build the two platforms the paper evaluates: Firecracker
(KVM + CFS) and Xen (credit2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.hypervisor.costs import CostModel, FIRECRACKER_COSTS, XEN_COSTS
from repro.hypervisor.cpu import CLOUDLAB_R650, Host, HostSpec
from repro.hypervisor.pause_resume import VanillaPauseResume
from repro.hypervisor.scheduler.base import SchedulerPolicy
from repro.hypervisor.scheduler.cfs import CfsPolicy
from repro.hypervisor.scheduler.credit2 import Credit2Policy
from repro.hypervisor.snapshot import SnapshotStore
from repro.obs.context import Observability, current_run
from repro.obs.metrics import MetricRegistry


class CountExport:
    """Registry collector for the per-vCPU counts the model keeps anyway.

    Run-queue sorted inserts, their scan steps, dequeues and load folds
    are plain ints on each :class:`~repro.hypervisor.runqueue.RunQueue`,
    and scheduler enqueues one int on the policy; nothing on the resume
    or pause path touches the registry.  At snapshot time this sums
    them over the host's built queues and adds the change since the
    last collection, so the registry holds the counts made since
    attach.  The ``load.fold.*`` counters exist from attach on; the
    run-queue and scheduler ones appear with their first count.
    """

    __slots__ = ("metrics", "host", "policy", "_last_len", "_seen", "_folds")

    def __init__(
        self, metrics: MetricRegistry, host: Host, policy: SchedulerPolicy
    ) -> None:
        self.metrics = metrics
        self.host = host
        self.policy = policy
        #: the registry's ``runqueue.last_len`` cell (see Host.attach_observability)
        self._last_len = host.last_len
        self._folds = (
            metrics.counter("load.fold.iterated", "vanilla per-entity load folds"),
            metrics.counter("load.fold.coalesced", "HORSE fused load folds"),
        )
        self._seen = self._totals()

    def _totals(self) -> Tuple[int, ...]:
        inserts = steps = dequeues = iterated = coalesced = 0
        for runqueue in self.host.runqueues.values():
            inserts += runqueue.sorted_inserts
            steps += runqueue.insert_scan_steps
            dequeues += runqueue.dequeue_count
            load = runqueue.load
            iterated += load.folds_iterated
            coalesced += load.folds_coalesced
        return (inserts, steps, dequeues, iterated, coalesced, self.policy.enqueues)

    def __call__(self) -> None:
        totals = self._totals()
        inserts, steps, dequeues, iterated, coalesced, enqueues = (
            now - seen for now, seen in zip(totals, self._seen)
        )
        self._seen = totals
        metrics = self.metrics
        self._folds[0].inc(iterated)
        self._folds[1].inc(coalesced)
        if inserts or dequeues:
            metrics.counter("runqueue.enqueue").inc(inserts)
            metrics.counter("runqueue.scan_steps").inc(steps)
            metrics.counter("runqueue.dequeue").inc(dequeues)
            length = self._last_len[0]
            gauge = metrics.gauge("runqueue.last_len")
            if length is not None:
                gauge.set(length)
        if enqueues:
            metrics.counter(f"scheduler.{self.policy.name}.enqueue").inc(enqueues)

    def freeze(self) -> None:
        """Export what is left, leave the registry, and let go of the
        host and the policy so nothing keeps the counted model alive."""
        self()
        self.metrics.remove_collector(self)
        self.host = self.policy = None


@dataclass
class VirtualizationPlatform:
    """A ready-to-use hypervisor instance."""

    name: str
    host: Host
    policy: SchedulerPolicy
    costs: CostModel
    vanilla: VanillaPauseResume
    snapshots: SnapshotStore
    #: the collector exporting into the attached registry, if it is live
    export: Optional[CountExport] = field(default=None, repr=False, compare=False)

    def attach_observability(self, obs: Observability) -> None:
        """Point every instrumented hypervisor component at *obs*.

        The model's counts go to *obs*'s registry through one
        :class:`CountExport`.  Attaching to a new registry first
        flushes the old one's export and freezes it, so each registry
        holds exactly the counts made while it was attached.
        """
        self.vanilla.attach_observability(obs)
        metrics = obs.metrics
        export = self.export
        if export is not None and export.metrics is not metrics:
            export.freeze()
            export = self.export = None
        self.host.attach_observability(obs)
        if export is None and metrics.enabled:
            self.export = CountExport(metrics, self.host, self.policy)
            metrics.add_collector(self.export)


def _build(
    name: str,
    costs: CostModel,
    policy: SchedulerPolicy,
    spec: HostSpec,
    reserved_ull_cores: int,
) -> VirtualizationPlatform:
    host = Host(
        spec=spec,
        sort_key=policy.sort_key,
        default_timeslice_ns=policy.default_timeslice_ns(),
        ull_timeslice_ns=round(costs.ull_timeslice_ns),
        reserved_ull_cores=reserved_ull_cores,
    )
    vanilla = VanillaPauseResume(host=host, policy=policy, costs=costs)
    platform = VirtualizationPlatform(
        name=name,
        host=host,
        policy=policy,
        costs=costs,
        vanilla=vanilla,
        snapshots=SnapshotStore(costs),
    )
    # Platforms built inside an ``obs.activate(...)`` block (the CLI's
    # ``trace`` command, tests) come up instrumented; the default is
    # the NULL bundle, i.e. a single enabled-check of overhead.
    run = current_run()
    platform.attach_observability(run.obs)
    if run.invariants is not None:
        run.invariants.watch_host(host)
    return platform


def firecracker_platform(
    spec: HostSpec = CLOUDLAB_R650,
    reserved_ull_cores: int = 1,
) -> VirtualizationPlatform:
    """Firecracker on KVM: microVM vCPUs are CFS-scheduled host threads."""
    return _build(
        "firecracker", FIRECRACKER_COSTS, CfsPolicy(), spec, reserved_ull_cores
    )


def xen_platform(
    spec: HostSpec = CLOUDLAB_R650,
    reserved_ull_cores: int = 1,
) -> VirtualizationPlatform:
    """Xen 4.17 with the credit2 scheduler (and the LightVM-style
    in-memory XenStore the paper applies, folded into the cost model)."""
    return _build("xen", XEN_COSTS, Credit2Policy(), spec, reserved_ull_cores)


def platform_by_name(name: str, **kwargs) -> VirtualizationPlatform:
    """Factory lookup used by experiment drivers and examples."""
    factories = {"firecracker": firecracker_platform, "xen": xen_platform}
    try:
        factory = factories[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown platform {name!r}; expected one of {sorted(factories)}"
        ) from None
    return factory(**kwargs)
