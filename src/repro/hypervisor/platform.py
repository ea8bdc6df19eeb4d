"""Virtualization platform assembly.

A :class:`VirtualizationPlatform` bundles everything a FaaS layer or an
experiment needs from the hypervisor: the host, the scheduler policy,
the cost model, the vanilla pause/resume path, and a snapshot store.
Factories build the two platforms the paper evaluates: Firecracker
(KVM + CFS) and Xen (credit2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hypervisor.costs import CostModel, FIRECRACKER_COSTS, XEN_COSTS
from repro.hypervisor.cpu import CLOUDLAB_R650, Host, HostSpec
from repro.hypervisor.pause_resume import VanillaPauseResume
from repro.hypervisor.scheduler.base import SchedulerPolicy
from repro.hypervisor.scheduler.cfs import CfsPolicy
from repro.hypervisor.scheduler.credit2 import Credit2Policy
from repro.hypervisor.snapshot import SnapshotStore
from repro.obs.context import Observability, current as current_obs


@dataclass
class VirtualizationPlatform:
    """A ready-to-use hypervisor instance."""

    name: str
    host: Host
    policy: SchedulerPolicy
    costs: CostModel
    vanilla: VanillaPauseResume
    snapshots: SnapshotStore

    def attach_observability(self, obs: Observability) -> None:
        """Point every instrumented hypervisor component at *obs*."""
        self.vanilla.obs = obs
        self.policy.obs = obs
        self.host.attach_observability(obs)


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
    platform.attach_observability(current_obs())
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
