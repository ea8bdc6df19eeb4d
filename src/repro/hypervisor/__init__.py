"""Simulated virtualization substrate (Firecracker/KVM-like, Xen-like).

Real run queues, schedulers, load tracking, DVFS and sandbox lifecycle
with simulated-time costs calibrated against the paper's measurements.
"""

from repro.hypervisor.costs import (
    CostModel,
    FIRECRACKER_COSTS,
    XEN_COSTS,
    cost_model_for,
)
from repro.hypervisor.cpu import CLOUDLAB_R650, EDGE_NODE, Host, HostSpec
from repro.hypervisor.dispatch import CoreDispatcher, HostDispatcher, WorkItem
from repro.hypervisor.energy import (
    CorePowerModel,
    frequency_error_ratio,
)
from repro.hypervisor.memory import (
    DEFAULT_WORKING_SET,
    GuestMemory,
    LazyRestoreModel,
    WorkingSet,
)
from repro.hypervisor.dvfs import DvfsGovernor, FrequencyRange, GovernorMode
from repro.hypervisor.load_tracking import (
    DECAY_FACTOR,
    DEFAULT_ENTITY_WEIGHT,
    PELT_PERIOD_NS,
    RunqueueLoad,
)
from repro.hypervisor.pause_resume import (
    HOT_STEPS,
    STEP_FINALIZE,
    STEP_LOAD,
    STEP_LOCK,
    STEP_MERGE,
    STEP_PARSE,
    STEP_SANITY,
    PauseResult,
    ResumeLockBusyError,
    ResumeResult,
    VanillaPauseResume,
)
from repro.hypervisor.platform import (
    VirtualizationPlatform,
    firecracker_platform,
    platform_by_name,
    xen_platform,
)
from repro.hypervisor.runqueue import RunQueue
from repro.hypervisor.sandbox import Sandbox, SandboxError, SandboxState
from repro.hypervisor.scheduler import CfsPolicy, Credit2Policy, SchedulerPolicy
from repro.hypervisor.snapshot import SandboxSnapshot, SnapshotStore, VcpuSnapshot
from repro.hypervisor.vcpu import Vcpu, VcpuState

__all__ = [
    "CostModel",
    "FIRECRACKER_COSTS",
    "XEN_COSTS",
    "cost_model_for",
    "CLOUDLAB_R650",
    "EDGE_NODE",
    "Host",
    "HostSpec",
    "CoreDispatcher",
    "HostDispatcher",
    "WorkItem",
    "CorePowerModel",
    "frequency_error_ratio",
    "DEFAULT_WORKING_SET",
    "GuestMemory",
    "LazyRestoreModel",
    "WorkingSet",
    "DvfsGovernor",
    "FrequencyRange",
    "GovernorMode",
    "DECAY_FACTOR",
    "DEFAULT_ENTITY_WEIGHT",
    "PELT_PERIOD_NS",
    "RunqueueLoad",
    "HOT_STEPS",
    "STEP_PARSE",
    "STEP_LOCK",
    "STEP_SANITY",
    "STEP_MERGE",
    "STEP_LOAD",
    "STEP_FINALIZE",
    "PauseResult",
    "ResumeResult",
    "ResumeLockBusyError",
    "VanillaPauseResume",
    "VirtualizationPlatform",
    "firecracker_platform",
    "xen_platform",
    "platform_by_name",
    "RunQueue",
    "Sandbox",
    "SandboxError",
    "SandboxState",
    "CfsPolicy",
    "Credit2Policy",
    "SchedulerPolicy",
    "SandboxSnapshot",
    "SnapshotStore",
    "VcpuSnapshot",
    "Vcpu",
    "VcpuState",
]
