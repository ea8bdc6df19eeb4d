"""Simulated virtualization substrate (Firecracker/KVM-like, Xen-like).

Real run queues, schedulers, load tracking, DVFS and sandbox lifecycle
with simulated-time costs calibrated against the paper's measurements.
"""

from repro import lazy_exports

_EXPORTS = {
    "CostModel": "repro.hypervisor.costs",
    "FIRECRACKER_COSTS": "repro.hypervisor.costs",
    "XEN_COSTS": "repro.hypervisor.costs",
    "cost_model_for": "repro.hypervisor.costs",
    "CLOUDLAB_R650": "repro.hypervisor.cpu",
    "EDGE_NODE": "repro.hypervisor.cpu",
    "Host": "repro.hypervisor.cpu",
    "HostSpec": "repro.hypervisor.cpu",
    "CoreDispatcher": "repro.hypervisor.dispatch",
    "HostDispatcher": "repro.hypervisor.dispatch",
    "WorkItem": "repro.hypervisor.dispatch",
    "CorePowerModel": "repro.hypervisor.energy",
    "frequency_error_ratio": "repro.hypervisor.energy",
    "DEFAULT_WORKING_SET": "repro.hypervisor.memory",
    "GuestMemory": "repro.hypervisor.memory",
    "LazyRestoreModel": "repro.hypervisor.memory",
    "WorkingSet": "repro.hypervisor.memory",
    "DvfsGovernor": "repro.hypervisor.dvfs",
    "FrequencyRange": "repro.hypervisor.dvfs",
    "GovernorMode": "repro.hypervisor.dvfs",
    "DECAY_FACTOR": "repro.hypervisor.load_tracking",
    "DEFAULT_ENTITY_WEIGHT": "repro.hypervisor.load_tracking",
    "PELT_PERIOD_NS": "repro.hypervisor.load_tracking",
    "RunqueueLoad": "repro.hypervisor.load_tracking",
    "HOT_STEPS": "repro.hypervisor.pause_resume",
    "STEP_FINALIZE": "repro.hypervisor.pause_resume",
    "STEP_LOAD": "repro.hypervisor.pause_resume",
    "STEP_LOCK": "repro.hypervisor.pause_resume",
    "STEP_MERGE": "repro.hypervisor.pause_resume",
    "STEP_PARSE": "repro.hypervisor.pause_resume",
    "STEP_SANITY": "repro.hypervisor.pause_resume",
    "PauseResult": "repro.hypervisor.pause_resume",
    "ResumeLockBusyError": "repro.hypervisor.pause_resume",
    "ResumeResult": "repro.hypervisor.pause_resume",
    "VanillaPauseResume": "repro.hypervisor.pause_resume",
    "VirtualizationPlatform": "repro.hypervisor.platform",
    "firecracker_platform": "repro.hypervisor.platform",
    "platform_by_name": "repro.hypervisor.platform",
    "xen_platform": "repro.hypervisor.platform",
    "RunQueue": "repro.hypervisor.runqueue",
    "Sandbox": "repro.hypervisor.sandbox",
    "SandboxError": "repro.hypervisor.sandbox",
    "SandboxState": "repro.hypervisor.sandbox",
    "CfsPolicy": "repro.hypervisor.scheduler",
    "Credit2Policy": "repro.hypervisor.scheduler",
    "SchedulerPolicy": "repro.hypervisor.scheduler",
    "SandboxSnapshot": "repro.hypervisor.snapshot",
    "SnapshotStore": "repro.hypervisor.snapshot",
    "VcpuSnapshot": "repro.hypervisor.snapshot",
    "Vcpu": "repro.hypervisor.vcpu",
    "VcpuState": "repro.hypervisor.vcpu",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
