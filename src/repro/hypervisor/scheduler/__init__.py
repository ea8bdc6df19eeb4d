"""Scheduler policies for the simulated hypervisor."""

from repro import lazy_exports

_EXPORTS = {
    "SchedulerPolicy": "repro.hypervisor.scheduler.base",
    "CfsPolicy": "repro.hypervisor.scheduler.cfs",
    "Credit2Policy": "repro.hypervisor.scheduler.credit2",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
