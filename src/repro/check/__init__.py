"""repro.check — the correctness harness (invariants, faults, oracles).

Three pillars, composable but useful alone:

* :mod:`repro.check.invariants` — a registry of pluggable checkers run
  every event, every N events, or at pause/resume boundaries;
* :mod:`repro.check.faults` — a seeded, schedule-controlled fault
  injector whose corruptions replay exactly from ``(seed, plan)``;
* :mod:`repro.check.oracles` — differential oracles replaying each
  HORSE resume through the vanilla path and diffing queue order and
  PELT load to the ULP.

:mod:`repro.check.harness` wires them around one pause/resume cycle,
and :mod:`repro.check.runner` reports whole checked experiments
(``python -m repro check <experiment>``).
"""

from repro import lazy_exports

_EXPORTS = {
    "FAULT_KINDS": "repro.check.faults",
    "FaultInjector": "repro.check.faults",
    "FaultPlan": "repro.check.faults",
    "FaultSpec": "repro.check.faults",
    "InjectedFault": "repro.check.faults",
    "CheckHarness": "repro.check.harness",
    "Checker": "repro.check.invariants",
    "InvariantRegistry": "repro.check.invariants",
    "Trigger": "repro.check.invariants",
    "Violation": "repro.check.invariants",
    "default_registry": "repro.check.invariants",
    "dvfs_sample_checker": "repro.check.invariants",
    "event_heap_checker": "repro.check.invariants",
    "lifecycle_checker": "repro.check.invariants",
    "p2sm_freshness_checker": "repro.check.invariants",
    "pool_checker": "repro.check.invariants",
    "runqueue_checker": "repro.check.invariants",
    "DEFAULT_MAX_ULPS": "repro.check.oracles",
    "ResumeSnapshot": "repro.check.oracles",
    "snapshot_before_resume": "repro.check.oracles",
    "verify_resume": "repro.check.oracles",
    "CheckReport": "repro.check.runner",
    "check_figure3": "repro.check.runner",
    "report_run": "repro.check.runner",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
