"""Resume-phase metric names and the breakdown -> histogram bridge.

The paper's latency claim is a *per-phase* story: where do the
nanoseconds go between ``resume()`` and first instruction?  This module
fixes the phase taxonomy the registry exposes:

* ``resume.merge_ns``        — step 4, the run-queue sorted merge;
* ``resume.load_update_ns``  — step 5, the PELT load fold(s);
* ``resume.dispatch_ns``     — everything else (parse, lock, sanity,
  finalize): the command/dispatch overhead around the two hot steps.

The three phase histograms partition the resume exactly, so for any
recorded resume ``merge + load_update + dispatch == total`` — the
reconciliation property the observability tests assert.
"""

from __future__ import annotations

from repro.metrics.recorder import Breakdown
from repro.obs.metrics import MetricRegistry

RESUME_MERGE_NS = "resume.merge_ns"
RESUME_LOAD_UPDATE_NS = "resume.load_update_ns"
RESUME_DISPATCH_NS = "resume.dispatch_ns"
RESUME_TOTAL_NS = "resume.total_ns"

#: The three histograms that partition a resume.
RESUME_PHASE_METRICS = (
    RESUME_MERGE_NS,
    RESUME_LOAD_UPDATE_NS,
    RESUME_DISPATCH_NS,
)


def dispatch_ns(breakdown: Breakdown) -> int:
    """Non-hot remainder of a resume: total minus merge minus load."""
    # Imported lazily: pause_resume's low-level deps import repro.obs,
    # so a module-level import here would be circular.
    from repro.hypervisor.pause_resume import STEP_LOAD, STEP_MERGE

    return (
        breakdown.total_ns
        - breakdown.phases.get(STEP_MERGE, 0)
        - breakdown.phases.get(STEP_LOAD, 0)
    )


#: (STEP_MERGE, STEP_LOAD), resolved once — the lazy import otherwise
#: costs a sys.modules lookup per recorded resume.
_STEPS = None


def _resume_handles(metrics: MetricRegistry):
    return (
        metrics.histogram(RESUME_MERGE_NS),
        metrics.histogram(RESUME_LOAD_UPDATE_NS),
        metrics.histogram(RESUME_DISPATCH_NS),
        metrics.histogram(RESUME_TOTAL_NS),
        metrics.counter("resume.count"),
    )


def observe_resume(metrics: MetricRegistry, breakdown: Breakdown) -> None:
    """Fold one resume's phase durations into the registry histograms.

    The five instrument handles are bound once per registry
    (``metrics.bound``), so steady-state cost is five C-level method
    calls — no name lookups, no enum re-hashing beyond the two phase
    reads.
    """
    global _STEPS
    if _STEPS is None:
        from repro.hypervisor.pause_resume import STEP_LOAD, STEP_MERGE

        _STEPS = (STEP_MERGE, STEP_LOAD)
    handles = metrics.bound("resume", _resume_handles)
    phases = breakdown.phases
    merge = phases.get(_STEPS[0], 0)
    load = phases.get(_STEPS[1], 0)
    total = breakdown.total_ns
    handles[0].observe(merge)
    handles[1].observe(load)
    handles[2].observe(total - merge - load)
    handles[3].observe(total)
    handles[4].inc()
