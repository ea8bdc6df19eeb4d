"""Resume-phase metric names and the tally -> histogram fold.

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

from typing import ItemsView

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


def fold_resumes(metrics: MetricRegistry, resumes: ItemsView) -> None:
    """Fold a resume tally into the phase histograms and ``resume.count``.

    Each key is one resume's ``(merge_ns, load_ns, total_ns)``; the
    dispatch phase is the remainder, total minus merge minus load.
    """
    merge_h = metrics.histogram(RESUME_MERGE_NS)
    load_h = metrics.histogram(RESUME_LOAD_UPDATE_NS)
    dispatch_h = metrics.histogram(RESUME_DISPATCH_NS)
    total_h = metrics.histogram(RESUME_TOTAL_NS)
    count = metrics.counter("resume.count")
    for (merge, load, total), n in resumes:
        merge_h.observe(merge, n)
        load_h.observe(load, n)
        dispatch_h.observe(total - merge - load, n)
        total_h.observe(total, n)
        count.inc(n)
