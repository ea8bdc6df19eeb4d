"""HORSE: the paper's primary contribution.

P2SM (parallel precomputed sorted merge), load-update coalescing, the
reserved uLL run queues, and the hot-resume fast path that composes
them.

Attribute access is lazy (PEP 562), as in every ``repro`` package: the
package holds only its ``_EXPORTS`` table and :func:`repro.lazy_exports`
imports a name's submodule on first access.  Here that also keeps the
layering cycle-free: the hypervisor substrate imports the *leaf*
modules (``linked_list``, ``coalesce``) while the high-level modules
(``hot_resume``, ``ull_runqueue``) import the hypervisor back, whichever
package a user imports first.
"""

from repro import lazy_exports

_EXPORTS = {
    "AffineUpdate": "repro.core.coalesce",
    "CoalescedUpdate": "repro.core.coalesce",
    "apply_n_times": "repro.core.coalesce",
    "HorseConfig": "repro.core.hot_resume",
    "HorsePauseResult": "repro.core.hot_resume",
    "HorsePauseResume": "repro.core.hot_resume",
    "HorseResumeResult": "repro.core.hot_resume",
    "ListNode": "repro.core.linked_list",
    "SortedLinkedList": "repro.core.linked_list",
    "MergeReport": "repro.core.p2sm",
    "P2SMState": "repro.core.p2sm",
    "QueueSnapshot": "repro.core.p2sm",
    "SubChain": "repro.core.p2sm",
    "sorted_merge_reference": "repro.core.p2sm",
    "UllAssignmentError": "repro.core.ull_runqueue",
    "UllRunqueueManager": "repro.core.ull_runqueue",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
