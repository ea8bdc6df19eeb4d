"""HORSE: the paper's primary contribution.

P2SM (parallel precomputed sorted merge), load-update coalescing, the
reserved uLL run queues, and the hot-resume fast path that composes
them.

Attribute access is lazy (PEP 562): the hypervisor substrate imports
the *leaf* modules here (``linked_list``, ``coalesce``) while the
high-level modules (``hot_resume``, ``ull_runqueue``) import the
hypervisor back.  Lazy loading keeps that layering cycle-free no matter
which package a user imports first.
"""

from typing import TYPE_CHECKING

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

if TYPE_CHECKING:  # static analyzers see the real names
    from repro.core.coalesce import AffineUpdate, CoalescedUpdate, apply_n_times
    from repro.core.hot_resume import (
        HorseConfig,
        HorsePauseResult,
        HorsePauseResume,
        HorseResumeResult,
    )
    from repro.core.linked_list import ListNode, SortedLinkedList
    from repro.core.p2sm import (
        MergeReport,
        P2SMState,
        QueueSnapshot,
        SubChain,
        sorted_merge_reference,
    )
    from repro.core.ull_runqueue import UllAssignmentError, UllRunqueueManager


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value
