"""Invocation records: the latency pipeline of one function trigger.

The paper's metrics all derive from two intervals:

* **initialization** — trigger to sandbox-ready (the cost of cold boot,
  snapshot restore, warm resume, or HORSE hot resume);
* **execution** — the function body's runtime.

``init_percentage`` (initialization as a share of the whole pipeline)
is the quantity of Table 1, Figure 1 and Figure 4.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

_invocation_seq = itertools.count()


class StartType(enum.Enum):
    """How the sandbox for an invocation was obtained."""

    COLD = "cold"
    RESTORE = "restore"
    WARM = "warm"
    HORSE = "horse"


@dataclass(slots=True)
class Invocation:
    """Timeline and outcome of one trigger."""

    function_name: str
    trigger_ns: int
    start_type: Optional[StartType] = None
    invocation_id: int = field(default_factory=lambda: next(_invocation_seq))
    sandbox_id: Optional[str] = None
    sandbox_ready_ns: Optional[int] = None
    exec_start_ns: Optional[int] = None
    exec_end_ns: Optional[int] = None
    #: Delay injected by interference (e.g. merge-thread preemption).
    interference_ns: int = 0
    result: Any = None
    error: Optional[str] = None
    #: True once the invocation was abandoned (e.g. its host crashed
    #: mid-execution); a cancelled invocation never counts as completed.
    cancelled: bool = False
    #: The sandbox serving this invocation (set by the gateway) — lets
    #: failure handling above the start-strategy layer reclaim it.
    sandbox: Any = field(default=None, repr=False, compare=False)
    #: The gateway's scheduled completion event, cancellable by the
    #: resilience layer when the serving host crashes mid-execution;
    #: None once it has fired.
    completion_event: Any = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def completed(self) -> bool:
        return self.exec_end_ns is not None and not self.cancelled

    @property
    def initialization_ns(self) -> int:
        """Trigger -> sandbox ready (the paper's 'Initialization')."""
        if self.sandbox_ready_ns is None:
            raise ValueError(f"invocation {self.invocation_id} has no ready time")
        return self.sandbox_ready_ns - self.trigger_ns

    @property
    def execution_ns(self) -> int:
        if self.exec_start_ns is None or self.exec_end_ns is None:
            raise ValueError(f"invocation {self.invocation_id} not executed")
        return self.exec_end_ns - self.exec_start_ns

    @property
    def total_ns(self) -> int:
        """Trigger -> function end: the full pipeline."""
        if self.exec_end_ns is None:
            raise ValueError(f"invocation {self.invocation_id} not completed")
        return self.exec_end_ns - self.trigger_ns

    def record_spans(self, tracer: Any, pid: int = 0, tid: int = 0) -> None:
        """Emit the two pipeline intervals as spans on *tracer*.

        Called by the gateway while its ``invocation`` root span is
        still open, so both children parent to it implicitly.  *tracer*
        is duck-typed (:class:`repro.obs.span.Tracer`) to keep this
        module free of an obs dependency.
        """
        tracer.record_span(
            "initialization",
            self.trigger_ns,
            self.initialization_ns,
            category="faas",
            pid=pid,
            tid=tid,
            start=self.start_type.value if self.start_type else "?",
        )
        tracer.record_span(
            "execution",
            self.exec_start_ns,
            self.execution_ns,
            category="faas",
            pid=pid,
            tid=tid,
            interference_ns=self.interference_ns,
        )

    @property
    def init_percentage(self) -> float:
        """Initialization share of the pipeline, in percent (Fig. 1/4)."""
        total = self.total_ns
        if total == 0:
            return 0.0
        return 100.0 * self.initialization_ns / total

    def __repr__(self) -> str:
        start = self.start_type.value if self.start_type else "?"
        status = "done" if self.completed else "in-flight"
        return (
            f"Invocation(#{self.invocation_id} {self.function_name} "
            f"{start} {status})"
        )
