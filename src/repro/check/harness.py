"""The checked pause/resume harness.

:class:`CheckHarness` wraps one pause/resume implementation with the
full correctness battery.  A checked cycle runs, in order:

1. **snapshot** — capture the pause state the differential oracle will
   replay (HORSE paths only; the vanilla path *is* the reference);
2. **inject** — let the :class:`~repro.check.faults.FaultInjector`
   corrupt the precomputed state, if a plan says this cycle strikes;
3. **resume** — through the real implementation, with the injector's
   mid-resume hook installed; exceptions do not escape, they become
   ``oracle.resume_exception`` violations (a crash *is* a detection);
4. **oracles** — :func:`~repro.check.oracles.verify_resume` diffs the
   post-merge queue order and load against the vanilla replay;
5. **boundary sweep** — every registered invariant checker runs.

All findings funnel through :meth:`InvariantRegistry.report`, so each
carries the enclosing ``repro.obs`` span context and shows up in traces
as ``check.violation`` instants.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.check.faults import FaultInjector
from repro.check.invariants import InvariantRegistry
from repro.check.oracles import (
    DEFAULT_MAX_ULPS,
    snapshot_before_resume,
    verify_resume,
)
from repro.core.hot_resume import HorsePauseResume
from repro.hypervisor.pause_resume import (
    PauseResult,
    ResumeResult,
    VanillaPauseResume,
)
from repro.hypervisor.sandbox import Sandbox

PauseResumePath = Union[VanillaPauseResume, HorsePauseResume]


class CheckHarness:
    """Runs pause/resume cycles under invariants, faults, and oracles."""

    def __init__(
        self,
        registry: InvariantRegistry,
        injector: Optional[FaultInjector] = None,
        max_ulps: int = DEFAULT_MAX_ULPS,
    ) -> None:
        self.registry = registry
        self.injector = injector
        self.max_ulps = max_ulps
        #: Sandbox the mid-resume fault may pause inside another's
        #: resume window (set by the runner to its resident sandbox).
        self.resident: Optional[Sandbox] = None

    # ------------------------------------------------------------------
    def checked_pause(
        self,
        path: PauseResumePath,
        sandbox: Sandbox,
        now_ns: int,
        context: str = "",
    ) -> Optional[PauseResult]:
        """Pause through *path*, then sweep every invariant checker."""
        context = context or f"pause:{sandbox.sandbox_id}"
        try:
            result: Optional[PauseResult] = path.pause(sandbox, now_ns)
        except Exception as exc:  # noqa: BLE001 — a crash is a finding
            self.registry.report(
                "oracle.pause_exception",
                [f"{sandbox.sandbox_id}: pause raised {exc!r}"],
                now_ns,
                context,
            )
            result = None
        self.registry.run_boundary(now_ns, context)
        return result

    def checked_resume(
        self,
        path: PauseResumePath,
        sandbox: Sandbox,
        now_ns: int,
        context: str = "",
    ) -> Optional[ResumeResult]:
        """Resume through *path* under the full battery (see module
        docstring for the cycle order)."""
        context = context or f"resume:{sandbox.sandbox_id}"
        is_horse = isinstance(path, HorsePauseResume)

        snapshot = snapshot_before_resume(path, sandbox) if is_horse else None

        if is_horse and self.injector is not None:
            if sandbox.assigned_ull_runqueue is not None:
                self.injector.inject_before_resume(
                    path, sandbox, path.ull.queue(sandbox.assigned_ull_runqueue)
                )
            previous_hook = path.mid_resume_hook
            path.mid_resume_hook = self.injector.mid_resume_hook(
                path, self.resident
            )
        else:
            previous_hook = None

        result: Optional[ResumeResult] = None
        try:
            result = path.resume(sandbox, now_ns)
        except Exception as exc:  # noqa: BLE001 — a crash is a finding
            self.registry.report(
                "oracle.resume_exception",
                [f"{sandbox.sandbox_id}: resume raised {exc!r}"],
                now_ns,
                context,
            )
        finally:
            if is_horse and self.injector is not None:
                path.mid_resume_hook = previous_hook

        if snapshot is not None:
            assert isinstance(path, HorsePauseResume)
            self.registry.report(
                "oracle.differential",
                verify_resume(snapshot, path, now_ns, self.max_ulps),
                now_ns,
                context,
            )

        self.registry.run_boundary(now_ns, context)
        return result
