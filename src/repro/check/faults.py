"""Deterministic, schedule-controlled fault injection.

Every fault is a seeded corruption of HORSE's pause-time state or of
the resume window, applied at a *specific eligible cycle* of a checked
run.  Replay is exact: the same ``(seed, FaultPlan)`` strikes the same
cycle with the same corruption, so any reported violation reproduces
from two integers and a kind string.

Fault kinds (each models a real failure class of the paper's design):

* ``stale_arrayb`` — arrayB anchors no longer match the target queue's
  node positions (a missed "update on every ull_runqueue change");
* ``stale_posa`` — posA buckets shifted one position (stale insertion
  scan);
* ``skip_merge_thread`` — one merge thread never runs (delayed past the
  resume), so its chain is never spliced in;
* ``drop_coalesced`` — the precomputed fused load update is lost and
  replaced by the identity (the load fold silently dropped);
* ``clock_skew`` — the queue's load was last sampled on a clock running
  ahead of simulated time (skewed DVFS input);
* ``pause_during_resume`` — a concurrent pause of another sandbox lands
  inside the resume window the vanilla global lock would have excluded.

The injector *only corrupts*; detection is the harness's job (invariant
registry + differential oracles).  ``tests/check/test_faults.py`` holds
the mutation-style proof that every kind is actually caught.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.coalesce import CoalescedUpdate
from repro.core.hot_resume import HorsePauseResume
from repro.hypervisor.load_tracking import PELT_PERIOD_NS
from repro.hypervisor.runqueue import RunQueue
from repro.hypervisor.sandbox import Sandbox, SandboxState
from repro.sim.rng import RngRegistry

#: Every injectable fault kind, in documentation order.
FAULT_KINDS: Tuple[str, ...] = (
    "stale_arrayb",
    "stale_posa",
    "skip_merge_thread",
    "drop_coalesced",
    "clock_skew",
    "pause_during_resume",
)

#: When a spec does not pin a cycle, the injector strikes one of the
#: first STRIKE_WINDOW eligible cycles, drawn from the plan's seed.
STRIKE_WINDOW = 4

#: Forward skew applied by ``clock_skew`` (three PELT periods).
CLOCK_SKEW_NS = 3 * PELT_PERIOD_NS


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: a kind plus the eligible cycle it strikes.

    ``cycle`` counts *eligible* cycles for this kind (0 = the first
    cycle whose configuration the fault applies to); None lets the
    injector draw the cycle deterministically from the plan seed.
    """

    kind: str
    cycle: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.cycle is not None and self.cycle < 0:
            raise ValueError(f"fault cycle must be >= 0, got {self.cycle}")


@dataclass(frozen=True)
class FaultPlan:
    """A replayable fault schedule: ``(seed, specs)``."""

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()


@dataclass(frozen=True)
class InjectedFault:
    """Record of one fault actually applied to a run."""

    kind: str
    cycle: int
    sandbox_id: str
    detail: str


@dataclass
class _ArmedSpec:
    spec: FaultSpec
    strike_cycle: int
    eligible_seen: int = 0
    fired: bool = False


class FaultInjector:
    """Applies a :class:`FaultPlan` to checked pause/resume cycles.

    The harness drives it: once per checked resume it calls
    :meth:`inject_before_resume` (and installs :meth:`mid_resume_hook`
    on the fast path); the injector decides — deterministically — which
    calls strike.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        rng = RngRegistry(plan.seed)
        self._armed: List[_ArmedSpec] = []
        for index, spec in enumerate(plan.specs):
            strike = (
                spec.cycle
                if spec.cycle is not None
                else rng.stream(f"fault:{index}:{spec.kind}").randrange(
                    STRIKE_WINDOW
                )
            )
            self._armed.append(_ArmedSpec(spec=spec, strike_cycle=strike))
        self.injected: List[InjectedFault] = []

    # ------------------------------------------------------------------
    def _claim(
        self, kinds: Tuple[str, ...], eligible: Callable[[str], bool]
    ) -> List[_ArmedSpec]:
        """Advance eligibility counters; return the specs that strike now."""
        striking: List[_ArmedSpec] = []
        for armed in self._armed:
            if armed.fired or armed.spec.kind not in kinds:
                continue
            if not eligible(armed.spec.kind):
                continue
            if armed.eligible_seen == armed.strike_cycle:
                striking.append(armed)
            armed.eligible_seen += 1
        return striking

    # ------------------------------------------------------------------
    # Pre-resume corruption (pause-time state)
    # ------------------------------------------------------------------
    def inject_before_resume(
        self, horse: HorsePauseResume, sandbox: Sandbox, queue: RunQueue
    ) -> List[InjectedFault]:
        """Corrupt the paused sandbox's precomputed state, per plan."""
        config = horse.config

        def eligible(kind: str) -> bool:
            state = sandbox.p2sm_state
            if kind == "stale_arrayb":
                return (
                    config.enable_p2sm
                    and state is not None
                    and len(state.array_b) > 2
                )
            if kind == "stale_posa":
                return (
                    config.enable_p2sm
                    and state is not None
                    and len(state.array_b) >= 2
                    and bool(state.pos_a)
                )
            if kind == "skip_merge_thread":
                return (
                    config.enable_p2sm
                    and state is not None
                    and bool(state.pos_a)
                )
            if kind == "drop_coalesced":
                return (
                    config.enable_coalescing
                    and sandbox.coalesced_update is not None
                )
            if kind == "clock_skew":
                return True
            return False

        fired: List[InjectedFault] = []
        for armed in self._claim(
            (
                "stale_arrayb",
                "stale_posa",
                "skip_merge_thread",
                "drop_coalesced",
                "clock_skew",
            ),
            eligible,
        ):
            detail = self._apply(armed.spec.kind, sandbox, queue)
            armed.fired = True
            record = InjectedFault(
                kind=armed.spec.kind,
                cycle=armed.eligible_seen,
                sandbox_id=sandbox.sandbox_id,
                detail=detail,
            )
            self.injected.append(record)
            fired.append(record)
        return fired

    def _apply(self, kind: str, sandbox: Sandbox, queue: RunQueue) -> str:
        state = sandbox.p2sm_state
        if kind == "stale_arrayb":
            assert state is not None
            state.array_b[1:] = list(reversed(state.array_b[1:]))
            return (
                f"reversed arrayB[1:] ({len(state.array_b) - 1} anchors now "
                f"point at the wrong positions)"
            )
        if kind == "stale_posa":
            assert state is not None
            modulus = len(state.array_b)
            state.pos_a = {
                (position + 1) % modulus: chain
                for position, chain in state.pos_a.items()
            }
            return f"shifted every posA bucket by +1 mod {modulus}"
        if kind == "skip_merge_thread":
            assert state is not None
            position = min(state.pos_a)
            chain = state.pos_a.pop(position)
            return (
                f"dropped the merge thread for position {position} "
                f"({chain.length} vCPUs never spliced)"
            )
        if kind == "drop_coalesced":
            update = sandbox.coalesced_update
            assert update is not None
            sandbox.coalesced_update = CoalescedUpdate(
                alpha_n=1.0, beta_sum=0.0, n=update.n
            )
            return f"replaced the fused {update.n}-fold update with identity"
        if kind == "clock_skew":
            queue.load.last_update_ns += CLOCK_SKEW_NS
            return (
                f"skewed queue {queue.runqueue_id}'s load sample "
                f"{CLOCK_SKEW_NS} ns into the future"
            )
        raise AssertionError(f"unhandled pre-resume fault {kind!r}")

    # ------------------------------------------------------------------
    # Mid-resume race (the window the vanilla lock protects)
    # ------------------------------------------------------------------
    def mid_resume_hook(
        self, horse: HorsePauseResume, resident: Optional[Sandbox]
    ) -> Callable[[Sandbox, RunQueue, int], None]:
        """A hook for ``HorsePauseResume.mid_resume_hook`` that pauses
        *resident* inside another sandbox's resume window, per plan."""

        def hook(sandbox: Sandbox, queue: RunQueue, now_ns: int) -> None:
            def eligible(_kind: str) -> bool:
                return (
                    resident is not None
                    and resident is not sandbox
                    and resident.state is SandboxState.RUNNING
                )

            for armed in self._claim(("pause_during_resume",), eligible):
                assert resident is not None
                horse.pause(resident, now_ns)
                armed.fired = True
                self.injected.append(
                    InjectedFault(
                        kind="pause_during_resume",
                        cycle=armed.eligible_seen,
                        sandbox_id=sandbox.sandbox_id,
                        detail=(
                            f"paused {resident.sandbox_id} inside "
                            f"{sandbox.sandbox_id}'s resume window"
                        ),
                    )
                )

        return hook
