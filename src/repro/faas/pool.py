"""The warm sandbox pool.

Holds paused, initialized sandboxes per function.  A warm start is a
pool hit; provisioned concurrency keeps the pool from ever emptying for
subscribed functions; a :class:`repro.faas.keepalive.PrewarmPolicy`
decides how long an idle non-provisioned sandbox stays before eviction.
The pool has no unload/reload phase, so a decision's prewarm window
collapses onto the keep-alive axis: the sandbox is simply retained
through ``prewarm + keep_alive``, the same predicted-arrival horizon at
a higher memory cost.

The pool only *stores* — pausing/resuming is the caller's job (the
platform picks the vanilla or the HORSE path per sandbox), so the pool
never depends on which resume machinery is in use.  Its ``on_evict``
hook is bound to what an eviction frees (the platform passes its
:meth:`~repro.core.ull_runqueue.UllRunqueueManager.reclaim`), never to
the platform that owns the pool.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Callable, Deque, Dict, ItemsView, List, Optional

from repro.faas.keepalive import PrewarmPolicy
from repro.hypervisor.sandbox import Sandbox, SandboxState
from repro.obs.context import NULL_OBS, Observability, current_run
from repro.obs.metrics import MetricRegistry
from repro.sim.engine import Engine
from repro.sim.event import Event


#: The pool's counters; the pool tally is keyed by these names.
_COUNTERS = {
    "pool.hit": "warm-pool hits",
    "pool.miss": "warm-pool misses (no idle sandbox)",
    "pool.evict": "keep-alive evictions",
}


def _fold_events(metrics: MetricRegistry, events: ItemsView) -> None:
    """Fold the pool tally; all three counters exist once any pool
    event happened."""
    for name, help in _COUNTERS.items():
        metrics.counter(name, help)
    for name, n in events:
        metrics.counter(name).inc(n)


class SandboxPool:
    """Per-function store of paused warm sandboxes with keep-alive."""

    def __init__(
        self,
        engine: Engine,
        policy: PrewarmPolicy,
        on_evict: Optional[Callable[[Sandbox], None]] = None,
        obs: Observability = NULL_OBS,
    ) -> None:
        self._engine = engine
        self._policy = policy
        self._on_evict = on_evict
        self.obs = obs
        #: the registry's pool tally, shared by every pool (None when off)
        self._events = obs.metrics.tally(_fold_events)
        self._idle: Dict[str, Deque[Sandbox]] = defaultdict(deque)
        #: sandbox_id -> pending eviction event (cancelled on acquire)
        self._eviction_events: Dict[str, Event] = {}
        #: functions whose sandboxes are never evicted
        self._provisioned: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        invariants = current_run().invariants
        if invariants is not None:
            invariants.watch_pool(self)

    # ------------------------------------------------------------------
    def mark_provisioned(self, function_name: str, count: int) -> None:
        """Exempt up to *count* sandboxes of this function from eviction."""
        if count < 0:
            raise ValueError(f"negative provisioned count {count}")
        self._provisioned[function_name] = count

    def provisioned_count(self, function_name: str) -> int:
        return self._provisioned.get(function_name, 0)

    def size(self, function_name: str) -> int:
        return len(self._idle.get(function_name, ()))

    def total_size(self) -> int:
        return sum(len(q) for q in self._idle.values())

    def idle_sandboxes(self, function_name: str) -> List[Sandbox]:
        return list(self._idle.get(function_name, ()))

    # ------------------------------------------------------------------
    def acquire(self, function_name: str) -> Optional[Sandbox]:
        """Take a warm (paused) sandbox, FIFO; None on pool miss."""
        queue = self._idle.get(function_name)
        if not queue:
            self.misses += 1
            if self._events is not None:
                self._events["pool.miss"] += 1
            return None
        sandbox = queue.popleft()
        event = self._eviction_events.pop(sandbox.sandbox_id, None)
        if event is not None:
            event.cancel()
        self.hits += 1
        if self._events is not None:
            self._events["pool.hit"] += 1
        return sandbox

    def release(self, function_name: str, sandbox: Sandbox) -> None:
        """Return a *paused* sandbox to the pool; arms keep-alive unless
        the function's provisioned quota covers it."""
        if sandbox.state is not SandboxState.PAUSED:
            raise ValueError(
                f"pool only stores paused sandboxes; {sandbox.sandbox_id} "
                f"is {sandbox.state.value}"
            )
        queue = self._idle[function_name]
        queue.append(sandbox)
        if len(queue) <= self.provisioned_count(function_name):
            return  # inside the always-warm quota: no eviction timer
        decision = self._policy.decision(function_name)
        window = (decision.prewarm_ns or 0) + decision.keep_alive_ns
        event = self._engine.schedule_after(
            window,
            lambda: self._evict(function_name, sandbox),
            label=f"keepalive-evict:{sandbox.sandbox_id}",
        )
        self._eviction_events[sandbox.sandbox_id] = event

    def drain_all(self) -> Dict[str, List[Sandbox]]:
        """Remove every idle sandbox (host crash / shutdown).

        Cancels all armed eviction timers and returns the drained
        sandboxes per function, still PAUSED — disposing of them
        (state transition, memory release) is the caller's job.
        """
        drained: Dict[str, List[Sandbox]] = {
            name: list(queue) for name, queue in self._idle.items() if queue
        }
        self._idle.clear()
        for event in self._eviction_events.values():
            event.cancel()
        self._eviction_events.clear()
        return drained

    def _evict(self, function_name: str, sandbox: Sandbox) -> None:
        queue = self._idle.get(function_name)
        if not queue or sandbox not in queue:
            return  # acquired (and maybe re-released) in the meantime
        queue.remove(sandbox)
        self._eviction_events.pop(sandbox.sandbox_id, None)
        sandbox.transition(SandboxState.STOPPED)
        self.evictions += 1
        if self.obs.enabled:
            if self._events is not None:
                self._events["pool.evict"] += 1
            self.obs.tracer.record_instant(
                "pool.evict",
                self._engine.now,
                category="pool",
                function=function_name,
                sandbox=sandbox.sandbox_id,
            )
        if self._on_evict is not None:
            self._on_evict(sandbox)

    # ------------------------------------------------------------------
    # Invariants (repro.check)
    # ------------------------------------------------------------------
    def invariant_violations(self) -> List[str]:
        """Pool accounting problems, as messages (empty = sound).

        The pool's contract: it stores only PAUSED sandboxes, stores
        each at most once, and every armed eviction timer points at a
        sandbox that is actually idle in the pool.
        """
        violations: List[str] = []
        seen: Dict[str, str] = {}
        for function_name, queue in self._idle.items():
            for sandbox in queue:
                if sandbox.state is not SandboxState.PAUSED:
                    violations.append(
                        f"pool[{function_name}]: {sandbox.sandbox_id} is "
                        f"{sandbox.state.value}, pool only stores paused"
                    )
                if sandbox.sandbox_id in seen:
                    violations.append(
                        f"pool: {sandbox.sandbox_id} pooled under both "
                        f"{seen[sandbox.sandbox_id]!r} and {function_name!r}"
                    )
                seen[sandbox.sandbox_id] = function_name
        for sandbox_id, event in self._eviction_events.items():
            if event.cancelled:
                continue
            if sandbox_id not in seen:
                violations.append(
                    f"pool: eviction timer armed for {sandbox_id} which is "
                    f"not idle in the pool"
                )
        for function_name, count in self._provisioned.items():
            if count < 0:
                violations.append(
                    f"pool[{function_name}]: negative provisioned count {count}"
                )
        return violations

    def __repr__(self) -> str:
        sizes = {name: len(q) for name, q in self._idle.items() if q}
        return f"SandboxPool({sizes}, hits={self.hits}, misses={self.misses})"
