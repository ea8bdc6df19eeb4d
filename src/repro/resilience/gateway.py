"""The resilient gateway: retries, hedging, breakers, and degradation.

:class:`ResilientGateway` fronts a :class:`~repro.faas.cluster.FaaSCluster`
and turns raw triggers into *requests* with failure semantics:

* **admission control** — arrivals beyond the concurrency watermark are
  shed at the door, lowest priority first (reserved headroom only
  high-priority/uLL work may use);
* **placement steering** — the dispatch policy only sees healthy,
  breaker-admitted hosts (per-node circuit breakers gate the cluster's
  routable set on every attempt);
* **retries** — transient resume errors, hung resumes (detected by an
  attempt timeout) and node crashes re-dispatch the request with capped
  exponential backoff and seeded full jitter, within a hard attempt
  budget;
* **degradation** — each failed attempt steps the request down the
  hot → warm → cold ladder, and pool misses fall through to cold
  explicitly;
* **hedging** — uLL-class requests whose primary attempt is still
  running after the hedge delay fire one tied attempt on a different
  node; first completion wins.

Every request reaches exactly one terminal state — COMPLETED, SHED, or
FAILED — and the whole ledger is auditable by the ``repro.check``
checkers in :mod:`repro.resilience.checks` (no request both shed and
completed, retry budget respected, breaker state machine legal).

Deadlines bound *retrying*, not an execution already in flight: once an
attempt is executing it is allowed to finish (completions past the
deadline still count), but no new attempt launches after the deadline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.faas.cluster import FaaSCluster, plan_start
from repro.faas.invocation import Invocation, StartType
from repro.hypervisor.pause_resume import HungResumeError, TransientResumeError
from repro.obs.context import Observability, current as current_obs
from repro.resilience.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.resilience.degradation import (
    AdmissionConfig,
    AdmissionController,
    DegradationStats,
    degrade,
)
from repro.resilience.failures import FailureInjector
from repro.resilience.policies import (
    DispatchPolicy,
    default_dispatch_policy,
    make_dispatch_policy,
)
from repro.resilience.retry import (
    HANG_TIMEOUT_NS,
    HEDGE_DELAY_NS,
    MAX_ATTEMPTS,
    MAX_HEDGES,
    backoff_ns,
)
from repro.sim.rng import RngRegistry
from repro.sim.units import seconds


class RequestState(enum.Enum):
    IN_FLIGHT = "in-flight"
    COMPLETED = "completed"
    SHED = "shed"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self is not RequestState.IN_FLIGHT


@dataclass(slots=True)
class Attempt:
    """One dispatch of a request onto one host."""

    index: int
    host: int
    start_type: StartType
    launched_ns: int
    hedge: bool = False
    #: "ok" while executing/completed; else "transient" | "hung" | "crash"
    status: str = "ok"
    #: fencing token stamped by the control-plane journal (0 = unjournaled)
    fence: int = 0
    invocation: Optional[Invocation] = None
    executing: bool = False
    #: the gateway's own completion callback event (cancellable); None
    #: once it has fired
    completion_event: object = field(default=None, repr=False)


@dataclass(slots=True)
class Request:
    """Ledger entry for one submitted invocation request."""

    request_id: int
    function: str
    priority: int
    submit_ns: int
    deadline_ns: int
    state: RequestState = RequestState.IN_FLIGHT
    attempts: List[Attempt] = field(default_factory=list)
    hedges_used: int = 0
    executing: int = 0
    completed_ns: Optional[int] = None
    resolution: str = ""
    #: current rung on the hot -> warm -> cold ladder
    current_start: StartType = StartType.WARM
    redundant_hedges: int = 0
    run_logic: bool = False
    #: maintained count of non-hedge attempts — the retry-budget check
    #: runs on every attempt and every no-host wait, so it must not
    #: re-scan the attempt list each time
    primary_count: int = 0
    #: global request id at the control-plane frontend (-1 = unrouted);
    #: the durable key the intent log and the exactly-once oracle use
    origin: int = -1
    #: failure reason ``_maybe_fail`` deferred to a still-executing
    #: attempt ("" = none); applied if that attempt fails instead
    deferred_fail: str = ""

    @property
    def retries(self) -> int:
        return max(0, self.primary_count - 1)

    @property
    def latency_ns(self) -> Optional[int]:
        if self.completed_ns is None:
            return None
        return self.completed_ns - self.submit_ns


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything the resilient gateway composes, in one bundle."""

    #: hedged (tied) attempts for uLL-class requests
    hedge: bool = True
    #: None disables per-node circuit breakers (retries-only mode)
    breaker: Optional[BreakerConfig] = BreakerConfig()
    admission: AdmissionConfig = AdmissionConfig()
    #: retry gate: no new attempt launches this long after submit
    default_deadline_ns: int = seconds(10)
    #: warm sandboxes re-provisioned per function when a host recovers
    rewarm_per_host: int = 1
    #: dispatch-policy spec (see repro.resilience.policies); None
    #: resolves the process default (``REPRO_DISPATCH_POLICY`` env, else
    #: ``push-least-loaded``) at gateway construction
    dispatch: Optional[str] = None


class ResilientGateway:
    """Failure-aware request layer over one cluster."""

    def __init__(
        self,
        cluster: FaaSCluster,
        config: ResilienceConfig = ResilienceConfig(),
        seed: int = 0,
        obs: Optional[Observability] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config
        self.obs = obs if obs is not None else current_obs()
        self.engine = cluster.engine
        # The sim clock never changes identity; reading it directly
        # skips two property hops per `now` on the attempt hot loop.
        self._clock = cluster.engine.clock
        self._rng = RngRegistry(seed).fork("resilient-gateway").stream("backoff")
        self.requests: List[Request] = []
        self.admission = AdmissionController(config.admission)
        self.degradations = DegradationStats()
        self.active = 0
        self._inflight: Dict[int, List[Tuple[Request, Attempt]]] = {
            i: [] for i in range(len(cluster.hosts))
        }
        self.breakers: Dict[int, CircuitBreaker] = {}
        #: Routing veto passed to ``cluster.routable_or_empty`` on every
        #: attempt.  A closure over the breakers and the clock, never a
        #: bound method: nothing the gateway hands out may point back
        #: at it (DESIGN.md §10).
        self._gate: Optional[Callable[[int], bool]] = None
        if config.breaker is not None:
            breakers = self.breakers = {
                i: CircuitBreaker(config.breaker, name=f"host-{i}", obs=self.obs)
                for i in range(len(cluster.hosts))
            }
            clock = self._clock
            self._gate = lambda index: breakers[index].allow(clock._now)
        #: Every placement decision routes through here — push policies
        #: choose a host, pull policies may answer None (park and wait
        #: for a host to pull).  A fresh instance per gateway: policies
        #: carry mutable scheduling state (virtual time, sticky maps).
        self.dispatch: DispatchPolicy = make_dispatch_policy(
            config.dispatch or default_dispatch_policy()
        )
        self.dispatch.bind(self)
        #: The capacity parking lot.  A request that finds no routable
        #: host parks here instead of polling with backoff (the old
        #: rewait ladder burned ~30 events per request under full
        #: chaos — the profiler attributed 74 % of the study's events
        #: to it).  Parked requests are drained when capacity can have
        #: returned: a breaker's open window expiring (timed wake), a
        #: half-open probe slot freeing (completion drain), a host
        #: recovering, or — the resolution backstop — the earliest
        #: parked deadline, where ``_launch`` fails the request.
        self._parked: List[Request] = []
        #: Earliest pending capacity-wake event time (coalesces wakes;
        #: stale wake events drain harmlessly).
        self._wake_at: Optional[int] = None
        self._draining = False
        #: Control-plane intent journal (duck-typed: record_admit /
        #: record_launch / record_outcome / record_fenced).  None for a
        #: standalone gateway — every hook is behind a None check so the
        #: legacy hot path pays one attribute test, nothing more.
        self.journal = None
        #: Set when the control plane abandons this incarnation (the
        #: gateway shard crashed and a replacement took over).  Every
        #: engine-scheduled entry point bails out when fenced, so a slow
        #: pre-crash attempt can never mutate recovered state or
        #: double-complete a request the replacement re-dispatched.
        self.fenced = False
        #: Attempt deferrals with no routable host, counted at the park
        #: site (a rare path); None when metrics are off.
        self._no_host_wait = (
            self.obs.metrics.counter(
                "resilience.no_host_wait",
                "attempt deferrals with no routable host",
            )
            if self.obs.metrics.enabled
            else None
        )

    # ------------------------------------------------------------------
    def attach(self, injector: FailureInjector) -> None:
        """Subscribe to the injector's crash/recovery notifications."""
        injector.on_crash.append(self._handle_crash)
        injector.on_recover.append(self._handle_recover)

    def _spec(self, function_name: str):
        return self.cluster.hosts[0].registry.get(function_name)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        function_name: str,
        priority: int = 0,
        deadline_ns: Optional[int] = None,
        run_logic: bool = False,
        origin: int = -1,
        submit_ns: Optional[int] = None,
    ) -> Request:
        """Admit (or shed) one request and start its first attempt.

        ``origin`` is the frontend's global request id (the intent-log
        key); ``submit_ns`` backdates the ledger entry to the original
        arrival instant for requests that waited in the frontend
        parking lot — latency and the deadline are measured from it,
        so frontend queueing is never hidden.
        """
        now = self._clock._now
        arrived = now if submit_ns is None else submit_ns
        request = self._new_request(
            function_name,
            priority,
            arrived,
            arrived + (deadline_ns or self.config.default_deadline_ns),
            run_logic,
            origin,
        )
        journal = self.journal
        if journal is not None:
            journal.record_admit(request, now)
        if not self.admission.admit(priority, self.active):
            request.state = RequestState.SHED
            request.resolution = "admission-overload"
            if journal is not None:
                journal.record_outcome(request, now, fence=0)
            if self.obs.enabled:
                self.obs.metrics.counter(
                    "resilience.shed", "requests shed by admission control"
                ).inc()
                self.obs.tracer.record_instant(
                    "request.shed", now, category="resilience",
                    function=function_name, priority=priority,
                )
            return request
        return self._start(request)

    def restore(
        self,
        function_name: str,
        priority: int,
        submit_ns: int,
        deadline_ns: int,
        origin: int,
        run_logic: bool = False,
    ) -> Request:
        """Reconstruct an admitted-but-unresolved request from an intent
        log (control-plane recovery).

        The request was already admitted by the crashed incarnation, so
        admission is bypassed (a replacement shard must not shed work it
        is obligated to finish) and no second admit record is journaled.
        The retry budget starts fresh: the crashed incarnation's attempt
        history is unknowable by design, and recovery re-dispatches must
        not burn budget the client never saw consumed.  The original
        absolute deadline still applies.
        """
        return self._start(
            self._new_request(
                function_name, priority, submit_ns, deadline_ns, run_logic, origin
            )
        )

    def _new_request(
        self,
        function_name: str,
        priority: int,
        submit_ns: int,
        deadline_ns: int,
        run_logic: bool,
        origin: int,
    ) -> Request:
        """Enter one request in the ledger, on its first ladder rung."""
        request = Request(
            request_id=len(self.requests),
            function=function_name,
            priority=priority,
            submit_ns=submit_ns,
            deadline_ns=deadline_ns,
            current_start=(
                StartType.HORSE
                if self._spec(function_name).is_ull
                else StartType.WARM
            ),
            run_logic=run_logic,
            origin=origin,
        )
        self.requests.append(request)
        return request

    def _start(self, request: Request) -> Request:
        """Count an admitted request in flight and launch its first attempt."""
        self.active += 1
        self.dispatch.on_submit(request)
        self._launch(request, hedge=False)
        return request

    # ------------------------------------------------------------------
    # The attempt loop
    # ------------------------------------------------------------------
    def _launch(
        self, request: Request, hedge: bool, exclude: Optional[int] = None
    ) -> None:
        # `request.state.terminal` inlined: this method runs once per
        # attempt AND once per capacity drain, so every property hop
        # here is paid tens of thousands of times.
        if self.fenced or request.state is not RequestState.IN_FLIGHT:
            return
        now = self._clock._now
        if hedge:
            if request.hedges_used >= MAX_HEDGES:
                return
        else:
            if now >= request.deadline_ns:
                self._maybe_fail(request, "deadline")
                return
            if request.primary_count >= MAX_ATTEMPTS:
                self._maybe_fail(request, "retry-budget")
                return
        # A hedge excludes its primary's host.  An empty candidate list
        # branches here instead of through exception machinery.
        candidates = self.cluster.routable_or_empty(exclude, self._gate)
        host_index = (
            self.dispatch.select_host(request, candidates) if candidates else None
        )
        if host_index is None:
            if hedge:
                return  # hedging is best-effort; the primary is still out
            if self._no_host_wait is not None:
                self._no_host_wait.inc()
            self._park(request, now)
            return

        host = self.cluster.hosts[host_index]
        planned, miss = plan_start(
            host.pool.size(request.function), request.current_start
        )
        if miss is not None:
            self.degradations.record(request.current_start, StartType.COLD)
            if self.obs.enabled:
                self.obs.metrics.counter(
                    f"resilience.degrade.{miss}", "pool-miss degradations"
                ).inc()
        breaker = self.breakers.get(host_index)
        if breaker is not None:
            breaker.on_attempt(now)
        attempt = Attempt(
            index=len(request.attempts),
            host=host_index,
            start_type=planned,
            launched_ns=now,
            hedge=hedge,
        )
        request.attempts.append(attempt)
        journal = self.journal
        if journal is not None:
            # Write-ahead: the launch intent (and its fencing token) is
            # journaled before the dispatch can fail or complete.
            attempt.fence = journal.record_launch(request, attempt, now)
        if not hedge:
            request.primary_count += 1
        if hedge:
            request.hedges_used += 1
            if self.obs.enabled:
                self.obs.metrics.counter(
                    "resilience.hedge", "hedged attempts fired"
                ).inc()
        elif attempt.index > 0 and self.obs.enabled:
            self.obs.metrics.counter(
                "resilience.retry", "retry attempts fired"
            ).inc()

        try:
            invocation = self.cluster.trigger_on(
                host_index, request.function, planned, run_logic=request.run_logic
            )
        except TransientResumeError as exc:
            # The sandbox is untouched (still PAUSED): give it back.
            host.pool.release(request.function, exc.sandbox)
            # The backoff is drawn before the verdict, hedges included:
            # the order of draws on the backoff stream is seeded output.
            delay = backoff_ns(max(1, request.primary_count), self._rng)
            if self._attempt_failed(request, attempt, "transient", now):
                self._retry_at(request, now + delay, "resilience-retry")
            return
        except HungResumeError as exc:
            # Stuck in RESUMING.  The client cannot see a hang — the
            # attempt just never completes — so it stays "executing"
            # until the hang timeout detects it (and a hedge may race it
            # to completion in the meantime).
            self._begin_hang(request, attempt, exc.sandbox, host_index)
            return

        attempt.invocation = invocation
        attempt.executing = True
        request.executing += 1
        self._inflight[host_index].append((request, attempt))
        attempt.completion_event = self.engine.schedule_at(
            invocation.exec_end_ns,
            lambda: self._on_complete(request, attempt),
            label=f"resilience-complete:{request.request_id}.{attempt.index}",
        )
        if not hedge:
            self._schedule_hedge(request, host_index, now)

    # ------------------------------------------------------------------
    # The capacity parking lot
    # ------------------------------------------------------------------
    def _park(self, request: Request, now: int) -> None:
        """Wait for routable capacity without polling.

        The wake time is the earliest instant anything *timed* can
        change routability: an OPEN breaker on a healthy host reaching
        its half-open probe window, or the request's own retry
        deadline (which resolves it via ``_maybe_fail``).  Untimed
        capacity changes — a half-open probe slot freeing, a crashed
        host recovering — drain the lot from the corresponding gateway
        hooks instead, so no event fires while nothing can change.
        """
        self._parked.append(request)
        target = request.deadline_ns
        health = self.cluster.health
        for index, breaker in self.breakers.items():
            if breaker.state is BreakerState.OPEN and health[index].up:
                assert breaker.opened_at_ns is not None
                target = min(
                    target, breaker.opened_at_ns + breaker.config.open_ns
                )
        # A drain at `now` would re-park into a same-instant loop: the
        # breaker windows and the deadline are both strictly ahead, and
        # the clamp keeps it that way against future callers.
        target = max(target, now + 1)
        if self._wake_at is None or target < self._wake_at:
            self._wake_at = target
            self.engine.schedule_at(
                target,
                self._wake,
                label="resilience-capacity-wake",
                transient=True,
            )

    def _wake(self) -> None:
        if self.fenced:
            return
        self._wake_at = None
        self._drain_parked()

    def _drain_parked(self) -> None:
        """Re-dispatch every parked request (they re-park if still dry).

        Guarded against re-entry: a drained request whose attempt fails
        synchronously lands back in ``_attempt_failed`` which may drain
        again mid-iteration otherwise.
        """
        if not self._parked or self._draining:
            return
        self._draining = True
        try:
            parked = self._parked
            self._parked = []
            # The dispatch policy owns the dequeue order: FIFO for the
            # push default (byte-identical to pre-policy behavior),
            # priority classes for pull, virtual-time for MQFQ, EDF for
            # deadline-aware.
            for request in self.dispatch.order_queue(parked):
                self._launch(request, hedge=False)
        finally:
            self._draining = False

    def _schedule_hedge(
        self, request: Request, primary_host: int, now: int
    ) -> None:
        spec = self._spec(request.function)
        if (
            self.config.hedge
            and spec.is_ull
            and request.hedges_used < MAX_HEDGES
            and len(self.cluster.hosts) > 1
        ):
            self.engine.schedule_at(
                now + HEDGE_DELAY_NS,
                lambda: self._maybe_hedge(request, primary_host),
                label=f"resilience-hedge:{request.request_id}",
                transient=True,
            )

    def _maybe_hedge(self, request: Request, primary_host: int) -> None:
        if self.fenced or request.state.terminal or request.executing == 0:
            return
        self._launch(request, hedge=True, exclude=primary_host)

    def _begin_hang(
        self, request: Request, attempt: Attempt, sandbox, host_index: int
    ) -> None:
        """A resume hung: the attempt looks in-flight until the timeout."""
        now = self._clock._now
        attempt.executing = True
        request.executing += 1
        self.engine.schedule_at(
            now + HANG_TIMEOUT_NS,
            lambda: self._on_hang_timeout(request, attempt, sandbox),
            label=f"resilience-hang:{request.request_id}.{attempt.index}",
            transient=True,
        )
        if not attempt.hedge:
            self._schedule_hedge(request, host_index, now)

    def _on_hang_timeout(self, request: Request, attempt: Attempt, sandbox) -> None:
        """The hang timeout fired: write the attempt (and sandbox) off."""
        # The node-local watchdog reclaims the hung sandbox even when
        # this incarnation is dead; its bookkeeping then stays frozen
        # (the replacement re-dispatched from the log).
        self.cluster.hosts[attempt.host].destroy_sandbox(sandbox)
        if self.fenced:
            return
        # The timeout itself was the wait; retry without further backoff.
        if self._attempt_failed(request, attempt, "hung", self._clock._now):
            self._launch(request, hedge=False)

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------
    def _on_complete(self, request: Request, attempt: Attempt) -> None:
        now = self._clock._now
        attempt.completion_event = None  # fired: nothing left to cancel
        if self.fenced:
            # A pre-crash attempt finished after the shard was replaced.
            # The fencing token is stale — the completion is dropped
            # (counted, never applied), which is exactly what makes the
            # recovery re-dispatch safe from double-completion.
            if self.journal is not None:
                self.journal.record_fenced(request, attempt, now)
            return
        attempt.executing = False
        request.executing -= 1
        self._forget_inflight(attempt.host, attempt)
        breaker = self.breakers.get(attempt.host)
        freed_capacity = False
        if breaker is not None:
            # A success on a gated breaker re-opens routing (half-open
            # probe slot freed, or the breaker re-closed) — that is new
            # capacity the parked requests are waiting on.
            freed_capacity = breaker.state is not BreakerState.CLOSED
            breaker.record_success(now)
        if request.state is RequestState.IN_FLIGHT:
            request.state = RequestState.COMPLETED
            request.completed_ns = now
            request.resolution = f"attempt-{attempt.index}"
            self.active -= 1
            if self.journal is not None:
                self.journal.record_outcome(request, now, fence=attempt.fence)
            if self.obs.enabled:
                metrics = self.obs.metrics
                metrics.counter("resilience.complete", "requests completed").inc()
                metrics.histogram(
                    "request.latency_ns",
                    help="submit -> completion, retries/backoff included",
                ).observe(request.latency_ns or 0)
        else:
            request.redundant_hedges += 1
            if self.obs.enabled:
                self.obs.metrics.counter(
                    "resilience.hedge_redundant",
                    "hedged attempts that lost the race",
                ).inc()
        if freed_capacity:
            self._drain_parked()
        self.dispatch.on_complete(request, attempt)
        # A completion frees capacity on the host; pull-shaped policies
        # treat that as the host asking for more work.
        if self._parked and self.dispatch.on_host_idle(attempt.host):
            self._drain_parked()

    def _attempt_failed(
        self, request: Request, attempt: Attempt, kind: str, now: int
    ) -> bool:
        """The one failure path: a transient error, a hang timeout or a
        host crash ended *attempt* (*kind* names which).

        Retires the attempt, records the failure (status, breaker,
        counter) and decides what happens next.  A hedge is fire-once
        and a resolved request needs nothing more: both only settle a
        failure the primary path deferred to them.  Otherwise the
        request steps one rung down the ladder and the caller, which
        owns the timing, retries it (returns True).
        """
        if attempt.executing:
            attempt.executing = False
            request.executing -= 1
        attempt.status = kind
        breaker = self.breakers.get(attempt.host)
        if breaker is not None:
            breaker.record_failure(now)
        if self.obs.enabled:
            self.obs.metrics.counter(
                f"resilience.attempt_fail.{kind}", "failed attempts by kind"
            ).inc()
        if attempt.hedge or request.state is not RequestState.IN_FLIGHT:
            self._settle_deferred(request)
            return False
        previous = request.current_start
        request.current_start = degrade(previous)
        self.degradations.record(previous, request.current_start)
        return True

    def _retry_at(self, request: Request, at_ns: int, label: str) -> None:
        self.engine.schedule_at(
            at_ns,
            lambda: self._launch(request, hedge=False),
            label=f"{label}:{request.request_id}",
            transient=True,
        )

    def _maybe_fail(self, request: Request, reason: str) -> None:
        """Fail the request — unless an attempt is still executing, in
        which case that attempt decides the outcome: its completion wins
        the request, its failure lands the deferred *reason*."""
        if request.state.terminal:
            return
        if request.executing > 0:
            request.deferred_fail = reason
            return
        request.state = RequestState.FAILED
        request.resolution = reason
        self.active -= 1
        if self.journal is not None:
            self.journal.record_outcome(request, self._clock._now, fence=0)
        if self.obs.enabled:
            self.obs.metrics.counter(
                f"resilience.fail.{reason}", "requests explicitly failed"
            ).inc()
            self.obs.tracer.record_instant(
                "request.fail", self.engine.now, category="resilience",
                function=request.function, reason=reason,
                attempts=len(request.attempts),
            )

    def _settle_deferred(self, request: Request) -> None:
        """A hedge ended unsuccessfully: if no attempt is left executing
        and the primary path already gave up, fail the request now."""
        if request.deferred_fail and request.executing == 0:
            self._maybe_fail(request, request.deferred_fail)

    def _forget_inflight(self, host_index: int, attempt: Attempt) -> None:
        self._inflight[host_index] = [
            pair for pair in self._inflight[host_index] if pair[1] is not attempt
        ]

    # ------------------------------------------------------------------
    # Infrastructure events
    # ------------------------------------------------------------------
    def _handle_crash(self, host_index: int, now_ns: int) -> None:
        """Fail every in-flight attempt on a crashed host and re-dispatch."""
        if self.fenced:
            return  # the replacement incarnation owns the host's work now
        self.dispatch.on_crash(host_index, now_ns)
        victims = self._inflight[host_index]
        self._inflight[host_index] = []
        host = self.cluster.hosts[host_index]
        for request, attempt in victims:
            invocation = attempt.invocation
            assert invocation is not None
            invocation.cancelled = True
            if invocation.completion_event is not None:
                invocation.completion_event.cancel()
            if attempt.completion_event is not None:
                attempt.completion_event.cancel()  # type: ignore[attr-defined]
            if invocation.sandbox is not None:
                host.destroy_sandbox(invocation.sandbox)
            if self._attempt_failed(request, attempt, "crash", now_ns):
                delay = backoff_ns(max(1, request.primary_count), self._rng)
                self._retry_at(request, now_ns + delay, "resilience-crash-retry")

    def _handle_recover(self, host_index: int, now_ns: int) -> None:
        """Re-warm a recovered host so warm affinity can return to it."""
        if self.fenced:
            return
        self.dispatch.on_recover(host_index, now_ns)
        if self.config.rewarm_per_host >= 1:
            host = self.cluster.hosts[host_index]
            for name in host.registry.names():
                spec = host.registry.get(name)
                host.provision_warm(
                    name,
                    count=self.config.rewarm_per_host,
                    use_horse=spec.is_ull,
                )
            if self.obs.enabled:
                self.obs.metrics.counter(
                    "resilience.rewarm", "host recoveries re-warmed"
                ).inc()
        # The recovered host is routable again (modulo its breaker) —
        # wake anything waiting for capacity.
        self._drain_parked()

    # ------------------------------------------------------------------
    # Ledger queries & invariants
    # ------------------------------------------------------------------
    def by_state(self, state: RequestState) -> List[Request]:
        return [r for r in self.requests if r.state is state]

    def invariant_violations(self) -> List[str]:
        """Ledger soundness (legal any time during a run)."""
        violations: List[str] = []
        for request in self.requests:
            rid = f"request {request.request_id}"
            if request.state is RequestState.SHED and request.attempts:
                violations.append(f"{rid}: shed but has attempts")
            if request.state is RequestState.SHED and request.completed_ns is not None:
                violations.append(f"{rid}: both shed and completed")
            if (
                request.state is RequestState.COMPLETED
                and request.completed_ns is None
            ):
                violations.append(f"{rid}: completed without a completion time")
            if request.primary_count > MAX_ATTEMPTS:
                violations.append(
                    f"{rid}: {request.primary_count} primary attempts "
                    f"exceed budget {MAX_ATTEMPTS}"
                )
            if request.hedges_used > MAX_HEDGES:
                violations.append(
                    f"{rid}: {request.hedges_used} hedges exceed budget "
                    f"{MAX_HEDGES}"
                )
            if request.executing < 0:
                violations.append(
                    f"{rid}: negative executing count {request.executing}"
                )
        for breaker in self.breakers.values():
            violations.extend(breaker.invariant_violations())
        violations.extend(self.dispatch.invariant_violations())
        terminal_active = sum(
            1
            for r in self.requests
            if r.state in (RequestState.IN_FLIGHT,)
        )
        if self.active != terminal_active:
            violations.append(
                f"gateway: active={self.active} but "
                f"{terminal_active} requests are in flight"
            )
        return violations

    def unresolved_violations(self) -> List[str]:
        """End-of-run check: every request must be terminal ("no lost
        invocations")."""
        return [
            f"request {r.request_id} ({r.function}) never resolved: "
            f"{len(r.attempts)} attempts, executing={r.executing}"
            for r in self.requests
            if r.state is RequestState.IN_FLIGHT
        ]

    def __repr__(self) -> str:
        states = {
            state.value: len(self.by_state(state)) for state in RequestState
        }
        return f"ResilientGateway({states})"
