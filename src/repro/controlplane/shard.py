"""One gateway shard: a resilient gateway incarnation + its intent log.

The shard is the failure domain.  Its :class:`IntentLog` is the only
state that survives a crash; the live
:class:`~repro.resilience.ResilientGateway` incarnation (breakers,
admission occupancy, in-flight table, timers) is soft state.  On crash
the incarnation is *fenced* — every engine-scheduled callback it still
owns becomes a no-op, and late completions of its attempts are counted
and dropped.  On recovery the shard:

1. bumps its epoch and builds a fresh gateway incarnation (fresh
   admission watermarks — shed state resets conservatively);
2. re-opens every circuit breaker (the predecessor's breaker state is
   unknowable by design, so the replacement assumes every host suspect
   and lets half-open probes rediscover health);
3. replays the log: every admitted-but-unresolved request is
   reconstructed with its original submit instant and absolute
   deadline, and re-dispatched under new-epoch fencing tokens with a
   fresh retry budget (the predecessor's attempt history died with it).

Fencing tokens are drawn from a shard-level counter that is never
reset, so token order is a total order over every launch the shard ever
made, across all epochs — the monotonicity invariant the checkers
verify.

The log, the epoch and the fence counter live in a
:class:`ShardJournal` the shard owns and hands to every incarnation.
The journal points at nothing above it: an incarnation (live or fenced)
never reaches back to the shard that built it.
"""

from __future__ import annotations

from typing import Optional

from repro.controlplane.intentlog import IntentLog
from repro.faas.cluster import FaaSCluster
from repro.resilience.failures import FailureInjector
from repro.resilience.gateway import (
    Attempt,
    Request,
    ResilienceConfig,
    ResilientGateway,
)
from repro.sim.rng import RngRegistry


class ShardJournal:
    """A shard's durable state: its intent log, epoch and fence counter.

    This is the journal protocol the gateway calls, write-ahead:
    ``record_admit`` / ``record_launch`` / ``record_outcome`` /
    ``record_fenced``.  Each incarnation holds the journal, and the
    shard holds it too; the journal holds neither of them.
    """

    __slots__ = ("log", "epoch", "_next_fence", "fenced")

    def __init__(self, shard_id: int) -> None:
        self.log = IntentLog(shard_id)
        #: incremented on every recovery; stamped into log records
        self.epoch = 0
        #: never reset — fencing tokens are monotone across epochs
        self._next_fence = 1
        #: stale pre-crash completions dropped by the fence, cumulative
        self.fenced = 0

    def record_admit(self, request: Request, now: int) -> None:
        self.log.admit(
            t=now,
            origin=request.origin,
            epoch=self.epoch,
            function=request.function,
            priority=request.priority,
            submit_ns=request.submit_ns,
            deadline_ns=request.deadline_ns,
        )

    def record_launch(self, request: Request, attempt: Attempt, now: int) -> int:
        fence = self._next_fence
        self._next_fence = fence + 1
        self.log.launch(
            t=now,
            origin=request.origin,
            epoch=self.epoch,
            fence=fence,
            host=attempt.host,
        )
        return fence

    def record_outcome(self, request: Request, now: int, fence: int) -> None:
        latency = request.latency_ns
        self.log.outcome(
            t=now,
            origin=request.origin,
            epoch=self.epoch,
            state=request.state.value,
            fence=fence,
            latency_ns=latency if latency is not None else -1,
        )

    def record_fenced(self, request: Request, attempt: Attempt, now: int) -> None:
        self.fenced += 1


class GatewayShard:
    """The control plane's unit of failure and recovery."""

    def __init__(
        self,
        shard_id: int,
        cluster: FaaSCluster,
        resilience: ResilienceConfig = ResilienceConfig(),
        seed: int = 0,
    ) -> None:
        self.shard_id = shard_id
        self.cluster = cluster
        self.resilience = resilience
        self.seed = seed
        self.journal = ShardJournal(shard_id)
        self.log = self.journal.log
        self.down = False
        self.crashes = 0
        self.recoveries = 0
        #: orphaned requests re-dispatched from the log, cumulative
        self.redispatched = 0
        #: the per-host failure injector to re-attach on rebuild
        self.host_injector: Optional[FailureInjector] = None
        self.gateway = self._build_gateway()

    # ------------------------------------------------------------------
    def _build_gateway(self) -> ResilientGateway:
        # Each incarnation gets its own derived seed: backoff draws must
        # not depend on how much entropy the dead incarnation consumed.
        seed = (
            RngRegistry(self.seed)
            .fork(f"gateway-epoch-{self.epoch}")
            .root_seed
        )
        gateway = ResilientGateway(self.cluster, self.resilience, seed=seed)
        gateway.journal = self.journal
        return gateway

    @property
    def epoch(self) -> int:
        """Incremented on every recovery; stamped into log records."""
        return self.journal.epoch

    @property
    def fenced_completions(self) -> int:
        """Stale pre-crash completions dropped by the fence, cumulative."""
        return self.journal.fenced

    def attach(self, injector: FailureInjector) -> None:
        """Subscribe the current (and every future) incarnation to the
        shard's host-level failure injector."""
        self.host_injector = injector
        self.gateway.attach(injector)

    # ------------------------------------------------------------------
    # Failure domain
    # ------------------------------------------------------------------
    def crash(self, now: int) -> bool:
        """Kill the live incarnation.  The data plane is untouched —
        hosts keep executing attempts already dispatched; their
        completions will find the incarnation fenced and be dropped."""
        if self.down:
            return False
        self.down = True
        self.crashes += 1
        self.gateway.fenced = True
        return True

    def recover(self, now: int) -> int:
        """Build the replacement incarnation from the log.

        Returns the number of orphaned requests re-dispatched.
        """
        if not self.down:
            return 0
        self.down = False
        self.recoveries += 1
        self.journal.epoch += 1
        self.gateway = self._build_gateway()
        if self.host_injector is not None:
            self.gateway.attach(self.host_injector)
        # Conservative: every host is suspect until a half-open probe
        # succeeds.
        for breaker in self.gateway.breakers.values():
            breaker.force_open(now, reason="conservative post-recovery re-open")
        orphans = list(self.log.open_admits())
        for record in orphans:
            self.redispatched += 1
            self.gateway.restore(
                function_name=record.function,
                priority=record.priority,
                submit_ns=record.submit_ns,
                deadline_ns=record.deadline_ns,
                origin=record.origin,
            )
        return len(orphans)

    # ------------------------------------------------------------------
    def submit(
        self,
        function_name: str,
        priority: int = 0,
        deadline_ns: Optional[int] = None,
        origin: int = -1,
        submit_ns: Optional[int] = None,
    ) -> Request:
        if self.down:
            raise RuntimeError(
                f"shard {self.shard_id} is down; the router must not "
                f"deliver to a crashed gateway"
            )
        return self.gateway.submit(
            function_name,
            priority=priority,
            deadline_ns=deadline_ns,
            origin=origin,
            submit_ns=submit_ns,
        )

    def __repr__(self) -> str:
        return (
            f"GatewayShard({self.shard_id}, epoch={self.epoch}, "
            f"{'down' if self.down else 'up'}, log={len(self.log)})"
        )
