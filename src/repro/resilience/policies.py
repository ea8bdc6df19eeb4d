"""Pluggable dispatch policies for the resilient gateway.

The gateway used to hard-code one push-based placement call; every
placement decision now routes through a :class:`DispatchPolicy`, a
small hook protocol wide enough for push *and* pull shaped scheduling:

* ``on_submit(request)`` — admission-time bookkeeping (fair-queueing
  policies stamp virtual-time tags here);
* ``select_host(request, candidates) -> Optional[int]`` — the placement
  decision proper.  Returning ``None`` parks the request in the
  gateway's capacity lot (for a pull policy that *is* the central
  queue: no host has a free pull slot);
* ``order_queue(parked)`` — the dequeue order when the parking lot
  drains (FIFO for push, priority/virtual-time/EDF for the rest);
* ``on_host_idle(host)`` — after a completion freed capacity on a
  host; return True to drain the queue (the pull signal: "this worker
  asks for more");
* ``on_complete / on_crash / on_recover`` — lifecycle notifications to
  retire tags and sticky state;
* ``invariant_violations()`` — policy-internal soundness, folded into
  the gateway's audit.

Policies are registered on a shared :class:`~repro.policyreg.PolicyRegistry`
under the same convention as the prewarm policies; the
``REPRO_DISPATCH_POLICY`` env var picks the default, and there is no
in-process override.

Shipped contenders
------------------

``push-least-loaded``
    The pre-refactor behavior, bit for bit: delegate to the cluster's
    placement policy (warm-affinity over least-loaded by default).
    Byte-identical same-seed output is a hard regression gate.

``pull[-<slots>]``
    Hiku-style pull scheduling: instead of the gateway pushing onto a
    load estimate, each host exposes ``slots`` pull slots (default 8)
    and work only moves when a host has a free slot — the central
    queue is the gateway's parking lot, drained high-priority-first
    whenever a completion frees a slot.  Kills load-estimate staleness
    at the cost of queueing when the fleet is saturated.

``mqfq-sticky``
    MQFQ start-time fair queueing over per-function flows with
    locality-sticky placement: each flow carries an integer virtual
    start tag (weighted by priority class), the parked queue drains in
    tag order, and a flow re-uses its previous host while that host
    has spare depth — stickiness that accelerator-tagged functions
    (GPU) turn into data-locality wins.

``deadline[-<slack_ms>]``
    Żuk-style deadline-aware ordering: the parked queue drains
    earliest-deadline-first, and a request inside its slack window
    (default 50 ms) is steered to hosts holding a warm sandbox so the
    tail does not pay a cold start it has no time for.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.faas.cluster import FaaSCluster, _least_loaded_of
from repro.policyreg import PolicyRegistry
from repro.sim.units import milliseconds

if TYPE_CHECKING:  # pragma: no cover - import cycle (gateway imports us)
    from repro.resilience.gateway import Attempt, Request, ResilientGateway


def eligible_candidates(
    cluster: FaaSCluster, function_name: str, candidates: List[int]
) -> List[int]:
    """Filter *candidates* down to hosts satisfying the function's
    accelerator requirement.  On a homogeneous cluster (no tags — the
    overwhelmingly common case) the input list is returned untouched,
    keeping the hot path allocation-free."""
    accelerators = cluster.accelerators
    if not accelerators:
        return candidates
    need = cluster.hosts[0].registry.get(function_name).accelerator
    if not need:
        return candidates
    return [i for i in candidates if need in accelerators.get(i, ())]


class DispatchPolicy:
    """Base protocol; every hook except ``select_host`` defaults to the
    push-shaped no-op so the pre-refactor event flow is the baseline."""

    name: str = "abstract"

    def __init__(self) -> None:
        self.cluster: Optional[FaaSCluster] = None
        #: the bound gateway's in-flight table (host -> [(request,
        #: attempt)]), ledger and clock: all a policy reads of it
        self._inflight: Optional[Dict[int, list]] = None
        self._requests: Optional[List["Request"]] = None
        self._clock = None

    def bind(self, gateway: "ResilientGateway") -> None:
        """Attach to one gateway (policies are single-owner: a fresh
        instance per gateway, from the registry factory).

        The policy keeps the gateway's cluster, in-flight table, ledger
        and clock, never the gateway itself: the gateway owns its
        policy, and a back-pointer would make the pair a reference
        cycle (DESIGN.md §10).
        """
        if self._inflight is not None and self._inflight is not gateway._inflight:
            raise ValueError(
                f"dispatch policy {self.name!r} is already bound; "
                "make() a fresh instance per gateway"
            )
        self.cluster = gateway.cluster
        self._inflight = gateway._inflight
        self._requests = gateway.requests
        self._clock = gateway._clock

    # -- hooks ---------------------------------------------------------
    def on_submit(self, request: "Request") -> None:
        """A request was admitted (before its first launch attempt)."""

    def select_host(
        self, request: "Request", candidates: List[int]
    ) -> Optional[int]:
        """Pick a host index from the non-empty routable *candidates*,
        or None to park the request until capacity changes."""
        raise NotImplementedError

    def order_queue(self, parked: List["Request"]) -> Sequence["Request"]:
        """Dequeue order for a parking-lot drain (default: FIFO)."""
        return parked

    def on_host_idle(self, host: int) -> bool:
        """A completion freed capacity on *host*.  Return True to drain
        the parked queue (the pull signal)."""
        return False

    def on_complete(self, request: "Request", attempt: "Attempt") -> None:
        """An attempt completed (the request may or may not be terminal)."""

    def on_crash(self, host: int, now_ns: int) -> None:
        """A host crashed (before the gateway re-dispatches victims)."""

    def on_recover(self, host: int, now_ns: int) -> None:
        """A crashed host came back (before re-warm and drain)."""

    def invariant_violations(self) -> List[str]:
        """Policy-internal soundness; audited with the gateway ledger."""
        return []


class PushPlacementPolicy(DispatchPolicy):
    """Pre-refactor default: push onto the cluster's placement policy.

    ``select_host`` must stay byte-identical to the old inline call —
    same candidate list, same delegation — on accelerator-free
    clusters; the chaos goldens pin it.
    """

    name = "push-least-loaded"

    def select_host(
        self, request: "Request", candidates: List[int]
    ) -> Optional[int]:
        cluster = self.cluster
        if cluster.accelerators:
            candidates = eligible_candidates(
                cluster, request.function, candidates
            )
            if not candidates:
                return None
        return cluster.placement.choose_from(
            cluster, request.function, candidates
        )


class PullQueuePolicy(DispatchPolicy):
    """Hiku-style pull scheduling: hosts pull, the gateway queues.

    A host is *pullable* while it has fewer than ``slots`` attempts in
    flight (the gateway's ``_inflight`` ledger is exact, not a stale
    estimate — that exactness is the point of pull scheduling).  With
    no pullable host the request parks; every completion is a pull
    signal (``on_host_idle`` → drain), and the queue releases
    high-priority (uLL) work first, FIFO within a class.
    """

    name = "pull"

    def __init__(self, slots: int = 8) -> None:
        super().__init__()
        if slots < 1:
            raise ValueError(f"pull slots must be >= 1, got {slots}")
        self.slots = slots

    def select_host(
        self, request: "Request", candidates: List[int]
    ) -> Optional[int]:
        cluster = self.cluster
        candidates = eligible_candidates(cluster, request.function, candidates)
        inflight = self._inflight
        slots = self.slots
        best = None
        best_depth = slots
        for i in candidates:
            depth = len(inflight[i])
            if depth < best_depth:
                best = i
                best_depth = depth
        return best

    def order_queue(self, parked: List["Request"]) -> Sequence["Request"]:
        # Stable sort: FIFO within a priority class.
        return sorted(parked, key=lambda r: -r.priority)

    def on_host_idle(self, host: int) -> bool:
        return True

    def invariant_violations(self) -> List[str]:
        over = [
            i
            for i, pairs in self._inflight.items()
            if len(pairs) > self.slots
        ]
        if over:
            return [
                f"pull: hosts {over} exceed {self.slots} pull slots"
            ]
        return []


#: Virtual cost of one request at weight 1, in abstract fair-queueing
#: units.  Integer arithmetic only — float virtual time would break the
#: byte-identity determinism contract across platforms.
_MQFQ_COST = 1_000_000


class MqfqStickyPolicy(DispatchPolicy):
    """MQFQ start-time fair queueing with locality-sticky flows.

    Each function name is a flow.  ``on_submit`` stamps the request
    with a virtual start tag ``max(V, finish[flow])`` and advances the
    flow's finish tag by ``cost / weight`` (priority > 0 weighs 4×, so
    uLL flows accumulate virtual time slower and win ties).  The
    parked queue drains in tag order — the fair-queueing schedule —
    and placement prefers the flow's previous host while it has spare
    depth, so warm state (and accelerator residency) is reused.
    """

    name = "mqfq-sticky"

    def __init__(self, sticky_depth: int = 4) -> None:
        super().__init__()
        if sticky_depth < 1:
            raise ValueError(
                f"mqfq sticky depth must be >= 1, got {sticky_depth}"
            )
        self.sticky_depth = sticky_depth
        self.virtual = 0
        self._finish: Dict[str, int] = {}
        self._tags: Dict[int, int] = {}
        self._last_host: Dict[str, int] = {}

    def on_submit(self, request: "Request") -> None:
        flow = request.function
        start = self._finish.get(flow, 0)
        if self.virtual > start:
            start = self.virtual
        self._tags[request.request_id] = start
        weight = 4 if request.priority > 0 else 1
        self._finish[flow] = start + _MQFQ_COST // weight

    def select_host(
        self, request: "Request", candidates: List[int]
    ) -> Optional[int]:
        tag = self._tags.get(request.request_id)
        if tag is not None and tag > self.virtual:
            self.virtual = tag
        cluster = self.cluster
        candidates = eligible_candidates(cluster, request.function, candidates)
        if not candidates:
            return None
        sticky = self._last_host.get(request.function)
        if (
            sticky is not None
            and sticky in candidates
            and len(self._inflight[sticky]) < self.sticky_depth
        ):
            host = sticky
        else:
            host = _least_loaded_of(cluster, candidates)
        self._last_host[request.function] = host
        return host

    def order_queue(self, parked: List["Request"]) -> Sequence["Request"]:
        tags = self._tags
        return sorted(
            parked, key=lambda r: (tags.get(r.request_id, 0), r.request_id)
        )

    def on_complete(self, request: "Request", attempt: "Attempt") -> None:
        if request.state.terminal:
            self._tags.pop(request.request_id, None)

    def on_crash(self, host: int, now_ns: int) -> None:
        # Sticky pointers at a dead host would force every flow through
        # the `sticky in candidates` miss path until it recovers.
        self._last_host = {
            flow: h for flow, h in self._last_host.items() if h != host
        }

    def invariant_violations(self) -> List[str]:
        violations: List[str] = []
        requests = self._requests
        from repro.resilience.gateway import RequestState

        stale = [
            rid
            for rid in self._tags
            if requests[rid].state is RequestState.COMPLETED
        ]
        if stale:
            violations.append(
                f"mqfq: {len(stale)} virtual-time tags for completed requests"
            )
        for flow, finish in self._finish.items():
            if finish < 0:
                violations.append(f"mqfq: flow {flow!r} finish tag {finish} < 0")
        return violations


class DeadlineAwarePolicy(DispatchPolicy):
    """Żuk-style deadline-aware dispatch with EDF queue release.

    Placement is least-loaded until a request enters its slack window
    (``tight_slack_ns`` before its deadline), at which point hosts
    holding a warm sandbox for the function are preferred — a request
    out of slack cannot afford the cold-start fallback.  The parking
    lot drains earliest-deadline-first.
    """

    name = "deadline"

    def __init__(self, tight_slack_ns: int = milliseconds(50)) -> None:
        super().__init__()
        if tight_slack_ns < 0:
            raise ValueError(
                f"deadline slack must be >= 0 ns, got {tight_slack_ns}"
            )
        self.tight_slack_ns = tight_slack_ns

    def select_host(
        self, request: "Request", candidates: List[int]
    ) -> Optional[int]:
        cluster = self.cluster
        candidates = eligible_candidates(cluster, request.function, candidates)
        if not candidates:
            return None
        slack = request.deadline_ns - self._clock._now
        if slack <= self.tight_slack_ns:
            hosts = cluster.hosts
            warm = [
                i
                for i in candidates
                if hosts[i].pool.size(request.function) > 0
            ]
            if warm:
                return _least_loaded_of(cluster, warm)
        return _least_loaded_of(cluster, candidates)

    def order_queue(self, parked: List["Request"]) -> Sequence["Request"]:
        return sorted(parked, key=lambda r: (r.deadline_ns, r.request_id))


# ----------------------------------------------------------------------
# Registry (the shared policy-axis convention: see repro.policyreg)
# ----------------------------------------------------------------------
DISPATCH_POLICIES = PolicyRegistry(
    axis="dispatch",
    env_var="REPRO_DISPATCH_POLICY",
    builtin="push-least-loaded",
)


def _make_push(spec: str) -> DispatchPolicy:
    return PushPlacementPolicy()


def _make_pull(spec: str) -> DispatchPolicy:
    if spec == "pull":
        return PullQueuePolicy()
    param = spec[len("pull-"):]
    try:
        slots = int(param)
    except ValueError:
        raise ValueError(f"bad pull slots spec {spec!r}") from None
    return PullQueuePolicy(slots=slots)


def _make_mqfq(spec: str) -> DispatchPolicy:
    return MqfqStickyPolicy()


def _make_deadline(spec: str) -> DispatchPolicy:
    if spec == "deadline":
        return DeadlineAwarePolicy()
    param = spec[len("deadline-"):]
    try:
        slack_ms = int(param)
    except ValueError:
        raise ValueError(f"bad deadline slack spec {spec!r}") from None
    return DeadlineAwarePolicy(tight_slack_ns=milliseconds(slack_ms))


DISPATCH_POLICIES.register("push-least-loaded", _make_push)
DISPATCH_POLICIES.register(
    "pull", _make_pull, syntax="pull[-<slots>]", parameterized=True
)
DISPATCH_POLICIES.register("mqfq-sticky", _make_mqfq)
DISPATCH_POLICIES.register(
    "deadline", _make_deadline, syntax="deadline[-<slack_ms>]",
    parameterized=True,
)


def make_dispatch_policy(spec: str) -> DispatchPolicy:
    """Instantiate a fresh dispatch policy from its spec string."""
    return DISPATCH_POLICIES.make(spec)


def default_dispatch_policy() -> str:
    """Effective default: ``REPRO_DISPATCH_POLICY`` > builtin."""
    return DISPATCH_POLICIES.default()
