"""Shard front-end: routing at the gateway-dispatch boundary.

In the sharded cluster model (DESIGN.md §12) the only cross-shard
messages are gateway dispatches: a request arrives at the front-end
router, is assigned to one failure-domain cell, and is delivered to
that cell's resilient gateway after the fixed dispatch hop.  HORSE's
premise — the gateway/transport hop has a known minimum latency — is
what makes the partition safe to run in parallel: that minimum is the
conservative lookahead window (:func:`repro.sim.sharding.windowed_run`).

:func:`plan_arrivals` draws the global arrival schedule and the routing
decisions from dedicated seeded streams, so the routed plan is a pure
function of ``(config-shaped arguments, seed)``: every worker layout
sees the identical per-cell delivery streams.  It is the one arrival
plan of the chaos family: the single-engine study schedules the
``groups=1`` plan at each ``submit_ns``, the sharded and recovery
studies deliver each cell's list at ``deliver_ns``.  Routing draws come
from their own forked stream and cannot perturb the arrival times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.sim.rng import RngRegistry
from repro.sim.units import microseconds, milliseconds

#: Minimum gateway-dispatch latency (front-end hop, ns): every routed
#: request reaches its cell this long after submission.  This is the
#: conservative lookahead — a cell at local time T cannot receive a
#: dispatch below T + this, so it may simulate that far unsynchronized.
DISPATCH_LATENCY_NS: int = microseconds(100)


@dataclass(frozen=True)
class RoutedArrival:
    """One request as the front-end router sees it."""

    index: int
    #: submission instant at the front-end (global clock, ns)
    submit_ns: int
    #: delivery instant at the cell gateway (submit + dispatch hop)
    deliver_ns: int
    #: failure-domain cell the router chose
    group: int
    function: str
    priority: int


def plan_arrivals(
    requests: int,
    groups: int,
    mean_interarrival_ms: float,
    ull_fraction: float,
    seed: int,
) -> Dict[int, List[RoutedArrival]]:
    """Draw and route the full arrival schedule, grouped by cell.

    Returns ``{group: [RoutedArrival, ...]}`` with every group present
    (possibly empty) and each group's list in ascending delivery order.
    Arrival times and the uLL draw come from the ``chaos-arrivals``
    stream; the group comes from an independent ``shard-router`` stream
    so the same seed offers the same load whether or not it is sharded.
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if groups < 1:
        raise ValueError(f"groups must be >= 1, got {groups}")
    arrivals = RngRegistry(seed).fork("chaos-arrivals").stream("times")
    router = RngRegistry(seed).fork("shard-router").stream("route")
    mean_gap_ns = milliseconds(mean_interarrival_ms)
    plan: Dict[int, List[RoutedArrival]] = {g: [] for g in range(groups)}
    t = 0
    for index in range(requests):
        t += max(1, round(arrivals.expovariate(1.0 / mean_gap_ns)))
        ull = arrivals.random() < ull_fraction
        group = router.randrange(groups)
        plan[group].append(
            RoutedArrival(
                index=index,
                submit_ns=t,
                deliver_ns=t + DISPATCH_LATENCY_NS,
                group=group,
                function="firewall" if ull else "background",
                priority=1 if ull else 0,
            )
        )
    return plan
