"""Self-check of the span arithmetic the per-layer report rests on.

Run at the start of every benchmark run; any problem makes the run
incorrect.  Three claims:

1. self time subtracts exactly the child-covered part, on a nested
   synthetic call tree with known durations (scripted clock);
2. a request id spreads from the root submit span to its trigger,
   resume and P2SM child spans, through the real boundary wrappers on a
   small real stack, and the next submit gets a new id;
3. coverage never exceeds 1.
"""

from __future__ import annotations

from typing import List

from layers import Boundaries
from spans import SpanRecorder, covered_ns


def _scripted(times: List[int]):
    ticks = iter(times)
    return lambda: next(ticks)


def _check_arithmetic() -> List[str]:
    problems: List[str] = []
    # root [0,100] > a [10,30] > a1 [12,18]
    #              > b [40,70] > b1 [50,60], b2 [60,65]
    clock = _scripted([0, 10, 12, 18, 30, 40, 50, 60, 60, 65, 70, 100])
    rec = SpanRecorder(clock)
    root = rec.open("root", root=True)
    a = rec.open("a")
    a1 = rec.open("a1")
    rec.close(a1)
    rec.close(a)
    b = rec.open("b")
    b1 = rec.open("b1")
    rec.close(b1)
    b2 = rec.open("b2")
    rec.close(b2)
    rec.close(b)
    rec.close(root)
    expected = {root: 100 - 20 - 30, a: 20 - 6, a1: 6, b: 30 - 15, b1: 10,
                b2: 5}
    selfs = rec.self_ns()
    for index, want in expected.items():
        if selfs[index] != want:
            problems.append(
                f"self time of {rec.names[index]}: {selfs[index]} != {want}"
            )
    if sum(selfs) != 100:
        problems.append(f"self times sum to {sum(selfs)}, not the root's 100")
    # Union arithmetic on overlapping / out-of-range intervals.
    cases = [
        (([(0, 10), (5, 15)], 0, 20), 15),
        (([(0, 10), (20, 30)], 5, 25), 10),
        (([(-5, 50)], 0, 20), 20),
        (([], 0, 20), 0),
    ]
    for (intervals, lo, hi), want in cases:
        got = covered_ns(intervals, lo, hi)
        if got != want:
            problems.append(f"covered_ns{intervals, lo, hi} = {got} != {want}")
    for lo, hi in ((0, 100), (-50, 100), (10, 30), (0, 1)):
        value = rec.coverage(lo, hi)
        if not 0.0 <= value <= 1.0:
            problems.append(f"coverage over [{lo},{hi}] = {value} > 1")
    if rec.coverage(0, 100) != 1.0:
        problems.append("root span does not cover its own interval")
    return problems


def _check_request_ids() -> List[str]:
    from repro.faas.cluster import FaaSCluster
    from repro.faas.function import FunctionSpec
    from repro.resilience import ResilienceConfig, ResilientGateway
    from repro.workloads import FirewallWorkload

    problems: List[str] = []
    cluster = FaaSCluster(hosts=2, seed=0)
    cluster.register(
        FunctionSpec("firewall", FirewallWorkload(), memory_mb=128)
    )
    cluster.provision_warm("firewall", per_host=2)
    rec = SpanRecorder()
    with Boundaries(rec):
        gateway = ResilientGateway(
            cluster, ResilienceConfig(dispatch="push-least-loaded"), seed=0
        )
        for t in (1_000, 2_000):
            cluster.engine.schedule_at(
                t, lambda: gateway.submit("firewall", priority=1)
            )
        cluster.engine.run()
    roots = [i for i, n in enumerate(rec.names) if n == "resilience.submit"]
    if len(roots) != 2:
        return [f"expected 2 submit spans, saw {len(roots)}"]
    ids = [rec.request_ids[i] for i in roots]
    if ids[0] < 0 or ids[0] == ids[1]:
        problems.append(f"submit spans carry request ids {ids}")
    kids = rec.children()
    for root in roots:
        seen = set()
        todo = list(kids[root])
        while todo:
            index = todo.pop()
            todo.extend(kids[index])
            seen.add(rec.names[index])
            if rec.request_ids[index] != rec.request_ids[root]:
                problems.append(
                    f"{rec.names[index]} under submit carries id "
                    f"{rec.request_ids[index]}, not {rec.request_ids[root]}"
                )
        for name in ("faas.trigger", "core.resume", "core.p2sm.merge"):
            if name not in seen:
                problems.append(f"no {name} span under submit {root}")
    engine_runs = [i for i, n in enumerate(rec.names) if n == "sim.run"]
    if any(rec.request_ids[i] >= 0 for i in engine_runs):
        problems.append("sim.run span carries a request id")
    return problems


def run_selfcheck() -> List[str]:
    return _check_arithmetic() + _check_request_ids()
