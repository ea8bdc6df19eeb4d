"""Boundary tracing: wrap the program's public entry points in spans.

:class:`Boundaries` patches one method (or module function) per layer
boundary with a wrapper that opens a span on a :class:`SpanRecorder`,
calls the original, and closes the span.  Installation is scoped: the
originals are put back on exit, so untraced rounds in the same process
run the unmodified program.  Nothing under ``src/`` is edited.

:func:`layer_metrics` turns one traced round's spans, counts and
simulated tallies into the per-layer metrics the benchmark prints.
"""

from __future__ import annotations

import functools
import importlib
from typing import Callable, Dict, List, Optional, Tuple

from spans import SpanRecorder

# (module, class or None for a module function, attribute, span name, root)
_METHODS: Tuple[Tuple[str, Optional[str], str, str, bool], ...] = (
    ("repro.sim.engine", "Engine", "run", "sim.run", False),
    ("repro.resilience.gateway", "ResilientGateway", "submit",
     "resilience.submit", True),
    ("repro.faas.gateway", "FaaSGateway", "trigger", "faas.trigger", False),
    ("repro.faas.cluster", "FaaSCluster", "trigger_on", "faas.trigger_on",
     False),
    ("repro.faas.pool", "SandboxPool", "acquire", "faas.pool.acquire", False),
    ("repro.hypervisor.pause_resume", "VanillaPauseResume", "resume",
     "hypervisor.resume", False),
    ("repro.hypervisor.pause_resume", "VanillaPauseResume", "pause",
     "hypervisor.pause", False),
    ("repro.core.hot_resume", "HorsePauseResume", "resume", "core.resume",
     False),
    ("repro.core.hot_resume", "HorsePauseResume", "pause", "core.pause",
     False),
    ("repro.core.p2sm", "P2SMState", "refresh", "core.p2sm.refresh", False),
    ("repro.core.p2sm", "P2SMState", "merge", "core.p2sm.merge", False),
    ("repro.controlplane.plane", "ControlPlane", "submit",
     "controlplane.submit", True),
    ("repro.controlplane.intentlog", "IntentLog", "admit",
     "controlplane.log.admit", False),
    ("repro.controlplane.intentlog", "IntentLog", "launch",
     "controlplane.log.launch", False),
    ("repro.controlplane.intentlog", "IntentLog", "outcome",
     "controlplane.log.outcome", False),
    ("repro.controlplane.shard", "GatewayShard", "recover",
     "controlplane.recover", False),
    ("repro.faas.prewarm", None, "run_cell", "faas.prewarm", False),
)

#: what a wrapper does with the wrapped call's return value
_ON_RESULT: Dict[str, Callable[[SpanRecorder, object], None]] = {
    "sim.run": lambda rec, executed: rec.count("sim.events", executed),
    "faas.pool.acquire": lambda rec, sandbox: rec.count(
        "faas.pool.hit", sandbox is not None
    ),
}


def _span_wrapper(rec: SpanRecorder, name: str, root: bool, original):
    on_result = _ON_RESULT.get(name)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        index = rec.open(name, root)
        try:
            result = original(*args, **kwargs)
        finally:
            rec.close(index)
        if on_result is not None:
            on_result(rec, result)
        return result

    return traced


def _stream_wrapper(rec: SpanRecorder, original):
    """Time each ``next()`` of the merged arrival stream as one span."""

    @functools.wraps(original)
    def traced(*args, **kwargs):
        iterator = original(*args, **kwargs)
        while True:
            index = rec.open("traces.stream")
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                rec.close(index)
            rec.count("traces.arrivals")
            yield item

    return traced


def _dispatch_policies() -> List[type]:
    """Every loaded DispatchPolicy subclass that defines select_host."""
    from repro.resilience.policies import DispatchPolicy

    found, todo = [], [DispatchPolicy]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "select_host" in vars(cls):
            found.append(cls)
    return found


class Boundaries:
    """Context manager: spans on every boundary while the block runs."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        #: every ResilientGateway built inside the block, for the
        #: simulated resilience counts read after the round
        self.gateways: List[object] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Boundaries":
        rec = self.rec
        for module_name, class_name, attr, name, root in _METHODS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            self._patch(owner, attr, _span_wrapper(
                rec, name, root, getattr(owner, attr)
            ))
        for cls in _dispatch_policies():
            self._patch(cls, "select_host", _span_wrapper(
                rec, "resilience.select_host", False, vars(cls)["select_host"]
            ))
        prewarm = importlib.import_module("repro.faas.prewarm")
        self._patch(prewarm, "merged_stream", _stream_wrapper(
            rec, prewarm.merged_stream
        ))
        from repro.resilience.gateway import ResilientGateway

        gateways = self.gateways
        init = vars(ResilientGateway)["__init__"]

        @functools.wraps(init)
        def collecting_init(gateway, *args, **kwargs):
            init(gateway, *args, **kwargs)
            gateways.append(gateway)

        self._patch(ResilientGateway, "__init__", collecting_init)
        return self

    def __exit__(self, *_exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: name -> unit, in print order; BENCHMARK.json lists the same names
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"),
    ("sim.run.busy_s", "s"),
    ("sim.run.self_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("resilience.submit.calls", "count"),
    ("resilience.submit.self_s", "s"),
    ("resilience.select_host.calls", "count"),
    ("resilience.select_host.self_s", "s"),
    ("resilience.retries", "count"),
    ("resilience.hedges", "count"),
    ("resilience.hedge_useful_frac", "ratio"),
    ("resilience.extra_attempts_per_request", "ratio"),
    ("resilience.breaker_opens", "count"),
    ("resilience.degradations", "count"),
    ("faas.trigger.calls", "count"),
    ("faas.trigger.self_s", "s"),
    ("faas.trigger_on.self_s", "s"),
    ("faas.pool.acquire.calls", "count"),
    ("faas.pool.hit_frac", "ratio"),
    ("hypervisor.resume.calls", "count"),
    ("hypervisor.resume.self_s", "s"),
    ("hypervisor.resume.host_us_p50", "us"),
    ("hypervisor.resume.host_us_p99", "us"),
    ("hypervisor.pause.self_s", "s"),
    ("core.resume.calls", "count"),
    ("core.resume.self_s", "s"),
    ("core.resume.host_us_p50", "us"),
    ("core.resume.host_us_p99", "us"),
    ("core.pause.self_s", "s"),
    ("core.p2sm.refresh.calls", "count"),
    ("core.p2sm.refresh.self_s", "s"),
    ("core.p2sm.refresh_per_cycle", "ratio"),
    ("core.p2sm.merge.self_s", "s"),
    ("controlplane.submit.calls", "count"),
    ("controlplane.submit.self_s", "s"),
    ("controlplane.log.appends", "count"),
    ("controlplane.log.self_s", "s"),
    ("controlplane.recover.calls", "count"),
    ("controlplane.recover.self_s", "s"),
    ("controlplane.redispatched", "count"),
    ("controlplane.parked", "count"),
    ("controlplane.fenced_frac", "ratio"),
    ("traces.arrivals", "count"),
    ("traces.stream.self_s", "s"),
    ("traces.peak_buffered", "count"),
    ("faas.prewarm.self_s", "s"),
    ("faas.prewarm.horse_frac", "ratio"),
    ("faas.prewarm.cold_frac", "ratio"),
    ("faas.prewarm.loads", "count"),
    ("faas.prewarm.failed_frac", "ratio"),
    ("faas.prewarm.evictions", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile_us(durations: List[int], pct: float) -> float:
    """Nearest-rank percentile of span durations, in microseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1] / 1000.0


def _resilience_counts(gateways: List[object]) -> Dict[str, float]:
    requests = [r for g in gateways for r in g.requests]
    hedges = sum(r.hedges_used for r in requests)
    redundant = sum(r.redundant_hedges for r in requests)
    extra = sum(max(0, len(r.attempts) - 1) for r in requests)
    return {
        "resilience.retries": sum(r.retries for r in requests),
        "resilience.hedges": hedges,
        "resilience.hedge_useful_frac": (
            1.0 - redundant / hedges if hedges else 0.0
        ),
        "resilience.extra_attempts_per_request": _ratio(extra, len(requests)),
        "resilience.breaker_opens": sum(
            b.open_count for g in gateways for b in g.breakers.values()
        ),
        "resilience.degradations": sum(
            sum(g.degradations.transitions.values()) for g in gateways
        ),
    }


def layer_metrics(
    rec: SpanRecorder,
    gateways: List[object],
    simulated: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of one traced round (coverage/overhead aside).

    *simulated* carries the workload's own model tallies (control-plane
    and prewarm counts read off its result object).
    """
    spans = rec.by_name()
    empty = {"calls": 0, "busy_ns": 0, "self_ns": 0, "durations": []}

    def calls(name: str) -> int:
        return spans.get(name, empty)["calls"]

    def self_s(*names: str) -> float:
        return sum(spans.get(n, empty)["self_ns"] for n in names) / 1e9

    def durations(name: str) -> List[int]:
        return spans.get(name, empty)["durations"]

    counts = rec.counts
    events = counts.get("sim.events", 0)
    log = ("controlplane.log.admit", "controlplane.log.launch",
           "controlplane.log.outcome")
    out: Dict[str, float] = {
        "sim.events": events,
        "sim.run.busy_s": spans.get("sim.run", empty)["busy_ns"] / 1e9,
        "sim.run.self_s": self_s("sim.run"),
        "sim.ns_per_event": _ratio(self_s("sim.run") * 1e9, events),
        "resilience.submit.calls": calls("resilience.submit"),
        "resilience.submit.self_s": self_s("resilience.submit"),
        "resilience.select_host.calls": calls("resilience.select_host"),
        "resilience.select_host.self_s": self_s("resilience.select_host"),
        "faas.trigger.calls": calls("faas.trigger"),
        "faas.trigger.self_s": self_s("faas.trigger"),
        "faas.trigger_on.self_s": self_s("faas.trigger_on"),
        "faas.pool.acquire.calls": calls("faas.pool.acquire"),
        "faas.pool.hit_frac": _ratio(
            counts.get("faas.pool.hit", 0), calls("faas.pool.acquire")
        ),
        "hypervisor.resume.calls": calls("hypervisor.resume"),
        "hypervisor.resume.self_s": self_s("hypervisor.resume"),
        "hypervisor.resume.host_us_p50": _percentile_us(
            durations("hypervisor.resume"), 50),
        "hypervisor.resume.host_us_p99": _percentile_us(
            durations("hypervisor.resume"), 99),
        "hypervisor.pause.self_s": self_s("hypervisor.pause"),
        "core.resume.calls": calls("core.resume"),
        "core.resume.self_s": self_s("core.resume"),
        "core.resume.host_us_p50": _percentile_us(
            durations("core.resume"), 50),
        "core.resume.host_us_p99": _percentile_us(
            durations("core.resume"), 99),
        "core.pause.self_s": self_s("core.pause"),
        "core.p2sm.refresh.calls": calls("core.p2sm.refresh"),
        "core.p2sm.refresh.self_s": self_s("core.p2sm.refresh"),
        "core.p2sm.refresh_per_cycle": _ratio(
            calls("core.p2sm.refresh"), calls("core.resume")
        ),
        "core.p2sm.merge.self_s": self_s("core.p2sm.merge"),
        "controlplane.submit.calls": calls("controlplane.submit"),
        "controlplane.submit.self_s": self_s("controlplane.submit"),
        "controlplane.log.appends": sum(calls(n) for n in log),
        "controlplane.log.self_s": self_s(*log),
        "controlplane.recover.calls": calls("controlplane.recover"),
        "controlplane.recover.self_s": self_s("controlplane.recover"),
        "controlplane.fenced_frac": _ratio(
            simulated.get("controlplane.fenced", 0),
            calls("controlplane.log.launch"),
        ),
        "traces.arrivals": counts.get("traces.arrivals", 0),
        "traces.stream.self_s": self_s("traces.stream"),
        "faas.prewarm.self_s": self_s("faas.prewarm"),
    }
    out.update(_resilience_counts(gateways))
    for name, _unit in LAYER_METRICS:
        if name not in out and not name.startswith("trace."):
            out[name] = float(simulated.get(name, 0))
    return out
