"""The trigger gateway: turns events into invocation timelines.

The gateway is the FaaS platform's front door.  ``trigger`` obtains a
sandbox through the requested start strategy, samples the function's
execution duration, optionally runs the *real* function logic, and
schedules the completion event that pauses the sandbox back into the
pool.

Per the paper's §2 setup, network/trigger transport is considered free
("we consider the data center network stack fast enough to ensure the
nanosecond-scale trigger"), so the pipeline is exactly
``initialization + execution``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, ItemsView, List, Optional

from repro.core.hot_resume import HorsePauseResume
from repro.faas.function import FunctionRegistry, FunctionSpec
from repro.faas.invocation import Invocation, StartType
from repro.faas.pool import SandboxPool
from repro.faas.startup import StartOutcome, StartStrategy
from repro.hypervisor.platform import VirtualizationPlatform
from repro.hypervisor.sandbox import Sandbox
from repro.obs.context import NULL_OBS, Observability
from repro.obs.metrics import MetricRegistry
from repro.obs.span import OpenSpan
from repro.sim.engine import Engine

#: Synthetic "process" id for gateway-level spans.  Physical CPUs use
#: their core id as pid; the FaaS control plane gets its own track far
#: above any real core count.
FAAS_PID = 1_000_000


def _fold_triggers(metrics: MetricRegistry, triggers: ItemsView) -> None:
    """Fold the trigger tally, keyed ``(start type, init ns)``."""
    trigger = metrics.counter("gateway.trigger")
    init = metrics.histogram("invocation.init_ns")
    for (start_type, init_ns), n in triggers:
        trigger.inc(n)
        start = start_type.value
        metrics.counter(
            f"gateway.start.{start}", f"invocations started via {start}"
        ).inc(n)
        init.observe(init_ns, n)


def _fold_completions(metrics: MetricRegistry, completions: ItemsView) -> None:
    """Fold the completion tally, keyed by total ns."""
    complete = metrics.counter("gateway.complete")
    total = metrics.histogram("invocation.total_ns")
    for total_ns, n in completions:
        complete.inc(n)
        total.observe(total_ns, n)


class FaaSGateway:
    """Dispatches triggers through configurable start strategies."""

    def __init__(
        self,
        engine: Engine,
        virt: VirtualizationPlatform,
        registry: FunctionRegistry,
        pool: SandboxPool,
        strategies: Dict[StartType, StartStrategy],
        rng: random.Random,
        horse: Optional[HorsePauseResume] = None,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.engine = engine
        self.virt = virt
        self.registry = registry
        self.pool = pool
        self.strategies = strategies
        self.rng = rng
        self.horse = horse
        self.obs = obs
        self.invocations: List[Invocation] = []
        #: hooks fired when an invocation completes (experiments attach)
        self.completion_hooks: List[Callable[[Invocation], None]] = []
        # The four gateway instruments exist from construction on;
        # each trigger and completion is one write to a registry tally.
        metrics = obs.metrics
        metrics.counter("gateway.trigger", "invocations triggered")
        metrics.counter("gateway.complete", "invocations completed")
        metrics.histogram(
            "invocation.init_ns", help="trigger -> sandbox-ready latency"
        )
        metrics.histogram(
            "invocation.total_ns", help="trigger -> function-end latency"
        )
        #: (start type, init ns) per trigger; total ns per completion
        self._triggers = metrics.tally(_fold_triggers)
        self._completions = metrics.tally(_fold_completions)

    # ------------------------------------------------------------------
    def trigger(
        self,
        function_name: str,
        start_type: StartType,
        run_logic: bool = False,
        return_to_pool: bool = True,
        extra_delay_ns: int = 0,
    ) -> Invocation:
        """Fire one invocation at the current simulated instant.

        ``extra_delay_ns`` injects interference (e.g. merge-thread
        preemption) into the execution window; ``run_logic`` executes
        the real function body and stores its result.
        """
        spec = self.registry.get(function_name)
        now = self.engine.now
        invocation = Invocation(function_name=function_name, trigger_ns=now)
        self.invocations.append(invocation)

        strategy = self.strategies.get(start_type)
        if strategy is None:
            raise ValueError(
                f"no strategy configured for start type {start_type.value!r}"
            )
        # The invocation root span is opened *before* the start strategy
        # runs, so any pause/resume timelines recorded while obtaining
        # the sandbox nest underneath it.  Span work gates on the
        # tracer's own flag: a metrics-only bundle skips every span and
        # kwarg construction here and still feeds the instruments below.
        root: Optional[OpenSpan] = None
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.name_process(FAAS_PID, "faas")
            root = tracer.open_span(
                "invocation",
                now,
                category="faas",
                pid=FAAS_PID,
                tid=tracer.tid_for(f"fn:{function_name}", FAAS_PID, function_name),
                function=function_name,
                requested=start_type.value,
                invocation=invocation.invocation_id,
            )
        try:
            outcome: StartOutcome = strategy.obtain(spec, now)
        except Exception:
            if root is not None:
                root.close(now, error=True)
            raise
        invocation.start_type = outcome.start_type
        invocation.sandbox_id = outcome.sandbox.sandbox_id
        invocation.sandbox = outcome.sandbox
        invocation.sandbox_ready_ns = now + outcome.init_ns
        invocation.exec_start_ns = invocation.sandbox_ready_ns

        exec_ns = spec.workload.sample_duration_ns(self.rng)
        invocation.interference_ns = max(0, extra_delay_ns)
        invocation.exec_end_ns = (
            invocation.exec_start_ns + exec_ns + invocation.interference_ns
        )

        if run_logic:
            payload = spec.workload.example_payload(self.rng)
            try:
                invocation.result = spec.workload.execute(payload)
            except Exception as exc:  # record, don't crash the platform
                invocation.error = f"{type(exc).__name__}: {exc}"

        if root is not None:
            self._finish_invocation_obs(root, invocation, outcome)
        elif self.obs.enabled:
            self._finish_invocation_metrics(invocation, outcome)
        # The completion event is kept on the invocation so failure
        # handling (repro.resilience) can cancel it if the serving host
        # crashes before exec_end_ns.
        invocation.completion_event = self.engine.schedule_at(
            invocation.exec_end_ns,
            lambda: self._complete(spec, invocation, outcome.sandbox, return_to_pool),
            label=f"complete:{invocation.invocation_id}",
        )
        return invocation

    # ------------------------------------------------------------------
    def _finish_invocation_obs(
        self,
        root: OpenSpan,
        invocation: Invocation,
        outcome: StartOutcome,
    ) -> None:
        """Close the invocation span and feed the gateway metrics.

        The full invocation timeline (initialization end, execution end)
        is already known synchronously at trigger time — the simulator
        charges both intervals up front — so the span closes here rather
        than in ``_complete``.
        """
        start = outcome.start_type.value
        root.attrs.update(start=start, sandbox=outcome.sandbox.sandbox_id)
        invocation.record_spans(
            self.obs.tracer, pid=root.span.pid, tid=root.span.tid
        )
        root.close(invocation.exec_end_ns)
        self._finish_invocation_metrics(invocation, outcome)

    def _finish_invocation_metrics(
        self, invocation: Invocation, outcome: StartOutcome
    ) -> None:
        """Metric half of invocation finish."""
        if self._triggers is not None:
            self._triggers[outcome.start_type, invocation.initialization_ns] += 1

    # ------------------------------------------------------------------
    def _complete(
        self,
        spec: FunctionSpec,
        invocation: Invocation,
        sandbox: Sandbox,
        return_to_pool: bool,
    ) -> None:
        """Function body finished: pause the sandbox back into the pool."""
        invocation.completion_event = None  # fired: nothing left to cancel
        if invocation.cancelled:
            return  # host crashed mid-execution; nothing to pause back
        now = self.engine.now
        if return_to_pool:
            if spec.is_ull and self.horse is not None:
                self.horse.pause(sandbox, now)
            else:
                self.virt.vanilla.pause(sandbox, now)
            self.pool.release(spec.name, sandbox)
        if self._completions is not None:
            self._completions[invocation.total_ns] += 1
        for hook in self.completion_hooks:
            hook(invocation)

    # ------------------------------------------------------------------
    def completed_invocations(self, function_name: Optional[str] = None) -> List[Invocation]:
        return [
            inv
            for inv in self.invocations
            if inv.completed
            and (function_name is None or inv.function_name == function_name)
        ]
