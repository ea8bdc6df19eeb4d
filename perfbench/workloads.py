"""The four benchmark workloads.

Each workload turns a seed into a fixed-size round of simulated work
and calls the program only through its public entry points:

* ``prepare(seed)`` is set-up (config validation, stack construction
  that happens outside the program's own entry points) and returns the
  round as a list of calls;
* the benchmark times each call (see ``run.py``);
* ``audit(results)`` reads the calls' results after the clock stops:
  operation count, unresolved operations, invariant violations, a
  digest of the simulated outcomes, and the model tallies the
  per-layer report uses.

Round sizes are fixed (never scaled by ``--seconds``), so one seed
always yields one digest.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Tuple


@dataclass
class Round:
    """What one round did, read off the program's results."""

    ops: int
    #: operations the program left without a terminal outcome
    unresolved: int = 0
    #: invariant / oracle / checker violations (fail the whole round)
    violations: List[str] = field(default_factory=list)
    digest: str = ""
    #: model tallies for the per-layer report (deterministic per seed)
    simulated: Dict[str, float] = field(default_factory=dict)


def digest_of(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sub_seeds(name: str, seed: int, count: int) -> List[int]:
    """*count* model seeds derived from the benchmark seed.

    Rounds run several independent inputs: how much work one input
    costs per operation varies between inputs (for the failure-driven
    studies, a crash burst sheds requests cheaply), and averaging a few
    keeps the rate of one benchmark seed close to another's.
    """
    return [
        int.from_bytes(
            hashlib.sha256(f"{name}:{seed}:{j}".encode()).digest()[:4], "big"
        )
        for j in range(count)
    ]


class Workload:
    name = ""
    why = ""
    #: what one operation is
    op = ""
    #: modules the workload imports (the set-up import probe)
    modules: Tuple[str, ...] = ()

    def prepare(self, seed: int) -> List[Callable[[], object]]:
        raise NotImplementedError

    def audit(self, results: List[object]) -> Round:
        raise NotImplementedError


# ----------------------------------------------------------------------
class ChaosChurn(Workload):
    name = "chaos-churn"
    why = ("host crashes and resume faults: retries, hedges, breakers and "
           "the parking lot do the work; vanilla mode drives the hypervisor")
    op = "request (runs x 3 resilience modes x requests)"
    modules = ("repro.experiments.chaos",)
    runs = 4
    requests = 1200

    def prepare(self, seed):
        from repro.experiments.chaos import ChaosConfig, run_chaos

        configs = [
            ChaosConfig(requests=self.requests, seed=s,
                        dispatch="push-least-loaded")
            for s in sub_seeds(self.name, seed, self.runs)
        ]
        return [lambda c=config: run_chaos(c) for config in configs]

    def audit(self, results):
        outcomes = [o for r in results for o in r.outcomes.values()]
        # ModeOutcome.violations lists the ledger/breaker invariants,
        # then one "never resolved" line per unresolved request; those
        # count once each (as ``unresolved``), not as a failed round.
        return Round(
            ops=sum(o.submitted for o in outcomes),
            unresolved=sum(o.submitted - o.resolved for o in outcomes),
            violations=[
                m for o in outcomes
                for m in o.violations[:len(o.violations)
                                      - (o.submitted - o.resolved)]
            ],
            digest=digest_of([asdict(o) for o in outcomes]),
        )


class RecoveryPull(Workload):
    name = "recovery-pull"
    why = ("gateway-shard crashes under pull dispatch: intent-log writes, "
           "shard recovery and fencing on a happy host path")
    op = ("request (runs x requests, in the chaos cells and again in their "
          "zero-failure oracle twins)")
    modules = ("repro.experiments.cluster_recovery",)
    runs = 8
    requests = 300

    def prepare(self, seed):
        from repro.experiments.cluster_recovery import (
            ClusterRecoveryConfig,
            run_recovery,
        )

        configs = [
            ClusterRecoveryConfig(requests=self.requests, seed=s,
                                  dispatch="pull")
            for s in sub_seeds(self.name, seed, self.runs)
        ]
        return [lambda c=config: run_recovery(c, shards=1)
                for config in configs]

    def audit(self, results):
        chaos = [r.cells[g] for r in results for g in sorted(r.cells)]
        twins = [r.oracle_cells[g] for r in results
                 for g in sorted(r.oracle_cells)]
        cells = chaos + twins
        return Round(
            ops=sum(c.submitted for c in cells),
            unresolved=sum(
                c.submitted - c.completed - c.shed - c.failed for c in cells
            ),
            violations=[m for r in results for m in r.violations],
            digest=digest_of([asdict(c) for c in cells]),
            simulated={
                "controlplane.redispatched": sum(c.redispatched for c in chaos),
                "controlplane.parked": sum(c.parked for c in chaos),
                "controlplane.fenced": sum(c.fenced for c in chaos),
            },
        )


@dataclass
class _ResumeStack:
    """One platform, one pause/resume path, its sandboxes and schedule."""

    path: str
    paused: int
    virt: object
    engine: object
    sandboxes: list
    picks: List[float]
    gaps: List[int]

    def cycle_all(self) -> list:
        """Resume one paused sandbox, re-pause the longest-running one."""
        idle = self.sandboxes[:self.paused]
        running = self.sandboxes[self.paused:]
        trace = []
        now = 0
        for pick, gap in zip(self.picks, self.gaps):
            now += gap
            sandbox = idle.pop(int(pick * len(idle)))
            resumed = self.engine.resume(sandbox, now)
            running.append(sandbox)
            victim = running.pop(0)
            paused = self.engine.pause(victim, now + 1000)
            idle.append(victim)
            trace.append((
                resumed.breakdown.phases, paused.duration_ns,
                getattr(paused, "precompute_entries", 0),
            ))
        return trace


class ResumeSweep(Workload):
    """Steady-state resume -> re-pause cycles on one platform per path.

    Each phase builds a fresh Firecracker platform per path with a
    paused set of the phase's size plus a few running sandboxes.  Every
    phase holds each vCPU count of the Figure 3 sweep equally often, in
    seeded order, so seeds vary the order of work, not its amount.  A
    cycle resumes one paused sandbox picked at random and re-pauses the
    longest-running one, at seeded open-loop simulated instants.  The
    HORSE path keeps every paused sandbox's P2SM precompute fresh, so
    its upkeep grows with the paused-set size the phases vary.
    """

    name = "resume-sweep"
    why = ("paper Figure 3 at steady state: hypervisor and core resume "
           "paths only, with the paused-set size varied")
    op = "resume plus re-pause cycle (phases x paths x cycles)"
    modules = (
        "repro.hypervisor.platform", "repro.core.hot_resume", "repro.check",
    )
    vcpu_choices = (1, 2, 4, 8, 16, 36)
    #: paused-set size per phase (plus ``running``: multiples of 6)
    paused_sizes = (9, 15, 27)
    running = 3
    cycles = 250
    mean_gap_ns = 2_000_000

    def prepare(self, seed):
        from repro.core.hot_resume import HorseConfig, HorsePauseResume
        from repro.hypervisor.platform import firecracker_platform
        from repro.hypervisor.sandbox import Sandbox

        rng = random.Random(f"resume-sweep:{seed}")
        stacks = []
        for phase, paused in enumerate(self.paused_sizes):
            total = paused + self.running
            shapes = list(self.vcpu_choices) * (total // len(self.vcpu_choices))
            rng.shuffle(shapes)
            picks = [rng.random() for _ in range(self.cycles)]
            gaps = [2_000 + round(rng.expovariate(1.0 / self.mean_gap_ns))
                    for _ in range(self.cycles)]
            for path in ("vanilla", "horse"):
                virt = firecracker_platform()
                horse = path == "horse"
                engine = (
                    HorsePauseResume(virt.host, virt.policy, virt.costs,
                                     config=HorseConfig.full())
                    if horse else virt.vanilla
                )
                sandboxes = [
                    Sandbox(vcpus=v, memory_mb=512,
                            sandbox_id=f"p{phase}-{path}-{i}", is_ull=horse)
                    for i, v in enumerate(shapes)
                ]
                for sandbox in sandboxes:
                    virt.vanilla.place_initial(sandbox, 0)
                for sandbox in sandboxes[:paused]:
                    engine.pause(sandbox, 0)
                stacks.append(_ResumeStack(path, paused, virt, engine,
                                           sandboxes, picks, gaps))
        return [lambda s=stack: (s, s.cycle_all()) for stack in stacks]

    def audit(self, results):
        from repro.check import (
            lifecycle_checker,
            p2sm_freshness_checker,
            runqueue_checker,
        )

        violations: List[str] = []
        for stack, _trace in results:
            host = stack.virt.host
            checkers = [runqueue_checker(host),
                        lifecycle_checker(host, stack.sandboxes)]
            if stack.path == "horse":
                checkers.append(p2sm_freshness_checker(stack.engine.ull))
            for check in checkers:
                violations.extend(
                    f"{stack.path}/{stack.paused}: {message}"
                    for message in check(0)
                )
        trace = [entry for _stack, cycles in results for entry in cycles]
        return Round(
            ops=len(trace),
            violations=violations,
            digest=digest_of(trace),
        )


class ReplayPrewarm(Workload):
    """The prewarm-frontier stream shape (periodic-heavy, so the hybrid
    policy prewarms) at 0.85 of the live footprint, so memory pressure
    evicts."""

    name = "replay-prewarm"
    why = ("Azure-shaped streaming replay under the hybrid prewarm policy: "
           "traces and faas.prewarm only, the memory-bound workload")
    op = "replayed arrival"
    modules = ("repro.faas.prewarm",)
    runs = 4
    functions = 250
    sandbox_mb = 128.0
    budget_fraction = 0.85

    def prepare(self, seed):
        from repro.faas.prewarm import PrewarmConfig, run_replay
        from repro.traces.replay import ReplayConfig

        configs = []
        for s in sub_seeds(self.name, seed, self.runs):
            replay = ReplayConfig(
                functions=self.functions,
                duration_s=3600.0,
                seed=s,
                mean_rate_per_function=0.04,
                idle_fraction=0.15,
                periodic_fraction=0.60,
                period_min_s=60.0,
                period_max_s=240.0,
            )
            live = self.functions * (1.0 - replay.idle_fraction)
            configs.append(PrewarmConfig(
                replay=replay,
                policy="hybrid",
                memory_budget_mb=self.budget_fraction * live * self.sandbox_mb,
                sandbox_mb=self.sandbox_mb,
            ))
        return [lambda c=config: run_replay(c, shards=1)
                for config in configs]

    def audit(self, results):
        def total(name: str) -> int:
            return sum(r.total(name) for r in results)

        events = sum(r.events for r in results)
        loads = total("prewarm_loads")
        return Round(
            ops=events,
            violations=[m for r in results for m in r.violations()],
            digest=digest_of([asdict(c) for r in results for c in r.cells]),
            simulated={
                "traces.peak_buffered": max(
                    r.total("peak_buffered") for r in results),
                "faas.prewarm.horse_frac":
                    total("horse_hits") / events if events else 0.0,
                "faas.prewarm.cold_frac":
                    total("cold_boots") / events if events else 0.0,
                "faas.prewarm.loads": loads,
                "faas.prewarm.failed_frac":
                    total("prewarm_failed") / loads if loads else 0.0,
                "faas.prewarm.evictions": total("pressure_evictions"),
            },
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (ChaosChurn(), RecoveryPull(), ResumeSweep(),
                        ReplayPrewarm())
}
