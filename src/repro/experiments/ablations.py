"""Ablation studies for HORSE's design choices (DESIGN.md §5).

Four ablations beyond the paper's headline experiments:

* :func:`ablate_ull_runqueue_count` — §4.1.3 says more ull_runqueues
  help under high trigger frequency; quantify the effect on pause-time
  balancing, precompute-refresh work and resume latency.
* :func:`ablate_precompute_churn` — P2SM's precomputed structures are
  rebuilt "each time ull_runqueue is updated"; measure how the refresh
  work scales with queue churn and with the number of tied sandboxes.
* :func:`ablate_platform` — run the Figure-3 comparison on both
  hypervisor models (Firecracker/CFS vs Xen/credit2): HORSE's win must
  be scheduler-agnostic.
* :func:`ablate_mechanism_split` — per-step attribution of the HORSE
  win: how much of the saved time comes from the merge (step 4), the
  load update (step 5), and the trimmed command path.

:func:`run_ablations` runs them, plus the energy, restore and dispatch
ablations of the sibling ``ablations_*`` modules in full mode, as the
registry's ``ablations`` experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.core.hot_resume import HorseConfig, HorsePauseResume
from repro.experiments.figure3 import run_figure3
from repro.experiments.runner import fresh_platform
from repro.hypervisor.pause_resume import (
    STEP_FINALIZE,
    STEP_LOAD,
    STEP_LOCK,
    STEP_MERGE,
    STEP_PARSE,
    STEP_SANITY,
)
from repro.hypervisor.sandbox import Sandbox
from repro.hypervisor.vcpu import Vcpu


# ----------------------------------------------------------------------
# Ablation 1: number of reserved ull_runqueues
# ----------------------------------------------------------------------
@dataclass
class UllCountPoint:
    reserved_queues: int
    max_assignment_imbalance: int
    refresh_entries_per_resume: float
    mean_resume_ns: float


def ablate_ull_runqueue_count(
    queue_counts: Sequence[int] = (1, 2, 4, 8),
    sandboxes: int = 16,
    vcpus: int = 8,
) -> List[UllCountPoint]:
    """Pause a burst of uLL sandboxes per queue count, then resume all."""
    points: List[UllCountPoint] = []
    for reserved in queue_counts:
        virt = fresh_platform("firecracker", reserved_ull_cores=reserved)
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
        boxes = []
        for _ in range(sandboxes):
            sandbox = Sandbox(vcpus=vcpus, memory_mb=256, is_ull=True)
            virt.vanilla.place_initial(sandbox, 0)
            horse.pause(sandbox, 0)
            boxes.append(sandbox)
        counts = horse.ull.assignment_counts().values()
        imbalance = max(counts) - min(counts)
        refresh_before = horse.ull.refresh_entries_touched
        totals = [horse.resume(sandbox, 0).total_ns for sandbox in boxes]
        refresh_work = horse.ull.refresh_entries_touched - refresh_before
        points.append(
            UllCountPoint(
                reserved_queues=reserved,
                max_assignment_imbalance=imbalance,
                refresh_entries_per_resume=refresh_work / sandboxes,
                mean_resume_ns=sum(totals) / len(totals),
            )
        )
    return points


# ----------------------------------------------------------------------
# Ablation 2: precompute maintenance vs queue churn
# ----------------------------------------------------------------------
@dataclass
class ChurnPoint:
    churn_events: int
    tied_sandboxes: int
    refresh_operations: int
    refresh_entries: int
    entries_per_event: float


def ablate_precompute_churn(
    churn_levels: Sequence[int] = (0, 10, 50, 200),
    tied_sandboxes: int = 5,
    vcpus: int = 4,
) -> List[ChurnPoint]:
    """Mutate the ull_runqueue N times and count the refresh work the
    tied (paused) sandboxes' P2SM state incurs."""
    points: List[ChurnPoint] = []
    for churn in churn_levels:
        virt = fresh_platform("firecracker", reserved_ull_cores=1)
        horse = HorsePauseResume(virt.host, virt.policy, virt.costs)
        for _ in range(tied_sandboxes):
            sandbox = Sandbox(vcpus=vcpus, memory_mb=256, is_ull=True)
            virt.vanilla.place_initial(sandbox, 0)
            horse.pause(sandbox, 0)
        queue = horse.ull.queue(horse.ull.queue_ids[0])
        ops_before = horse.ull.refresh_operations
        entries_before = horse.ull.refresh_entries_touched
        for index in range(churn):
            # One independent vCPU lands on / leaves the queue.
            visitor = Vcpu(index=0, sandbox_id=f"churn-{index}")
            queue.entities.insert_sorted(visitor)
            horse.ull.on_queue_updated(queue.runqueue_id)
            queue.entities.remove(visitor)
            horse.ull.on_queue_updated(queue.runqueue_id)
        ops = horse.ull.refresh_operations - ops_before
        entries = horse.ull.refresh_entries_touched - entries_before
        points.append(
            ChurnPoint(
                churn_events=2 * churn,
                tied_sandboxes=tied_sandboxes,
                refresh_operations=ops,
                refresh_entries=entries,
                entries_per_event=entries / (2 * churn) if churn else 0.0,
            )
        )
    return points


# ----------------------------------------------------------------------
# Ablation 3: platform (scheduler) sensitivity
# ----------------------------------------------------------------------
@dataclass
class PlatformComparison:
    platform: str
    vanil_ns: float
    horse_ns: float

    @property
    def speedup(self) -> float:
        return self.vanil_ns / self.horse_ns


def ablate_platform(
    vcpus: int = 36, repetitions: int = 5
) -> List[PlatformComparison]:
    """Figure 3's endpoints on both hypervisor models."""
    comparisons: List[PlatformComparison] = []
    for platform in ("firecracker", "xen"):
        result = run_figure3(
            vcpu_counts=(vcpus,), repetitions=repetitions, platform=platform,
            setups={"vanil": None, "horse": HorseConfig.full()},
        )
        comparisons.append(
            PlatformComparison(
                platform=platform,
                vanil_ns=result.mean_ns("vanil", vcpus),
                horse_ns=result.mean_ns("horse", vcpus),
            )
        )
    return comparisons


# ----------------------------------------------------------------------
# Ablation 4: where does the win come from?
# ----------------------------------------------------------------------
@dataclass
class MechanismSplit:
    vcpus: int
    #: step -> (vanilla ns, horse ns)
    steps: Dict[str, tuple] = field(default_factory=dict)

    def saving_ns(self, step: str) -> float:
        vanil, horse = self.steps[step]
        return vanil - horse

    def total_saving_ns(self) -> float:
        return sum(self.saving_ns(step) for step in self.steps)

    def share_of_saving(self, step: str) -> float:
        total = self.total_saving_ns()
        return self.saving_ns(step) / total if total else 0.0


def ablate_mechanism_split(vcpus: int = 36) -> MechanismSplit:
    """Per-step vanilla-vs-HORSE attribution of the saved time."""
    virt_v = fresh_platform("firecracker")
    sandbox_v = Sandbox(vcpus=vcpus, memory_mb=256)
    virt_v.vanilla.place_initial(sandbox_v, 0)
    virt_v.vanilla.pause(sandbox_v, 0)
    vanilla = virt_v.vanilla.resume(sandbox_v, 0).breakdown.phases

    virt_h = fresh_platform("firecracker")
    horse = HorsePauseResume(virt_h.host, virt_h.policy, virt_h.costs)
    sandbox_h = Sandbox(vcpus=vcpus, memory_mb=256, is_ull=True)
    virt_h.vanilla.place_initial(sandbox_h, 0)
    horse.pause(sandbox_h, 0)
    horse_steps = horse.resume(sandbox_h, 0).breakdown.phases

    split = MechanismSplit(vcpus=vcpus)
    for step in (STEP_PARSE, STEP_LOCK, STEP_SANITY, STEP_MERGE, STEP_LOAD,
                 STEP_FINALIZE):
        split.steps[step] = (
            float(vanilla.get(step, 0)),
            float(horse_steps.get(step, 0)),
        )
    return split


# ----------------------------------------------------------------------
# All of them, as one experiment
# ----------------------------------------------------------------------
#: Computed properties each ablation reports beside its dataclass fields.
_EXTRAS = {
    "restore_prefetch": ("effective_ready_ns",),
    "dispatch_interference": ("mean_delta_us", "p99_delta_us"),
}


@dataclass
class AblationsResult:
    #: ablation name -> its point, or its list of points
    studies: Dict[str, Any] = field(default_factory=dict)

    def rows(self) -> List[Dict[str, Any]]:
        """One row per point, named by its ``ablation``."""
        from repro.experiments.rows import object_row

        rows = []
        for name in sorted(self.studies):
            value = self.studies[name]
            for point in value if isinstance(value, list) else [value]:
                row = object_row(point, _EXTRAS.get(name, ()))
                if name == "mechanism_split":
                    # Its payload is a step -> (vanilla, horse) dict;
                    # flatten to the per-step saving the figure reports.
                    for step in sorted(point.steps):
                        row[f"saving_{step}_ns"] = point.saving_ns(step)
                    row["total_saving_ns"] = point.total_saving_ns()
                row["ablation"] = name
                rows.append(row)
        return rows


def run_ablations(fast: bool = False, seed: int = 0) -> AblationsResult:
    """Fast mode runs two ablations; full mode runs all seven."""
    result = AblationsResult(
        {
            "ull_runqueue_count": ablate_ull_runqueue_count(
                queue_counts=(1, 4) if fast else (1, 2, 4, 8)
            ),
            "mechanism_split": ablate_mechanism_split(),
        }
    )
    if not fast:
        from repro.experiments.ablations_dispatch import run_dispatch_interference
        from repro.experiments.ablations_energy import ablate_skip_vs_coalesce
        from repro.experiments.ablations_restore import ablate_restore_prefetch

        result.studies.update(
            precompute_churn=ablate_precompute_churn(),
            platform=ablate_platform(),
            skip_vs_coalesce=ablate_skip_vs_coalesce(),
            restore_prefetch=ablate_restore_prefetch(),
            dispatch_interference=run_dispatch_interference(seed=seed),
        )
    return result


def render_ablations(result: AblationsResult) -> str:
    lines = []
    current = None
    for row in result.rows():
        name = row.pop("ablation")
        if name != current:
            lines.append(f"== {name} ==")
            current = name
        lines.append("  " + " ".join(f"{k}={v}" for k, v in sorted(row.items())))
    return "\n".join(lines)
