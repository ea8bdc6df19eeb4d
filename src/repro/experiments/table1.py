"""Experiment T1/F1 — Table 1 and Figure 1 (paper §2).

For each uLL workload category (firewall, NAT, array filter) and each
start scenario (cold, restore, warm), trigger the workload on a
1-vCPU / 512 MB sandbox and measure:

* initialization time (trigger -> sandbox ready);
* average execution time;
* initialization as a percentage of the whole pipeline (Figure 1).

The paper's anchors: cold ~1.5e6 us, restore ~1300 us, warm ~1.1 us;
init shares 99.99 % (cold), 98.7-99.98 % (restore), 6.07/42.3/61.1 %
(warm, categories 1-3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.faas.function import FunctionSpec
from repro.faas.invocation import StartType
from repro.faas.platform import FaaSPlatform
from repro.experiments.runner import DEFAULT_REPETITIONS, RepeatedMeasurement
from repro.hypervisor.platform import platform_by_name
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import to_microseconds
from repro.workloads import ull_workloads
from repro.workloads.base import Workload

#: The start scenarios of Table 1, in column order.
TABLE1_SCENARIOS = (StartType.COLD, StartType.RESTORE, StartType.WARM)


@dataclass
class ScenarioCell:
    """One (category, scenario) cell of Table 1."""

    category: str
    scenario: StartType
    init_us: RepeatedMeasurement
    exec_us: RepeatedMeasurement
    init_pct: RepeatedMeasurement

    @property
    def mean_init_us(self) -> float:
        return self.init_us.mean

    @property
    def mean_exec_us(self) -> float:
        return self.exec_us.mean

    @property
    def mean_init_pct(self) -> float:
        return self.init_pct.mean


@dataclass
class Table1Result:
    """All cells, indexed by (category name, scenario)."""

    cells: Dict[tuple, ScenarioCell] = field(default_factory=dict)
    vcpus: int = 1
    memory_mb: int = 512

    def cell(self, category: str, scenario: StartType) -> ScenarioCell:
        return self.cells[(category, scenario)]

    def categories(self) -> List[str]:
        return sorted({key[0] for key in self.cells})

    def figure1_series(self) -> Dict[StartType, List[float]]:
        """Init-percentage series per scenario, ordered by category —
        exactly Figure 1's bars."""
        categories = self.categories()
        return {
            scenario: [self.cell(c, scenario).mean_init_pct for c in categories]
            for scenario in TABLE1_SCENARIOS
        }

    def rows(self) -> List[Dict[str, object]]:
        """One row per (category, scenario) cell."""
        from repro.experiments.rows import sorted_cells

        return [
            {
                "category": category,
                "scenario": scenario.value,
                "init_us_mean": cell.init_us.mean,
                "exec_us_mean": cell.exec_us.mean,
                "init_pct_mean": cell.init_pct.mean,
            }
            for (category, scenario), cell in sorted_cells(self)
        ]


def _measure_invocation(
    rngs: RngRegistry,
    workload: Workload,
    scenario: StartType,
    vcpus: int,
    memory_mb: int,
    platform: str = "firecracker",
) -> tuple:
    """One repetition: fresh platform, one trigger, one timeline."""
    faas = FaaSPlatform(
        engine=Engine(), virt=platform_by_name(platform), rngs=rngs
    )
    spec = FunctionSpec(
        name=workload.name, workload=workload, vcpus=vcpus, memory_mb=memory_mb
    )
    faas.register(spec)
    if scenario in (StartType.WARM, StartType.HORSE):
        faas.provision_warm(
            workload.name, count=1, use_horse=(scenario is StartType.HORSE)
        )
    invocation = faas.trigger(workload.name, scenario, run_logic=True)
    faas.engine.run()
    return (
        to_microseconds(invocation.initialization_ns),
        to_microseconds(invocation.execution_ns),
        invocation.init_percentage,
    )


def run_table1(
    repetitions: int = DEFAULT_REPETITIONS,
    seed: int = 0,
    vcpus: int = 1,
    memory_mb: int = 512,
    workloads: Sequence[Workload] | None = None,
    scenarios: Sequence[StartType] = TABLE1_SCENARIOS,
    platform: str = "firecracker",
) -> Table1Result:
    """Run the full Table 1 grid (the paper also ran Xen; pass
    platform="xen" for that side)."""
    result = Table1Result(vcpus=vcpus, memory_mb=memory_mb)
    root = RngRegistry(seed)
    for workload in workloads if workloads is not None else ull_workloads():
        for scenario in scenarios:
            init_m = RepeatedMeasurement(f"{workload.name}/{scenario.value}/init")
            exec_m = RepeatedMeasurement(f"{workload.name}/{scenario.value}/exec")
            pct_m = RepeatedMeasurement(f"{workload.name}/{scenario.value}/pct")
            for index in range(repetitions):
                rngs = root.fork(f"{workload.name}-{scenario.value}-{index}")
                init_us, exec_us, pct = _measure_invocation(
                    rngs, workload, scenario, vcpus, memory_mb, platform
                )
                init_m.add(init_us)
                exec_m.add(exec_us)
                pct_m.add(pct)
            result.cells[(workload.name, scenario)] = ScenarioCell(
                category=workload.name,
                scenario=scenario,
                init_us=init_m,
                exec_us=exec_m,
                init_pct=pct_m,
            )
    return result
