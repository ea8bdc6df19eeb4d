"""Experiment F4 — Figure 4 (paper §5.3): HORSE vs the other starts.

Same pipeline as Table 1 but with HORSE as a fourth scenario: for each
uLL workload, report the sandbox-initialization percentage under cold,
restore, warm and HORSE.  Paper expectations:

* HORSE init share between 0.77 % and 17.64 %;
* HORSE beats warm by up to 8.95x, restore by up to 142.7x, and cold
  by up to 142.84x (ratios of init percentages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.table1 import Table1Result, run_table1
from repro.faas.invocation import StartType
from repro.workloads.base import Workload

#: Figure 4's scenario order.
FIGURE4_SCENARIOS = (
    StartType.COLD,
    StartType.RESTORE,
    StartType.WARM,
    StartType.HORSE,
)


@dataclass
class Figure4Result:
    """Wraps the 4-scenario grid with the paper's ratio views."""

    grid: Table1Result

    def init_pct(self, category: str, scenario: StartType) -> float:
        return self.grid.cell(category, scenario).mean_init_pct

    def categories(self) -> List[str]:
        return self.grid.categories()

    def series(self) -> Dict[StartType, List[float]]:
        categories = self.categories()
        return {
            scenario: [self.init_pct(c, scenario) for c in categories]
            for scenario in FIGURE4_SCENARIOS
        }

    def horse_advantage(self, scenario: StartType) -> float:
        """Max over categories of scenario-init% / HORSE-init% (the
        paper's 'outclasses by up to Nx' quantity)."""
        if scenario is StartType.HORSE:
            return 1.0
        return max(
            self.init_pct(c, scenario) / self.init_pct(c, StartType.HORSE)
            for c in self.categories()
        )

    def horse_init_pct_range(self) -> tuple:
        values = [self.init_pct(c, StartType.HORSE) for c in self.categories()]
        return (min(values), max(values))

    def rows(self) -> List[Dict[str, object]]:
        return self.grid.rows()


def run_figure4(
    repetitions: int = 10,
    seed: int = 0,
    vcpus: int = 1,
    memory_mb: int = 512,
    workloads: Sequence[Workload] | None = None,
    platform: str = "firecracker",
) -> Figure4Result:
    grid = run_table1(
        repetitions=repetitions,
        seed=seed,
        vcpus=vcpus,
        memory_mb=memory_mb,
        workloads=workloads,
        scenarios=FIGURE4_SCENARIOS,
        platform=platform,
    )
    return Figure4Result(grid=grid)
