"""Memory-budget × policy → p99 uLL-latency frontier.

The headline study ROADMAP item 2 asks for: replay an Azure-shaped
trace (streaming, via :mod:`repro.traces.replay`) under each sandbox
lifecycle policy at several host memory budgets, and report where each
policy's p99 init latency lands on the snapshot tiering (HORSE-pausable
~0.13 µs / snapshot restore ~1300 µs / cold boot ~1.5 s).

The workload is calibrated so the frontier has a story to tell:

* a dominant timer-triggered cohort (periods straddling the fixed
  keep-alive windows) — the Serverless-in-the-Wild population where
  histogram prewarming earns its keep;
* fixed keep-alive must hold every periodic sandbox resident the whole
  period to hit the HORSE tier, so it needs the *full* footprint;
* hybrid prewarming parks periodic sandboxes and restores them
  just-in-time, fitting the same p99 into ~70 % of the memory.

Measured result (fast mode, seed 0): at the tight budget only the
hybrid policy keeps p99 on the HORSE-pausable tier (~0.13 µs); both
fixed windows fall to the restore tier (~1300 µs) under LRU pressure,
and fixed-600 only catches up at the ample budget — ~1.6x the memory
for the same tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.faas.prewarm import PrewarmConfig, PrewarmResult, run_replay
from repro.traces.replay import ReplayConfig

__all__ = [
    "FrontierConfig",
    "FrontierResult",
    "run_prewarm_frontier",
    "render_prewarm_frontier",
]

#: Policies on the frontier: baseline, two fixed windows bracketing the
#: period range, and the hybrid-histogram policy (10 s bins to match the
#: minute-scale synthetic periods).
FRONTIER_POLICIES = ("none", "fixed-120", "fixed-600", "hybrid-10")

#: Budgets as fractions of the live-function footprint
#: (functions x (1 - idle_fraction) x sandbox_mb): tight / mid / ample.
FRONTIER_BUDGET_FRACTIONS = (0.70, 0.85, 1.10)


@dataclass(frozen=True)
class FrontierConfig:
    """Sweep parameters; ``fast`` halves cardinality for CI."""

    fast: bool = True
    seed: int = 0
    functions: int = 240
    duration_s: float = 3600.0
    warmup_s: float = 2400.0
    sandbox_mb: float = 128.0

    def replay_config(self) -> ReplayConfig:
        return ReplayConfig(
            functions=self.functions,
            duration_s=self.duration_s,
            seed=self.seed,
            mean_rate_per_function=0.04,
            burst_on_fraction=0.35,
            burst_mean_length_s=60.0,
            idle_fraction=0.15,
            periodic_fraction=0.60,
            period_min_s=60.0,
            period_max_s=240.0,
            period_jitter=0.05,
        )

    def budgets_mb(self) -> List[float]:
        live = self.functions * (1.0 - self.replay_config().idle_fraction)
        footprint = live * self.sandbox_mb
        return [round(fraction * footprint) for fraction in FRONTIER_BUDGET_FRACTIONS]


def frontier_config(fast: bool, seed: int) -> FrontierConfig:
    if fast:
        return FrontierConfig(fast=True, seed=seed)
    return FrontierConfig(
        fast=False, seed=seed, functions=2000, duration_s=7200.0, warmup_s=3600.0
    )


@dataclass
class FrontierResult:
    config: FrontierConfig
    #: (policy, budget_mb) -> replay result
    cells: Dict[Tuple[str, float], PrewarmResult] = field(default_factory=dict)

    def violations(self) -> List[str]:
        out: List[str] = []
        for result in self.cells.values():
            out.extend(result.violations())
        return out

    def rows(self) -> List[Dict[str, object]]:
        """One row per (budget, policy) cell, budget-major."""
        rows: List[Dict[str, object]] = []
        for (policy, budget_mb), cell in sorted(
            self.cells.items(), key=lambda item: (item[0][1], item[0][0])
        ):
            rows.append(
                {
                    "policy": policy,
                    "budget_mb": budget_mb,
                    "events": cell.events,
                    "p50_us": cell.percentile_us(50.0),
                    "p99_us": cell.percentile_us(99.0),
                    "p999_us": cell.percentile_us(99.9),
                    "horse_hits": cell.total("horse_hits"),
                    "restores": cell.total("restores"),
                    "cold_boots": cell.total("cold_boots"),
                    "evictions": cell.total("pressure_evictions"),
                    "prewarm_loads": cell.total("prewarm_loads"),
                    "peak_resident_mb": sum(
                        c.peak_resident_mb for c in cell.cells
                    ),
                    "violations": len(cell.violations()),
                }
            )
        return rows


def run_prewarm_frontier(
    fast: bool = False, seed: int = 0, shards: int = 1
) -> FrontierResult:
    """Every (policy, budget) cell over the same replayed trace."""
    config = frontier_config(fast, seed)
    replay = config.replay_config()
    result = FrontierResult(config=config)
    for budget_mb in config.budgets_mb():
        for policy in FRONTIER_POLICIES:
            cell = PrewarmConfig(
                replay=replay,
                policy=policy,
                memory_budget_mb=float(budget_mb),
                sandbox_mb=config.sandbox_mb,
                warmup_s=config.warmup_s,
                groups=1,
            )
            result.cells[(policy, float(budget_mb))] = run_replay(
                cell, shards=shards
            )
    return result


def render_prewarm_frontier(result: FrontierResult) -> str:
    """Fixed-width frontier table, byte-stable per seed."""
    config = result.config
    replay = config.replay_config()
    lines = [
        "Prewarm frontier — memory budget vs p99 init latency",
        f"  functions {config.functions}  duration {config.duration_s:.0f} s"
        f"  warmup {config.warmup_s:.0f} s  seed {config.seed}",
        f"  cohorts: idle {replay.idle_fraction:.2f}"
        f"  periodic {replay.periodic_fraction:.2f}"
        f" ({replay.period_min_s:.0f}-{replay.period_max_s:.0f} s)"
        f"  bursty {1 - replay.idle_fraction - replay.periodic_fraction:.2f}",
        f"  sandbox {config.sandbox_mb:.0f} MB"
        f"  tiers: HORSE 0.132 us | restore 1300 us | cold 1.5 s",
        "",
        f"  {'budget MB':>10} {'policy':>10} {'p50 us':>12} {'p99 us':>12}"
        f" {'p99.9 us':>12} {'horse':>7} {'restore':>8} {'evict':>6}",
    ]
    for row in result.rows():
        lines.append(
            f"  {row['budget_mb']:>10.0f} {row['policy']:>10}"
            f" {row['p50_us']:>12.3f} {row['p99_us']:>12.3f}"
            f" {row['p999_us']:>12.3f} {row['horse_hits']:>7}"
            f" {row['restores']:>8} {row['evictions']:>6}"
        )
    budgets = result.config.budgets_mb()
    tight = float(budgets[0])
    winners = [
        policy
        for policy in FRONTIER_POLICIES
        if result.cells[(policy, tight)].percentile_us(99.0) < 1.0
    ]
    lines += [
        "",
        f"  HORSE-tier p99 at the tight budget ({tight:.0f} MB): "
        + (", ".join(winners) if winners else "none"),
        f"  invariant violations: {len(result.violations())}",
    ]
    return "\n".join(lines)
