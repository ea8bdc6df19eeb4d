"""Unified experiment registry: every paper artifact behind one API.

Each experiment the reproduction can run — a table, a figure, a study —
is described by one :class:`ExperimentSpec`: an id, a human title, a
fast-mode runtime estimate, and a runner that maps an
:class:`ExperimentConfig` (fast/full, seed, platform) to the
experiment's native result object.  ``spec.run(config)`` wraps that
native result in an :class:`ExperimentResult`, which exposes the common
protocol every consumer builds on:

* ``summary()`` — the rendered fixed-width table/series (what the CLI
  prints);
* ``rows()``    — the result flattened to a list of scalar dicts, the
  one structured export;
* ``to_json()`` — ``{"experiment", "title", "rows"}`` as a JSON string.

This module is the one place that knows how to run, render and flatten
a paper artifact: the CLI's ``experiment``/``list``/``trace``/``profile``
commands, the Markdown report and the claim validation all drive off
:func:`get`/:func:`all_specs`.  Drivers and renderers are named as
``"module:function"`` strings and imported on first call, so importing
the registry imports no experiment driver.
"""

from __future__ import annotations

import enum
import importlib
import json
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.experiments.runner import DEFAULT_REPETITIONS, VCPU_SWEEP

_Scalar = (int, float, str, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment runner.

    ``fast`` selects the reduced parameter set (fewer repetitions,
    sparser sweeps) used by tests and smoke runs; ``full`` runs the
    paper-fidelity parameters.  ``platform`` selects the hypervisor
    model where the experiment supports it; runners that model neither
    hypervisor simply ignore it.
    """

    fast: bool = True
    seed: int = 0
    platform: str = "firecracker"
    #: worker-process count for experiments with a sharded runner
    #: (DESIGN.md §12).  Purely an execution knob: results are
    #: byte-identical for any value; runners without a sharded path
    #: ignore it.
    shards: int = 1

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")

    @property
    def repetitions(self) -> int:
        return 3 if self.fast else DEFAULT_REPETITIONS

    @property
    def vcpu_sweep(self) -> tuple:
        return (1, 8, 36) if self.fast else VCPU_SWEEP


class ExperimentResult:
    """Uniform wrapper over an experiment's native result object."""

    def __init__(self, spec: "ExperimentSpec", raw: Any) -> None:
        self.spec = spec
        self.raw = raw

    def rows(self) -> List[Dict[str, Any]]:
        """The result as a flat list of scalar dicts."""
        return self.spec.rows_fn(self.raw)

    def summary(self) -> str:
        """The rendered human-readable table/series."""
        return self.spec.renderer(self.raw)

    def to_json(self) -> str:
        return json.dumps(
            {
                "experiment": self.spec.id,
                "title": self.spec.title,
                "rows": self.rows(),
            },
            indent=2,
            sort_keys=True,
        )

    def __repr__(self) -> str:
        return f"ExperimentResult({self.spec.id!r}, {len(self.rows())} rows)"


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable paper artifact.

    ``runner`` maps a config to the experiment's native result;
    ``renderer`` turns that result into the CLI's text output, and
    ``rows_fn`` flattens it for JSON export.  ``fast_estimate_s`` is the
    rough wall-clock of a fast-mode run (shown by ``repro list``).
    """

    id: str
    title: str
    fast_estimate_s: float
    runner: Callable[[ExperimentConfig], Any]
    renderer: Callable[[Any], str]
    rows_fn: Callable[[Any], List[Dict[str, Any]]]

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        return ExperimentResult(self, self.runner(config or ExperimentConfig()))


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    if spec.id in _REGISTRY:
        raise ValueError(f"experiment id {spec.id!r} registered twice")
    _REGISTRY[spec.id] = spec
    return spec


def get(experiment_id: str) -> ExperimentSpec:
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"choose from {', '.join(experiment_ids())}"
        ) from None


def experiment_ids() -> List[str]:
    return sorted(_REGISTRY)


def all_specs() -> List[ExperimentSpec]:
    return [_REGISTRY[experiment_id] for experiment_id in experiment_ids()]


def _deferred(
    target: str,
    kwargs: Optional[Callable[[ExperimentConfig], Dict[str, Any]]] = None,
) -> Callable[[Any], Any]:
    """``"module:function"`` as a callable that imports it when called.

    Without ``kwargs`` the callable passes its one argument through
    (renderers, row flatteners); with it, the argument is an
    :class:`ExperimentConfig` mapped to the driver's keyword arguments.
    """
    module, _, name = target.partition(":")

    def call(arg: Any) -> Any:
        function = getattr(importlib.import_module(module), name)
        return function(**kwargs(arg)) if kwargs else function(arg)

    call.__qualname__ = target
    return call


# ----------------------------------------------------------------------
# Row flattening helpers
# ----------------------------------------------------------------------
def _scalarize(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, _Scalar):
        return value
    return None


def _object_row(obj: Any, extra: Sequence[str] = ()) -> Dict[str, Any]:
    """Scalar fields of a dataclass, plus named computed properties."""
    row: Dict[str, Any] = {}
    if is_dataclass(obj):
        for spec_field in fields(obj):
            value = _scalarize(getattr(obj, spec_field.name))
            if value is not None:
                row[spec_field.name] = value
    for name in extra:
        value = _scalarize(getattr(obj, name))
        if value is not None:
            row[name] = value
    return row


def _grid_rows(result: Any) -> List[Dict[str, Any]]:
    """Rows for a Table1-shaped grid of (category, scenario) cells."""
    rows = []
    for (category, scenario), cell in sorted(
        result.cells.items(), key=lambda item: (item[0][0], item[0][1].value)
    ):
        rows.append(
            {
                "category": category,
                "scenario": scenario.value,
                "init_us_mean": cell.init_us.mean,
                "exec_us_mean": cell.exec_us.mean,
                "init_pct_mean": cell.init_pct.mean,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Runner arguments, renderers and row flatteners per experiment.
# ----------------------------------------------------------------------
def _grid_args(config: ExperimentConfig) -> Dict[str, Any]:
    """Table 1 / Figure 4: repeated grid over (category, scenario)."""
    return dict(
        repetitions=config.repetitions, seed=config.seed, platform=config.platform
    )


def _sweep_args(config: ExperimentConfig) -> Dict[str, Any]:
    """Figures 2/3: repeated resume cycles over the vCPU sweep."""
    return dict(
        vcpu_counts=config.vcpu_sweep,
        repetitions=config.repetitions,
        platform=config.platform,
    )


def _figure2_rows(result: Any) -> List[Dict[str, Any]]:
    rows = []
    for point in result.points:
        row = {
            "vcpus": point.vcpus,
            "mean_total_ns": point.mean_total_ns,
            "hot_share": point.hot_share,
        }
        for step, mean_ns in sorted(point.mean_step_ns.items()):
            row[f"step_{step}_ns"] = mean_ns
        rows.append(row)
    return rows


def _figure3_rows(result: Any) -> List[Dict[str, Any]]:
    rows = []
    for setup in sorted(result.series):
        for vcpus in result.vcpu_counts():
            rows.append(
                {
                    "setup": setup,
                    "vcpus": vcpus,
                    "mean_ns": result.mean_ns(setup, vcpus),
                }
            )
    return rows


def _render_overhead(result: Any) -> str:
    lines = []
    for vcpus in result.vcpu_counts():
        lines.append(
            f"uLL vCPUs={vcpus}: mem delta "
            f"{result.memory_delta_bytes(vcpus) / 1000:.1f} kB, "
            f"pause CPU {result.pause_cpu_delta_pct(vcpus):.6f} %, "
            f"resume CPU {result.resume_cpu_delta_pct(vcpus):.6f} %"
        )
    return "\n".join(lines)


def _overhead_rows(result: Any) -> List[Dict[str, Any]]:
    return [
        {
            "vcpus": vcpus,
            "memory_delta_bytes": result.memory_delta_bytes(vcpus),
            "pause_cpu_delta_pct": result.pause_cpu_delta_pct(vcpus),
            "resume_cpu_delta_pct": result.resume_cpu_delta_pct(vcpus),
        }
        for vcpus in result.vcpu_counts()
    ]


def _colocation_rows(result: Any) -> List[Dict[str, Any]]:
    rows = []
    for (mode, ull_vcpus), run in sorted(result.runs.items()):
        summary = run.summary()
        row = _object_row(summary)
        row.update({"mode": mode, "ull_vcpus": ull_vcpus})
        rows.append(row)
    return rows


def _run_chaos(config: ExperimentConfig) -> Any:
    from repro.experiments.chaos import ChaosConfig, run_chaos

    chaos_config = (
        ChaosConfig(hosts=2, requests=200, seed=config.seed)
        if config.fast
        else ChaosConfig(seed=config.seed)
    )
    return run_chaos(chaos_config)


def _chaos_rows(result: Any) -> List[Dict[str, Any]]:
    return [
        _object_row(result.outcomes[mode], extra=("p99_us", "ull_p50_us", "ull_p99_us"))
        for mode in result.outcomes
    ]


def _run_dispatch_zoo(config: ExperimentConfig) -> Any:
    from repro.experiments.dispatch_zoo import (
        DispatchZooConfig,
        run_dispatch_zoo,
    )

    zoo_config = (
        DispatchZooConfig(
            hosts=2,
            requests=120,
            failure_rates=(0.1,),
            mixes=("balanced", "accel"),
            seed=config.seed,
        )
        if config.fast
        else DispatchZooConfig(seed=config.seed)
    )
    return run_dispatch_zoo(zoo_config)


def _run_cluster_sharded(config: ExperimentConfig) -> Any:
    from repro.experiments.sharded_chaos import (
        ShardedChaosConfig,
        run_sharded_chaos,
    )

    sharded_config = (
        ShardedChaosConfig(groups=4, hosts=2, requests=240, seed=config.seed)
        if config.fast
        else ShardedChaosConfig(seed=config.seed)
    )
    return run_sharded_chaos(sharded_config, shards=config.shards)


def _run_cluster_recovery(config: ExperimentConfig) -> Any:
    from repro.experiments.cluster_recovery import (
        ClusterRecoveryConfig,
        run_recovery,
    )

    recovery_config = (
        ClusterRecoveryConfig(groups=2, requests=200, seed=config.seed)
        if config.fast
        else ClusterRecoveryConfig(seed=config.seed)
    )
    return run_recovery(recovery_config, shards=config.shards)


def _recovery_rows(result: Any) -> List[Dict[str, Any]]:
    from repro.metrics.stats import percentile

    rows = []
    for group in sorted(result.cells):
        cell = result.cells[group]
        rows.append(
            {
                "group": cell.group,
                "submitted": cell.submitted,
                "completed": cell.completed,
                "shed": cell.shed,
                "failed": cell.failed,
                "gw_crashes": cell.gw_crashes,
                "gw_recoveries": cell.gw_recoveries,
                "redispatched": cell.redispatched,
                "fenced": cell.fenced,
                "parked": cell.parked,
                "p99_us": (
                    percentile(cell.latencies_us, 99.0)
                    if cell.latencies_us
                    else 0.0
                ),
                "recovery_p99_us": (
                    percentile(cell.recovery_latencies_us, 99.0)
                    if cell.recovery_latencies_us
                    else 0.0
                ),
                "violations": len(cell.violations),
                "oracle_ok": not result.oracle_mismatches,
            }
        )
    return rows


def _cluster_study_args(config: ExperimentConfig) -> Dict[str, Any]:
    if config.fast:
        return dict(hosts=2, functions=3, duration_s=10.0, seed=config.seed)
    return dict(seed=config.seed)


def _render_cluster_study(result: Any) -> str:
    lines = [
        f"{'policy':14s} {'triggers':>8s} {'cold':>6s} {'cold %':>7s} "
        f"{'balance cv':>10s} {'init us':>9s}"
    ]
    for policy in result.policies():
        outcome = result.outcome(policy)
        lines.append(
            f"{outcome.policy:14s} {outcome.triggers:8d} "
            f"{outcome.cold_fallbacks:6d} {100 * outcome.cold_rate:6.2f}% "
            f"{outcome.balance_cv:10.3f} {outcome.mean_init_us:9.2f}"
        )
    return "\n".join(lines)


def _cluster_study_rows(result: Any) -> List[Dict[str, Any]]:
    return [
        _object_row(result.outcome(policy), extra=("cold_rate",))
        for policy in result.policies()
    ]


def _pool_study_args(config: ExperimentConfig) -> Dict[str, Any]:
    if config.fast:
        return dict(functions=4, duration_s=30.0, seed=config.seed)
    return dict(seed=config.seed)


def _render_pool_study(result: Any) -> str:
    lines = [
        f"{'policy':14s} {'triggers':>8s} {'hits':>6s} {'hit %':>7s} "
        f"{'cold':>6s} {'evict':>6s} {'peak':>5s} {'init us':>9s}"
    ]
    for name in result.policy_names():
        outcome = result.outcome(name)
        lines.append(
            f"{outcome.policy_name:14s} {outcome.triggers:8d} "
            f"{outcome.warm_hits:6d} {100 * outcome.hit_rate:6.2f}% "
            f"{outcome.cold_starts:6d} {outcome.evictions:6d} "
            f"{outcome.peak_pooled:5d} {outcome.mean_init_us:9.2f}"
        )
    return "\n".join(lines)


def _pool_study_rows(result: Any) -> List[Dict[str, Any]]:
    return [
        _object_row(result.outcome(name), extra=("hit_rate",))
        for name in result.policy_names()
    ]


def _render_slo(result: Any) -> str:
    lines = [f"{'category':16s} {'scenario':10s} {'budget us':>10s} {'attained':>9s}"]
    for (category, scenario), cell in sorted(
        result.cells.items(), key=lambda item: (item[0][0], item[0][1].value)
    ):
        lines.append(
            f"{category:16s} {scenario.value:10s} "
            f"{cell.budget_ns / 1000:10.1f} "
            f"{100 * cell.attainment:8.2f}%"
        )
    return "\n".join(lines)


def _slo_rows(result: Any) -> List[Dict[str, Any]]:
    return [
        _object_row(cell, extra=("attainment",))
        for _key, cell in sorted(
            result.cells.items(), key=lambda item: (item[0][0], item[0][1].value)
        )
    ]


def _render_transport(result: Any) -> str:
    lines = [
        f"{'transport':12s} {'scenario':10s} {'overhead %':>10s} "
        f"{'transport ns':>13s} {'init ns':>10s}"
    ]
    for (transport, scenario), cell in sorted(
        result.cells.items(), key=lambda item: (item[0][0], item[0][1].value)
    ):
        lines.append(
            f"{transport:12s} {scenario.value:10s} "
            f"{cell.mean_overhead_pct:10.3f} {cell.mean_transport_ns:13.1f} "
            f"{cell.mean_init_ns:10.1f}"
        )
    return "\n".join(lines)


def _transport_rows(result: Any) -> List[Dict[str, Any]]:
    return [
        _object_row(cell)
        for _key, cell in sorted(
            result.cells.items(), key=lambda item: (item[0][0], item[0][1].value)
        )
    ]


def _run_ablations(config: ExperimentConfig) -> Dict[str, Any]:
    from repro.experiments.ablations import (
        ablate_mechanism_split,
        ablate_platform,
        ablate_precompute_churn,
        ablate_ull_runqueue_count,
    )

    results: Dict[str, Any] = {
        "ull_runqueue_count": ablate_ull_runqueue_count(
            queue_counts=(1, 4) if config.fast else (1, 2, 4, 8)
        ),
        "mechanism_split": ablate_mechanism_split(),
    }
    if not config.fast:
        results["precompute_churn"] = ablate_precompute_churn()
        results["platform"] = ablate_platform()
    return results


def _render_ablations(results: Dict[str, Any]) -> str:
    lines = []
    current = None
    for row in _ablations_rows(results):
        name = row.pop("ablation")
        if name != current:
            lines.append(f"== {name} ==")
            current = name
        parts = [f"{k}={v}" for k, v in sorted(row.items())]
        lines.append("  " + " ".join(parts))
    return "\n".join(lines)


def _ablations_rows(results: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for name in sorted(results):
        value = results[name]
        points = value if isinstance(value, list) else [value]
        for point in points:
            row = _object_row(point)
            if name == "mechanism_split":
                # Its payload is a step -> (vanilla, horse) dict; flatten
                # to the per-step saving the figure actually reports.
                for step in sorted(point.steps):
                    row[f"saving_{step}_ns"] = point.saving_ns(step)
                row["total_saving_ns"] = point.total_saving_ns()
            row["ablation"] = name
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# The registry itself.
# ----------------------------------------------------------------------
register(
    ExperimentSpec(
        id="table1",
        title="Table 1 — init/exec/init% for cold/restore/warm x categories",
        fast_estimate_s=1.0,
        runner=_deferred("repro.experiments.table1:run_table1", _grid_args),
        renderer=_deferred("repro.analysis.tables:render_table1"),
        rows_fn=_grid_rows,
    )
)
register(
    ExperimentSpec(
        id="figure1",
        title="Figure 1 — init share per scenario",
        fast_estimate_s=1.0,
        runner=_deferred("repro.experiments.table1:run_table1", _grid_args),
        renderer=_deferred("repro.analysis.figures:render_figure1"),
        rows_fn=_grid_rows,
    )
)
register(
    ExperimentSpec(
        id="figure2",
        title="Figure 2 — vanilla resume breakdown vs vCPUs",
        fast_estimate_s=1.0,
        runner=_deferred("repro.experiments.figure2:run_figure2", _sweep_args),
        renderer=_deferred("repro.analysis.figures:render_figure2"),
        rows_fn=_figure2_rows,
    )
)
register(
    ExperimentSpec(
        id="figure3",
        title="Figure 3 — resume time: vanil/ppsm/coal/horse",
        fast_estimate_s=2.0,
        runner=_deferred("repro.experiments.figure3:run_figure3", _sweep_args),
        renderer=_deferred("repro.analysis.figures:render_figure3"),
        rows_fn=_figure3_rows,
    )
)
register(
    ExperimentSpec(
        id="figure4",
        title="Figure 4 — init share incl. HORSE",
        fast_estimate_s=1.0,
        runner=_deferred("repro.experiments.figure4:run_figure4", _grid_args),
        renderer=_deferred("repro.analysis.figures:render_figure4"),
        rows_fn=lambda result: _grid_rows(result.grid),
    )
)
register(
    ExperimentSpec(
        id="overhead",
        title="§5.2 — CPU and memory overhead",
        fast_estimate_s=1.0,
        runner=_deferred(
            "repro.experiments.overhead:run_overhead",
            lambda config: dict(
                vcpu_counts=(1, 36) if config.fast else config.vcpu_sweep,
                seed=config.seed,
                platform=config.platform,
            ),
        ),
        renderer=_render_overhead,
        rows_fn=_overhead_rows,
    )
)
register(
    ExperimentSpec(
        id="colocation",
        title="§5.4 — colocation with long-running functions",
        fast_estimate_s=4.0,
        runner=_deferred(
            "repro.experiments.colocation:run_colocation",
            lambda config: dict(
                vcpu_counts=(1, 36) if config.fast else (1, 8, 16, 36),
                seed=config.seed,
                platform=config.platform,
            ),
        ),
        renderer=_deferred("repro.analysis.figures:render_colocation"),
        rows_fn=_colocation_rows,
    )
)
register(
    ExperimentSpec(
        id="chaos",
        title="Chaos — resilience modes under seeded failures",
        fast_estimate_s=6.0,
        runner=_run_chaos,
        renderer=_deferred("repro.experiments.chaos:render_chaos"),
        rows_fn=_chaos_rows,
    )
)
register(
    ExperimentSpec(
        id="dispatch_zoo",
        title="Zoo — dispatch policies x failure rate x workload mix",
        fast_estimate_s=2.0,
        runner=_run_dispatch_zoo,
        renderer=_deferred("repro.experiments.dispatch_zoo:render_dispatch_zoo"),
        rows_fn=_deferred("repro.experiments.dispatch_zoo:dispatch_zoo_rows"),
    )
)
register(
    ExperimentSpec(
        id="cluster_sharded",
        title="Sharded — chaos study partitioned over worker processes",
        fast_estimate_s=2.0,
        runner=_run_cluster_sharded,
        renderer=_deferred("repro.experiments.sharded_chaos:render_sharded_chaos"),
        rows_fn=_chaos_rows,
    )
)
register(
    ExperimentSpec(
        id="cluster_recovery",
        title="Recovery — gateway crashes under the exactly-once oracle",
        fast_estimate_s=2.0,
        runner=_run_cluster_recovery,
        renderer=_deferred("repro.experiments.cluster_recovery:render_recovery"),
        rows_fn=_recovery_rows,
    )
)
register(
    ExperimentSpec(
        id="cluster_study",
        title="Cluster — placement policies on a multi-host cluster",
        fast_estimate_s=3.0,
        runner=_deferred(
            "repro.experiments.cluster_study:run_cluster_study", _cluster_study_args
        ),
        renderer=_render_cluster_study,
        rows_fn=_cluster_study_rows,
    )
)
register(
    ExperimentSpec(
        id="pool_study",
        title="Pools — keep-alive policies on an Azure-style trace",
        fast_estimate_s=2.0,
        runner=_deferred(
            "repro.experiments.pool_study:run_pool_study", _pool_study_args
        ),
        renderer=_render_pool_study,
        rows_fn=_pool_study_rows,
    )
)
register(
    ExperimentSpec(
        id="prewarm_frontier",
        title="Frontier — memory budget vs p99 under prewarm policies",
        fast_estimate_s=8.0,
        runner=_deferred(
            "repro.experiments.prewarm_frontier:run_prewarm_frontier",
            lambda config: dict(
                fast=config.fast, seed=config.seed, shards=config.shards
            ),
        ),
        renderer=_deferred(
            "repro.experiments.prewarm_frontier:render_prewarm_frontier"
        ),
        rows_fn=_deferred("repro.experiments.prewarm_frontier:prewarm_frontier_rows"),
    )
)
register(
    ExperimentSpec(
        id="slo",
        title="SLO — deadline attainment per (category, scenario)",
        fast_estimate_s=2.0,
        runner=_deferred(
            "repro.experiments.slo:run_slo",
            lambda config: dict(
                invocations=50 if config.fast else 200,
                seed=config.seed,
                platform=config.platform,
            ),
        ),
        renderer=_render_slo,
        rows_fn=_slo_rows,
    )
)
register(
    ExperimentSpec(
        id="transport_sensitivity",
        title="Transport — trigger-transport overhead sensitivity",
        fast_estimate_s=1.0,
        runner=_deferred(
            "repro.experiments.transport_sensitivity:run_transport_sensitivity",
            lambda config: dict(
                invocations=30 if config.fast else 100, seed=config.seed
            ),
        ),
        renderer=_render_transport,
        rows_fn=_transport_rows,
    )
)
register(
    ExperimentSpec(
        id="ablations",
        title="Ablations — runqueue count, churn, platform, mechanism split",
        fast_estimate_s=2.0,
        runner=_run_ablations,
        renderer=_render_ablations,
        rows_fn=_ablations_rows,
    )
)
