"""Unified experiment registry: every paper artifact behind one API.

Each experiment the reproduction can run — a table, a figure, a study —
is one :class:`ExperimentSpec`, and a spec is data: an id, a human
title, a fast-mode runtime estimate, its driver and renderer named as
``"module:function"`` strings, and the driver's fast-mode keyword
arguments.  Full mode calls the driver with its own defaults.
``spec.run(config)`` wraps the driver's native result in an
:class:`ExperimentResult`, which exposes the common protocol every
consumer builds on:

* ``summary()`` — the rendered fixed-width table/series (what the CLI
  prints);
* ``rows()``    — the result flattened to a list of scalar dicts, the
  one structured export (each result type owns its ``rows()``);
* ``to_json()`` — ``{"experiment", "title", "rows"}`` as a JSON string.

The CLI's ``experiment``/``list``/``trace``/``profile``/``check``
commands, the Markdown report and the claim validation all drive off
:func:`get`/:func:`all_specs`.  Drivers and renderers are imported on
first call, so importing the registry imports no experiment driver.
"""

from __future__ import annotations

import importlib
import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment.

    ``fast`` selects the reduced parameter set (fewer repetitions,
    sparser sweeps) used by tests and smoke runs; ``full`` runs the
    paper-fidelity parameters.  ``platform`` selects the hypervisor
    model; a spec whose driver models none refuses any but the default.
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


class ExperimentResult:
    """Uniform wrapper over an experiment's native result object."""

    def __init__(self, spec: "ExperimentSpec", raw: Any) -> None:
        self.spec = spec
        self.raw = raw

    def rows(self) -> List[Dict[str, Any]]:
        """The result as a flat list of scalar dicts."""
        return self.raw.rows()

    def summary(self) -> str:
        """The rendered human-readable table/series."""
        return _load(self.spec.render)(self.raw)

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


def _load(target: str) -> Any:
    """The object a ``"module:name"`` string names, imported now."""
    module, _, name = target.partition(":")
    return getattr(importlib.import_module(module), name)


def _named(function: Callable[..., Any], knobs: Dict[str, Any]) -> Dict[str, Any]:
    """The entries of *knobs* that *function* takes as parameters."""
    parameters = inspect.signature(function).parameters
    return {name: value for name, value in knobs.items() if name in parameters}


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable paper artifact.

    ``driver`` returns the experiment's native result, whose ``rows()``
    flattens it for JSON export; ``render`` turns it into the CLI's
    text output.  ``fast`` holds the driver's fast-mode keyword
    arguments — or, when ``config_class`` names the driver's config
    class, that class's.  ``fast_estimate_s`` is the rough wall-clock
    of a fast-mode run (shown by ``repro list``).
    """

    id: str
    title: str
    fast_estimate_s: float
    driver: str
    render: str
    fast: Mapping[str, Any] = field(default_factory=dict)
    config_class: Optional[str] = None

    def bind(self, config: ExperimentConfig) -> Callable[[], ExperimentResult]:
        """The run *config* asks for, ready to call.

        ``seed``, ``platform`` and ``shards`` go to whichever of them
        the driver (or its config class) names; a non-default platform
        that neither names raises :class:`ValueError` before anything
        runs.
        """
        knobs = dict(
            seed=config.seed, platform=config.platform, shards=config.shards
        )
        driver = _load(self.driver)
        shape = dict(self.fast) if config.fast else {}
        arguments = _named(driver, knobs)
        taken = set(arguments)
        if self.config_class is None:
            arguments.update(shape)
        else:
            config_type = _load(self.config_class)
            settings = _named(config_type, knobs)
            taken.update(settings)
            arguments["config"] = config_type(**shape, **settings)
        if config.platform != ExperimentConfig.platform and "platform" not in taken:
            raise ValueError(
                f"--platform {config.platform}: {self.id!r} models no "
                f"hypervisor platform"
            )
        return lambda: ExperimentResult(self, driver(**arguments))

    def run(self, config: Optional[ExperimentConfig] = None) -> ExperimentResult:
        return self.bind(config or ExperimentConfig())()


_SPECS = (
    ExperimentSpec(
        id="table1",
        title="Table 1 — init/exec/init% for cold/restore/warm x categories",
        fast_estimate_s=1.0,
        driver="repro.experiments.table1:run_table1",
        render="repro.analysis.tables:render_table1",
        fast={"repetitions": 3},
    ),
    ExperimentSpec(
        id="figure1",
        title="Figure 1 — init share per scenario",
        fast_estimate_s=1.0,
        driver="repro.experiments.table1:run_table1",
        render="repro.analysis.figures:render_figure1",
        fast={"repetitions": 3},
    ),
    ExperimentSpec(
        id="figure2",
        title="Figure 2 — vanilla resume breakdown vs vCPUs",
        fast_estimate_s=1.0,
        driver="repro.experiments.figure2:run_figure2",
        render="repro.analysis.figures:render_figure2",
        fast={"vcpu_counts": (1, 8, 36), "repetitions": 3},
    ),
    ExperimentSpec(
        id="figure3",
        title="Figure 3 — resume time: vanil/ppsm/coal/horse",
        fast_estimate_s=2.0,
        driver="repro.experiments.figure3:run_figure3",
        render="repro.analysis.figures:render_figure3",
        fast={"vcpu_counts": (1, 8, 36), "repetitions": 3},
    ),
    ExperimentSpec(
        id="figure4",
        title="Figure 4 — init share incl. HORSE",
        fast_estimate_s=1.0,
        driver="repro.experiments.figure4:run_figure4",
        render="repro.analysis.figures:render_figure4",
        fast={"repetitions": 3},
    ),
    ExperimentSpec(
        id="overhead",
        title="§5.2 — CPU and memory overhead",
        fast_estimate_s=1.0,
        driver="repro.experiments.overhead:run_overhead",
        render="repro.experiments.overhead:render_overhead",
        fast={"vcpu_counts": (1, 36)},
    ),
    ExperimentSpec(
        id="colocation",
        title="§5.4 — colocation with long-running functions",
        fast_estimate_s=4.0,
        driver="repro.experiments.colocation:run_colocation",
        render="repro.analysis.figures:render_colocation",
        fast={"vcpu_counts": (1, 36)},
    ),
    ExperimentSpec(
        id="chaos",
        title="Chaos — resilience modes under seeded failures",
        fast_estimate_s=6.0,
        driver="repro.experiments.chaos:run_chaos",
        render="repro.experiments.chaos:render_chaos",
        fast={"hosts": 2, "requests": 200},
        config_class="repro.experiments.chaos:ChaosConfig",
    ),
    ExperimentSpec(
        id="dispatch_zoo",
        title="Zoo — dispatch policies x failure rate x workload mix",
        fast_estimate_s=2.0,
        driver="repro.experiments.dispatch_zoo:run_dispatch_zoo",
        render="repro.experiments.dispatch_zoo:render_dispatch_zoo",
        fast={
            "hosts": 2,
            "requests": 120,
            "failure_rates": (0.1,),
            "mixes": ("balanced", "accel"),
        },
        config_class="repro.experiments.dispatch_zoo:DispatchZooConfig",
    ),
    ExperimentSpec(
        id="cluster_sharded",
        title="Sharded — chaos study partitioned over worker processes",
        fast_estimate_s=2.0,
        driver="repro.experiments.sharded_chaos:run_sharded_chaos",
        render="repro.experiments.sharded_chaos:render_sharded_chaos",
        fast={"groups": 4, "requests": 240},
        config_class="repro.experiments.sharded_chaos:ShardedChaosConfig",
    ),
    ExperimentSpec(
        id="cluster_recovery",
        title="Recovery — gateway crashes under the exactly-once oracle",
        fast_estimate_s=2.0,
        driver="repro.experiments.cluster_recovery:run_recovery",
        render="repro.experiments.cluster_recovery:render_recovery",
        fast={"groups": 2, "requests": 200},
        config_class="repro.experiments.cluster_recovery:ClusterRecoveryConfig",
    ),
    ExperimentSpec(
        id="cluster_study",
        title="Cluster — placement policies on a multi-host cluster",
        fast_estimate_s=3.0,
        driver="repro.experiments.cluster_study:run_cluster_study",
        render="repro.experiments.cluster_study:render_cluster_study",
        fast={"hosts": 2, "functions": 3, "duration_s": 10.0},
    ),
    ExperimentSpec(
        id="pool_study",
        title="Pools — keep-alive policies on an Azure-style trace",
        fast_estimate_s=2.0,
        driver="repro.experiments.pool_study:run_pool_study",
        render="repro.experiments.pool_study:render_pool_study",
        fast={"functions": 4, "duration_s": 30.0},
    ),
    ExperimentSpec(
        id="prewarm_frontier",
        title="Frontier — memory budget vs p99 under prewarm policies",
        fast_estimate_s=8.0,
        driver="repro.experiments.prewarm_frontier:run_prewarm_frontier",
        render="repro.experiments.prewarm_frontier:render_prewarm_frontier",
        fast={"fast": True},
    ),
    ExperimentSpec(
        id="slo",
        title="SLO — deadline attainment per (category, scenario)",
        fast_estimate_s=2.0,
        driver="repro.experiments.slo:run_slo",
        render="repro.experiments.slo:render_slo",
        fast={"invocations": 50},
    ),
    ExperimentSpec(
        id="transport_sensitivity",
        title="Transport — trigger-transport overhead sensitivity",
        fast_estimate_s=1.0,
        driver="repro.experiments.transport_sensitivity:run_transport_sensitivity",
        render="repro.experiments.transport_sensitivity:render_transport_sensitivity",
        fast={"invocations": 30},
    ),
    ExperimentSpec(
        id="ablations",
        title="Ablations — runqueue count, churn, platform, mechanism split",
        fast_estimate_s=2.0,
        driver="repro.experiments.ablations:run_ablations",
        render="repro.experiments.ablations:render_ablations",
        fast={"fast": True},
    ),
)

_REGISTRY: Dict[str, ExperimentSpec] = {spec.id: spec for spec in _SPECS}


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
