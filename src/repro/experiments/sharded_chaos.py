"""Sharded chaos study: the cluster run partitioned over worker processes.

The single-engine chaos study (:mod:`repro.experiments.chaos`)
simulates one cluster on one engine in one process — which caps it at
a single core.  This study scales the same comparison out on the same
core — config shape, stack builder and arrival plan: the cluster is
modelled as ``groups`` independent failure-domain *cells*, each a full
resilient stack (:func:`~repro.experiments.chaos._build_stack`)
simulated by its own :class:`~repro.sim.engine.Engine`.  Requests enter
through the shard front-end (:mod:`repro.faas.frontend`): the router
assigns each arrival to a cell and delivers it after the fixed
gateway-dispatch hop — the only cross-shard message in the model, and
therefore the conservative lookahead that lets each cell simulate ahead
safely (:func:`repro.sim.sharding.windowed_run`).

``shards`` selects how many worker processes the fixed set of cells is
distributed over (:func:`repro.sim.sharding.assign_cells`).  The hard
invariant — enforced by the shard-invariance property suite and the CI
subprocess diff — is that the worker count changes only wall-clock:

    same seed  ⇒  byte-identical merged trace, metrics, and rendered
    output for ANY ``shards`` (1, 2, 4, 8, ...).

That holds because every cell is a pure function of ``(config, seed,
group)``: per-cell RNG registries are forked from the root seed by
group id, the routed arrival plan is drawn once from dedicated streams,
and the merge is the pinned deterministic order of
:func:`repro.sim.sharding.merge_records`.  Nothing in the rendered
output or the trace mentions the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.experiments.chaos import (
    CHAOS_MODES,
    CellOutcome,
    ChaosConfig,
    ChaosResult,
    _aggregate_mode,
    _arrival_plan,
    _build_stack,
    _cell_outcome,
    _close_cell,
    _dispatch_suffix,
    _mode_lines,
)
from repro.faas.frontend import DISPATCH_LATENCY_NS, RoutedArrival
from repro.resilience import FailureInjector
from repro.sim.engine import Engine
from repro.sim.sharding import cell_seed, merge_records, run_cells, windowed_run
from repro.sim.units import seconds

#: Tie-break rank for record kinds at equal timestamps within one cell.
_KIND_ORDER = {"crash": 0, "recover": 1, "request": 2}


@dataclass(frozen=True)
class ShardedChaosConfig(ChaosConfig):
    """A chaos shape partitioned into ``groups`` failure-domain cells
    (identical across modes and worker counts).  ``groups`` is a
    *model* parameter fixed by the config; the worker count is an
    execution knob passed to :func:`run_sharded_chaos` separately, so
    changing it cannot change the simulated system.  ``hosts`` counts
    hosts per cell and ``requests`` the global load routed across them.
    """

    _HOSTS_RULE: ClassVar[str] = "each cell needs >= 2 hosts (hedging/steering)"

    hosts: int = 2
    groups: int = 8

    def __post_init__(self) -> None:
        self._require(("groups", self.groups >= 1, ">= 1"))
        super().__post_init__()


def _record_host_churn(
    injector: FailureInjector, records: List[dict], **tags: object
) -> None:
    """Append a ``crash``/``recover`` record, tagged *tags*, to *records*
    on each of *injector*'s host events."""
    for kind, hooks in (("crash", injector.on_crash), ("recover", injector.on_recover)):
        hooks.append(
            lambda index, now, kind=kind: records.append(
                {"t": now, **tags, "kind": kind, "host": index}
            )
        )


def _deliver(
    engine: Engine,
    arrivals: Sequence[RoutedArrival],
    submit: Callable[[RoutedArrival], object],
    injectors: Sequence,
    config: ShardedChaosConfig,
    label: str,
) -> int:
    """Drive one cell: schedule the injectors' crashes up to the last
    delivery, then hand each arrival to *submit* at its ``deliver_ns``
    through the conservative-lookahead windows of :func:`windowed_run`
    — the cell never simulates past a horizon it could still receive a
    dispatch below.  Returns the window count."""
    last = arrivals[-1].deliver_ns if arrivals else 0
    for injector in injectors:
        injector.schedule_crashes(until_ns=last)
    return windowed_run(
        engine,
        [(arrival.deliver_ns, partial(submit, arrival)) for arrival in arrivals],
        lookahead_ns=DISPATCH_LATENCY_NS,
        drain_until=last + seconds(config.drain_s),
        label=label,
    )


def run_cell(
    mode: str,
    config: ShardedChaosConfig,
    group: int,
    arrivals: Sequence[RoutedArrival],
) -> CellOutcome:
    """One failure-domain cell, one mode: build, drive, audit.

    The same stack as :func:`repro.experiments.chaos.run_chaos_mode`,
    on the cell's own engine and seeded purely from ``(seed, group)``;
    the cell's arrivals arrive through :func:`_deliver`.
    """
    cluster, gateway, injector = _build_stack(
        mode, config, cell_seed(config.seed, "shard-cell-", group), domain=group
    )
    records: List[dict] = []
    _record_host_churn(injector, records, shard=group, mode=mode)
    windows = _deliver(
        cluster.engine,
        arrivals,
        lambda a: gateway.submit(a.function, priority=a.priority),
        [injector],
        config,
        label="chaos-submit",
    )

    for arrival, request in zip(arrivals, gateway.requests):
        records.append(
            {
                "t": request.submit_ns,
                "shard": group,
                "mode": mode,
                "kind": "request",
                "req": arrival.index,
                "fn": request.function,
                "state": request.state.value,
                "lat_ns": request.latency_ns if request.latency_ns is not None else -1,
                "retries": request.retries,
                "hedges": request.hedges_used,
            }
        )
    records.sort(
        key=lambda r: (r["t"], _KIND_ORDER[r["kind"]], r.get("req", r.get("host", 0)))
    )

    cell = _cell_outcome(mode, group, gateway, injector)
    cell.violations = [f"g{group}: {message}" for message in cell.violations]
    cell.windows = windows
    cell.records = records
    _close_cell(cluster.engine, [cluster])
    return cell


@dataclass
class ShardedChaosResult(ChaosResult):
    """A chaos result (per-mode outcomes) plus its cells and trace."""

    config: ShardedChaosConfig
    cells: Dict[Tuple[str, int], CellOutcome] = field(default_factory=dict)
    #: deterministic merged trace (mode-major, then (t, shard, index))
    records: List[dict] = field(default_factory=list)
    events_executed: int = 0
    windows: int = 0


def run_sharded_chaos(
    config: Optional[ShardedChaosConfig] = None,
    shards: int = 1,
    modes: Tuple[str, ...] = CHAOS_MODES,
    parallel: bool = True,
) -> ShardedChaosResult:
    """The full sharded study: every (mode, cell) over *shards* workers.

    ``shards`` and ``parallel`` are passed to
    :func:`repro.sim.sharding.run_cells`: ``parallel=False`` runs every
    cell in-process (the windowed drivers and the merge are exercised
    identically — only the OS processes are skipped).  Results are
    byte-identical either way, and for every worker count — that is
    the contract.
    """
    config = config or ShardedChaosConfig()
    arrivals_by_group = _arrival_plan(config, config.groups)
    tasks = [
        (mode, config, group, arrivals_by_group[group])
        for mode in modes
        for group in range(config.groups)
    ]
    cells = run_cells(run_cell, tasks, shards, parallel)

    result = ShardedChaosResult(config=config)
    for cell in cells:
        result.cells[(cell.mode, cell.group)] = cell
    for mode in modes:
        mode_cells = [result.cells[(mode, g)] for g in range(config.groups)]
        result.outcomes[mode] = _aggregate_mode(mode, mode_cells)
        result.records.extend(
            merge_records([cell.records for cell in mode_cells])
        )
    result.events_executed = sum(
        cell.events_executed for cell in result.cells.values()
    )
    result.windows = sum(cell.windows for cell in result.cells.values())
    return result


def render_sharded_chaos(result: ShardedChaosResult) -> str:
    """Fixed-width summary, byte-stable and worker-count-free.

    The worker count is deliberately absent: two runs of the same seed
    at any ``shards`` must render identically (the CI shard job diffs
    them), so only model parameters and simulated results may appear.
    """
    config = result.config
    first_mode = next(iter(result.outcomes))
    lines = [
        f"chaos-sharded: groups={config.groups} hosts/group={config.hosts} "
        f"requests={config.requests} failure_rate={config.failure_rate:g} "
        f"seed={config.seed}{_dispatch_suffix(config.dispatch)}",
        "shard-load: "
        + " ".join(
            f"g{group}={result.cells[(first_mode, group)].submitted}"
            for group in range(config.groups)
        ),
        "",
    ]
    lines.extend(_mode_lines(result.outcomes))
    lines.append("")
    lines.append(
        f"sharded: events={result.events_executed} windows={result.windows} "
        f"lookahead_ns={DISPATCH_LATENCY_NS} trace_records={len(result.records)}"
    )
    return "\n".join(lines)
