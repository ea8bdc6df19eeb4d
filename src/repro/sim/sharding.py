"""Sharded parallel execution: per-shard engines, conservative lookahead.

One Python process caps the reproduction at a single core's event rate.
This module is the kernel-level half of the sharded execution layer
(DESIGN.md §12): a cluster run is partitioned into independent *cells*
(failure domains / host groups), each simulated by its own
:class:`~repro.sim.engine.Engine`, and the cells are distributed over
worker processes.  Three primitives live here:

* :func:`assign_cells` — the deterministic cell→worker partition.  The
  assignment is round-robin over the sorted cell list, so it is a pure
  function of ``(cell count, worker count)`` and never depends on
  scheduling order.
* :func:`windowed_run` — the conservative-lookahead driver for one
  shard engine.  Cross-shard messages enter a cell only at gateway
  dispatch, whose minimum latency *L* is known; therefore once every
  shard has reached global time *W*, all deliveries below ``W + L`` are
  already known and a shard may safely simulate that far.  The driver
  releases the delivery stream window by window and advances the engine
  with ``run(until=horizon)``.  When the next delivery is further than
  one lookahead away it fast-forwards the horizon to that delivery's
  instant — the classic null-message optimization: a delivery stamped
  *t* proves its sender had reached ``t - L``, so nothing can arrive
  before *t*.
* :func:`merge_records` / :func:`merged_pending` — the deterministic
  merge.  Per-shard streams are combined in ascending ``(time, shard,
  per-shard index)`` order (for pending events: ``(time, priority,
  shard, sequence)``), a total order pinned by tests so the merged view
  is byte-identical for any worker count.

On top of them sit the three helpers every sharded study shares:
:func:`run_cells` (the one worker-pool driver), :func:`cell_seed` (the
sha-derived per-cell root seed) and :func:`records_jsonl` /
:func:`write_records_jsonl` (the canonical JSONL trace form).

Determinism contract: every function here is a pure function of its
inputs.  Worker count changes *where* a cell simulates, never *what* it
simulates, so the merged trace is invariant under the partition — the
shard-invariance property suite (``tests/sim/test_shard_invariance.py``)
enforces exactly that.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable, Iterable, List, Sequence, Tuple, TypeVar

from repro.sim.rng import RngRegistry

if TYPE_CHECKING:
    # Annotations only: ``run_cells`` builds no engine, so the replay,
    # which uses only that, loads no event kernel.
    from repro.sim.engine import Engine
    from repro.sim.event import Event

T = TypeVar("T")


def assign_cells(cells: int, shards: int) -> Tuple[Tuple[int, ...], ...]:
    """Partition cell ids ``0..cells-1`` over *shards* workers.

    Round-robin by cell id: worker ``w`` owns cells ``w, w + shards,
    w + 2*shards, ...`` — deterministic, balanced to within one cell,
    and independent of anything but the two counts.  Workers that end
    up empty (more shards than cells) still appear, as empty tuples.
    """
    if cells < 0:
        raise ValueError(f"cell count must be >= 0, got {cells}")
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    return tuple(
        tuple(range(worker, cells, shards)) for worker in range(shards)
    )


def _run_batch(payload) -> list:
    """Worker entry point (module-level: must pickle under spawn)."""
    fn, tasks = payload
    return [fn(*task) for task in tasks]


def run_cells(
    fn: Callable[..., T],
    tasks: Sequence[tuple],
    shards: int,
    parallel: bool = True,
) -> List[T]:
    """Run ``fn(*task)`` for every task over *shards* worker processes.

    Tasks are partitioned with :func:`assign_cells`; empty batches are
    dropped and outcomes come back in *task* order, whatever the worker
    count.  With ``shards == 1``, ``parallel=False``, or a single
    non-empty batch, every task runs in-process in task order and
    nothing is pickled.  Otherwise *fn* must be a module-level function
    and every task picklable: workers start by fork where the platform
    offers it, else by spawn.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    batches = [batch for batch in assign_cells(len(tasks), shards) if batch]
    if not parallel or len(batches) < 2:
        return [fn(*task) for task in tasks]
    import multiprocessing

    method = (
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    payloads = [(fn, [tasks[i] for i in batch]) for batch in batches]
    with multiprocessing.get_context(method).Pool(len(payloads)) as pool:
        results = pool.map(_run_batch, payloads)
    outcomes: List[T] = [None] * len(tasks)  # type: ignore[list-item]
    for batch, batch_outcomes in zip(batches, results):
        for index, outcome in zip(batch, batch_outcomes):
            outcomes[index] = outcome
    return outcomes


def cell_seed(seed: int, family: str, group: int) -> int:
    """The derived root seed for cell *group* of a study family.

    Pure in ``(seed, family, group)``: the sha-derived fork of the root
    seed named ``family + str(group)`` (the sharded chaos study uses
    ``"shard-cell-"``, the recovery study ``"recovery-cell-"``).
    """
    return RngRegistry(seed).fork(f"{family}{group}").root_seed


def records_jsonl(records: Iterable[dict]) -> str:
    """Records as canonical JSONL: one record per line.

    Keys are sorted and separators fixed, so the text is byte-identical
    for byte-identical record streams — the form the cross-process
    determinism checks diff.
    """
    return "".join(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        for record in records
    )


def write_records_jsonl(records: Iterable[dict], path: str) -> None:
    with open(path, "w") as handle:
        handle.write(records_jsonl(records))


def windowed_run(
    engine: Engine,
    deliveries: Sequence[Tuple[int, Callable[[], None]]],
    lookahead_ns: int,
    drain_until: int,
    label: str = "shard-delivery",
) -> int:
    """Drive one shard engine under conservative-lookahead windows.

    *deliveries* is the cell's cross-shard input stream — ``(time,
    callback)`` pairs in ascending time order (gateway-dispatch
    deliveries, already stamped with the dispatch latency).  The driver
    alternates between releasing every delivery due inside the next
    window and running the engine to that window's horizon; after the
    last delivery it drains the engine to *drain_until* in one final
    run.  Returns the number of windows granted (the final drain
    included), which the sharded studies surface as a sanity statistic.

    The window advance is safe by the conservative argument: with
    lookahead *L*, a delivery stamped ``t`` was sent at ``t - L`` at the
    latest, so when the stream's next delivery is at ``t_next`` no
    unseen message can exist below ``t_next`` and the horizon may jump
    there directly instead of crawling in *L*-sized steps.
    """
    if lookahead_ns < 1:
        raise ValueError(f"lookahead must be >= 1 ns, got {lookahead_ns}")
    windows = 0
    horizon = engine.now
    index = 0
    count = len(deliveries)
    while index < count:
        next_time = deliveries[index][0]
        if next_time > horizon + lookahead_ns:
            horizon = next_time
        else:
            horizon += lookahead_ns
        while index < count and deliveries[index][0] <= horizon:
            when, callback = deliveries[index]
            engine.schedule_at(when, callback, label=label, transient=True)
            index += 1
        engine.run(until=horizon)
        windows += 1
    if drain_until > engine.now:
        engine.run(until=drain_until)
    else:
        engine.run()
    return windows + 1


def merge_records(per_shard: Sequence[Sequence[dict]]) -> List[dict]:
    """Merge per-shard record streams into one deterministic trace.

    Each shard's stream is a list of dicts carrying at least ``"t"``
    (sim time, ns) and ``"shard"`` (its shard id); streams are indexed
    by position in *per_shard*.  The merged order is ascending ``(t,
    shard, index within the shard's stream)`` — at equal timestamps the
    lower shard id goes first, and within one shard the stream's own
    order is preserved.  This tie-break is part of the determinism
    contract (pinned in the shard-invariance suite): it depends only on
    record content and shard numbering, never on which worker produced
    the stream or when it finished.
    """
    merged: List[Tuple[int, int, int, dict]] = []
    for shard, records in enumerate(per_shard):
        for index, record in enumerate(records):
            merged.append((record["t"], shard, index, record))
    merged.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in merged]


def merged_pending(
    engines: Iterable[Engine],
) -> List[Tuple[int, Event]]:
    """Sorted snapshot of pending events across a family of shard engines.

    The multi-shard analogue of :meth:`Engine.pending_events`: returns
    ``(shard_id, event)`` pairs for every non-cancelled pending event,
    ordered by ``(time, priority, shard_id, sequence)``.  Within one
    shard this is exactly the order that engine would drain; across
    shards, ties at equal ``(time, priority)`` are pinned to the lower
    shard id first — per-shard sequence counters are independent, so
    they can only break ties *inside* a shard, never between shards.
    """
    entries: List[Tuple[int, int, int, int, Event]] = []
    for shard, engine in enumerate(engines):
        for event in engine.pending_events():
            entries.append(
                (event.time, event.priority, shard, event.sequence, event)
            )
    entries.sort(key=lambda entry: entry[:4])
    return [(entry[2], entry[4]) for entry in entries]
