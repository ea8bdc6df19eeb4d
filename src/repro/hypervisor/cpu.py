"""Physical host model: sockets, cores, and their run queues.

The paper's testbed is a Cloudlab r650: 2 Intel Xeon Platinum 8360Y
sockets x 36 cores at 2.4 GHz, 128 GB RAM.  :data:`CLOUDLAB_R650`
describes it; :class:`Host` holds one run queue per core, carves out
the reserved ``ull_runqueue`` cores HORSE uses, and builds each
general queue only when something first uses it.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heapify, heappush, heapreplace
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, Tuple

from repro.hypervisor.runqueue import RunQueue
from repro.hypervisor.vcpu import Vcpu
from repro.obs.context import NULL_OBS, Observability
from repro.obs.metrics import MetricRegistry


@dataclass(frozen=True)
class HostSpec:
    """Static description of a physical server."""

    name: str
    sockets: int
    cores_per_socket: int
    memory_mb: int

    def __post_init__(self) -> None:
        if self.sockets <= 0 or self.cores_per_socket <= 0:
            raise ValueError(f"{self.name}: non-positive core topology")
        if self.memory_mb <= 0:
            raise ValueError(f"{self.name}: non-positive memory")

    @property
    def total_cores(self) -> int:
        return self.sockets * self.cores_per_socket


#: The paper's testbed (SMT off for the §2/§3 analysis: one core is one
#: hardware thread).
CLOUDLAB_R650 = HostSpec(
    name="cloudlab-r650",
    sockets=2,
    cores_per_socket=36,
    memory_mb=128 * 1024,
)

#: A small edge node — uLL NFV workloads often run at the edge, where
#: reserving even one core for the ull_runqueue is a larger fraction of
#: the machine (useful for sensitivity studies).
EDGE_NODE = HostSpec(
    name="edge-node",
    sockets=1,
    cores_per_socket=8,
    memory_mb=32 * 1024,
)


#: Placements of at least this many vCPUs pick from a heap instead of
#: scanning once per vCPU: heapifying the general queues costs about
#: as much as three scans of them.
HEAP_PLACEMENT_PICKS = 4

_by_id = attrgetter("runqueue_id")


class Host:
    """A running server: per-core run queues and memory.

    The reserved uLL queues are built with the host; a general queue is
    built by :meth:`runqueue` the first time anything uses it.
    :attr:`runqueues` maps core id to the queues built so far.  An
    unbuilt queue is empty at zero load, so readers of per-queue state
    (placement, the ``repro.check`` checkers, the fold export) lose
    nothing by skipping it.
    """

    def __init__(
        self,
        spec: HostSpec,
        sort_key: Callable[[Vcpu], float],
        default_timeslice_ns: int,
        ull_timeslice_ns: int,
        reserved_ull_cores: int = 1,
    ) -> None:
        if reserved_ull_cores < 0:
            raise ValueError(f"negative reserved core count {reserved_ull_cores}")
        if reserved_ull_cores >= spec.total_cores:
            raise ValueError(
                f"cannot reserve {reserved_ull_cores} of {spec.total_cores} cores"
            )
        self.spec = spec
        self.runqueues: Dict[int, RunQueue] = {}
        self._memory_used_mb = 0
        self._sort_key = sort_key
        self._default_timeslice_ns = default_timeslice_ns
        self._ull_timeslice_ns = ull_timeslice_ns
        self._obs: Observability = NULL_OBS
        #: registries the fold export is installed in (at most once each)
        self._fold_registries: Tuple[MetricRegistry, ...] = ()
        # The *last* reserved_ull_cores cores host the ull_runqueues,
        # keeping core 0 (where toolstacks pin housekeeping) general.
        self._first_ull = spec.total_cores - reserved_ull_cores
        #: built general queues in runqueue_id order (the placement scan)
        self._general_runqueues: List[RunQueue] = []
        #: lowest general core id whose queue is not built yet
        self._next_unbuilt = 0
        self._ull_runqueues: List[RunQueue] = [
            self._build(core_id)
            for core_id in range(self._first_ull, spec.total_cores)
        ]

    # ------------------------------------------------------------------
    def attach_observability(self, obs: Observability) -> None:
        """Wire one obs bundle into every run queue, including the ones
        built later.

        Load-fold counts are batched as plain ints on each
        :class:`~repro.hypervisor.load_tracking.RunqueueLoad`; a
        registry collector sums them over the queues built by
        snapshot/render time, so the fold hot path never touches the
        registry.  The collector exports deltas, so it is installed
        once per registry however often the host is attached to it.
        """
        self._obs = obs
        for runqueue in self.runqueues.values():
            runqueue.obs = obs
            runqueue._instruments = None  # rebound lazily in *obs*
        metrics = obs.metrics
        if metrics.enabled and not any(
            metrics is installed for installed in self._fold_registries
        ):
            self._fold_registries += (metrics,)
            iterated = metrics.counter(
                "load.fold.iterated", "vanilla per-entity load folds"
            )
            coalesced = metrics.counter(
                "load.fold.coalesced", "HORSE fused load folds"
            )
            runqueues = self.runqueues

            def export_folds(_exported: List[int] = [0, 0]) -> None:
                total_iter = sum(rq.load.folds_iterated for rq in runqueues.values())
                total_coal = sum(rq.load.folds_coalesced for rq in runqueues.values())
                iterated.inc(total_iter - _exported[0])
                coalesced.inc(total_coal - _exported[1])
                _exported[0] = total_iter
                _exported[1] = total_coal

            metrics.add_collector(export_folds)

    # ------------------------------------------------------------------
    # Run-queue views
    # ------------------------------------------------------------------
    def runqueue(self, core_id: int) -> RunQueue:
        """Core *core_id*'s run queue, built on first use."""
        runqueue = self.runqueues.get(core_id)
        if runqueue is None:
            if not 0 <= core_id < self.spec.total_cores:
                raise KeyError(f"host has no core {core_id}")
            runqueue = self._build(core_id)
        return runqueue

    def _build(self, core_id: int) -> RunQueue:
        """Create core *core_id*'s queue and index it."""
        is_ull = core_id >= self._first_ull
        runqueue = RunQueue(
            runqueue_id=core_id,
            sort_key=self._sort_key,
            core_id=core_id,
            timeslice_ns=self._ull_timeslice_ns if is_ull else self._default_timeslice_ns,
            reserved_for_ull=is_ull,
            obs=self._obs,
        )
        self.runqueues[core_id] = runqueue
        if not is_ull:
            insort(self._general_runqueues, runqueue, key=_by_id)
            unbuilt = self._next_unbuilt
            while unbuilt < self._first_ull and unbuilt in self.runqueues:
                unbuilt += 1
            self._next_unbuilt = unbuilt
        return runqueue

    def built_runqueues(self) -> List[RunQueue]:
        """The queues built so far, in runqueue_id order (builds none)."""
        return self._general_runqueues + self._ull_runqueues

    def general_runqueues(self) -> List[RunQueue]:
        """Every general-purpose queue, in id order (builds them all)."""
        while self._next_unbuilt < self._first_ull:
            self._build(self._next_unbuilt)
        return list(self._general_runqueues)

    def ull_runqueues(self) -> List[RunQueue]:
        return list(self._ull_runqueues)

    def least_loaded_general(self) -> RunQueue:
        """The general queue with the lowest tracked load (vanilla
        placement rule for a resuming vCPU): lowest ``(load, length,
        runqueue_id)``.

        Manual scan over the built queues in runqueue_id order: only a
        strictly smaller (load, length) displaces the incumbent, so ties
        break toward the lowest id without per-queue tuples.  Every
        unbuilt queue keys ``(0.0, 0, id)``, so only the lowest unbuilt
        id can win, and it is built only when it does.
        """
        queues = self._general_runqueues
        unbuilt = self._next_unbuilt
        if not queues:
            if unbuilt >= self._first_ull:
                raise RuntimeError("host has no general-purpose run queues")
            return self._build(unbuilt)
        best = queues[0]
        best_load = best.load.value
        best_len = best.entities._size
        for rq in queues:
            load = rq.load.value
            if load > best_load:
                continue
            length = rq.entities._size
            if load < best_load or length < best_len:
                best = rq
                best_load = load
                best_len = length
        if unbuilt < self._first_ull and (
            best_load > 0.0
            or (best_load == 0.0 and (best_len > 0 or unbuilt < best.runqueue_id))
        ):
            return self._build(unbuilt)
        return best

    def least_loaded_generals(self, count: int) -> Iterator[RunQueue]:
        """*count* successive :meth:`least_loaded_general` picks, for
        placing a sandbox's vCPUs with one enqueue onto each pick
        between draws.

        Few picks are plain scans.  From :data:`HEAP_PLACEMENT_PICKS`
        on, a heap keyed ``(load, length, runqueue_id)`` holds every
        built general queue plus a ``(0.0, 0, id)`` stand-in for the
        lowest unbuilt one.  The only queue that changed since the last
        draw is the one it returned, so re-keying that one entry keeps
        every pick equal to a fresh scan, ties included.  A popped
        stand-in builds its queue and makes way for the next unbuilt id.
        """
        if count < HEAP_PLACEMENT_PICKS:
            for _ in range(count):
                yield self.least_loaded_general()
            return
        heap = [
            (rq.load.value, rq.entities._size, rq.runqueue_id, rq)
            for rq in self._general_runqueues
        ]
        if self._next_unbuilt < self._first_ull:
            heap.append((0.0, 0, self._next_unbuilt, None))
        heapify(heap)
        for _ in range(count):
            _, _, runqueue_id, best = heap[0]
            stand_in = best is None
            if stand_in:
                best = self._build(runqueue_id)
            yield best
            heapreplace(
                heap, (best.load.value, best.entities._size, runqueue_id, best)
            )
            if stand_in and self._next_unbuilt < self._first_ull:
                heappush(heap, (0.0, 0, self._next_unbuilt, None))

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    @property
    def memory_used_mb(self) -> int:
        return self._memory_used_mb

    @property
    def memory_free_mb(self) -> int:
        return self.spec.memory_mb - self._memory_used_mb

    def allocate_memory(self, mb: int) -> None:
        if mb < 0:
            raise ValueError(f"negative allocation {mb} MB")
        if mb > self.memory_free_mb:
            raise MemoryError(
                f"host out of memory: want {mb} MB, free {self.memory_free_mb} MB"
            )
        self._memory_used_mb += mb

    def release_memory(self, mb: int) -> None:
        if mb < 0 or mb > self._memory_used_mb:
            raise ValueError(
                f"bad release of {mb} MB (used {self._memory_used_mb} MB)"
            )
        self._memory_used_mb -= mb

    def __repr__(self) -> str:
        return (
            f"Host({self.spec.name}, cores={self.spec.total_cores}, "
            f"ull_queues={len(self.ull_runqueues())}, "
            f"mem={self._memory_used_mb}/{self.spec.memory_mb} MB)"
        )
