"""Physical host model: sockets, cores, and their run queues.

The paper's testbed is a Cloudlab r650: 2 Intel Xeon Platinum 8360Y
sockets x 36 cores at 2.4 GHz, 128 GB RAM.  :data:`CLOUDLAB_R650`
describes it; :class:`Host` instantiates the cores, one run queue per
core, and carves out the reserved ``ull_runqueue`` cores HORSE uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heapreplace
from typing import Callable, Dict, Iterator, List, Optional

from repro.hypervisor.dvfs import DvfsGovernor, FrequencyRange, GovernorMode
from repro.hypervisor.runqueue import RunQueue
from repro.hypervisor.vcpu import Vcpu
from repro.obs.context import Observability


@dataclass(frozen=True)
class HostSpec:
    """Static description of a physical server."""

    name: str
    sockets: int
    cores_per_socket: int
    base_khz: int
    max_khz: int
    memory_mb: int
    hyperthreading: bool = False

    def __post_init__(self) -> None:
        if self.sockets <= 0 or self.cores_per_socket <= 0:
            raise ValueError(f"{self.name}: non-positive core topology")
        if self.memory_mb <= 0:
            raise ValueError(f"{self.name}: non-positive memory")

    @property
    def total_cores(self) -> int:
        threads = 2 if self.hyperthreading else 1
        return self.sockets * self.cores_per_socket * threads


#: The paper's testbed (hyperthreading disabled for the §2/§3 analysis).
CLOUDLAB_R650 = HostSpec(
    name="cloudlab-r650",
    sockets=2,
    cores_per_socket=36,
    base_khz=2_400_000,
    max_khz=3_500_000,
    memory_mb=128 * 1024,
)

#: A small edge node — uLL NFV workloads often run at the edge, where
#: reserving even one core for the ull_runqueue is a larger fraction of
#: the machine (useful for sensitivity studies).
EDGE_NODE = HostSpec(
    name="edge-node",
    sockets=1,
    cores_per_socket=8,
    base_khz=2_000_000,
    max_khz=3_000_000,
    memory_mb=32 * 1024,
)


#: Placements of at least this many vCPUs pick from a heap instead of
#: scanning once per vCPU: heapifying the general queues costs about
#: as much as three scans of them.
HEAP_PLACEMENT_PICKS = 4


@dataclass
class Core:
    """One physical core: identity, frequency, and current occupant."""

    core_id: int
    socket: int
    khz: int
    running: Optional[Vcpu] = None

    @property
    def busy(self) -> bool:
        return self.running is not None


class Host:
    """A running server: cores, their run queues, and memory accounting."""

    def __init__(
        self,
        spec: HostSpec,
        sort_key: Callable[[Vcpu], float],
        default_timeslice_ns: int,
        ull_timeslice_ns: int,
        reserved_ull_cores: int = 1,
        governor_mode: GovernorMode = GovernorMode.ONDEMAND,
    ) -> None:
        if reserved_ull_cores < 0:
            raise ValueError(f"negative reserved core count {reserved_ull_cores}")
        if reserved_ull_cores >= spec.total_cores:
            raise ValueError(
                f"cannot reserve {reserved_ull_cores} of {spec.total_cores} cores"
            )
        self.spec = spec
        self.governor = DvfsGovernor(
            mode=governor_mode,
            frequency=FrequencyRange(spec.base_khz // 3, spec.max_khz),
        )
        self.cores: List[Core] = []
        self.runqueues: Dict[int, RunQueue] = {}
        self._memory_used_mb = 0

        per_socket = spec.cores_per_socket * (2 if spec.hyperthreading else 1)
        for core_id in range(spec.total_cores):
            self.cores.append(
                Core(core_id=core_id, socket=core_id // per_socket, khz=spec.base_khz)
            )
        # The *last* reserved_ull_cores cores host the ull_runqueues,
        # keeping core 0 (where toolstacks pin housekeeping) general.
        first_ull = spec.total_cores - reserved_ull_cores
        for core in self.cores:
            is_ull = core.core_id >= first_ull
            self.runqueues[core.core_id] = RunQueue(
                runqueue_id=core.core_id,
                sort_key=sort_key,
                core_id=core.core_id,
                timeslice_ns=ull_timeslice_ns if is_ull else default_timeslice_ns,
                reserved_for_ull=is_ull,
            )
        # Queue partitions never change after construction; both views
        # are cached in runqueue_id order so the per-resume placement
        # scan does not rebuild them (least_loaded_general is on the
        # chaos hot path — see repro.obs.profile).
        self._general_runqueues: List[RunQueue] = [
            rq for rq in self.runqueues.values() if not rq.reserved_for_ull
        ]
        self._ull_runqueues: List[RunQueue] = [
            rq for rq in self.runqueues.values() if rq.reserved_for_ull
        ]

    # ------------------------------------------------------------------
    def attach_observability(self, obs: Observability) -> None:
        """Wire one obs bundle into the governor and every run queue.

        Load-fold counts are batched as plain ints on each
        :class:`~repro.hypervisor.load_tracking.RunqueueLoad`; a
        registry collector sums them at snapshot/render time so the
        fold hot path never touches the registry.
        """
        self.governor.obs = obs
        for runqueue in self.runqueues.values():
            runqueue.obs = obs
        if obs.metrics.enabled:
            loads = [rq.load for rq in self.runqueues.values()]
            iterated = obs.metrics.counter(
                "load.fold.iterated", "vanilla per-entity load folds"
            )
            coalesced = obs.metrics.counter(
                "load.fold.coalesced", "HORSE fused load folds"
            )

            def export_folds(
                _exported: List[int] = [0, 0],
                _loads: List = loads,
            ) -> None:
                total_iter = sum(load.folds_iterated for load in _loads)
                total_coal = sum(load.folds_coalesced for load in _loads)
                iterated.inc(total_iter - _exported[0])
                coalesced.inc(total_coal - _exported[1])
                _exported[0] = total_iter
                _exported[1] = total_coal

            obs.metrics.add_collector(export_folds)

    # ------------------------------------------------------------------
    # Run-queue views
    # ------------------------------------------------------------------
    def general_runqueues(self) -> List[RunQueue]:
        return list(self._general_runqueues)

    def ull_runqueues(self) -> List[RunQueue]:
        return list(self._ull_runqueues)

    def least_loaded_general(self) -> RunQueue:
        """The general queue with the lowest tracked load (vanilla
        placement rule for a resuming vCPU).

        Manual scan over the cached queue list: the queues iterate in
        runqueue_id order and only a strictly smaller (load, length)
        displaces the incumbent, so ties break toward the lowest id —
        exactly the old ``min`` over ``(load, len, id)`` tuples, minus
        the per-queue tuple and lambda allocations.
        """
        queues = self._general_runqueues
        if not queues:
            raise RuntimeError("host has no general-purpose run queues")
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
        return best

    def least_loaded_generals(self, count: int) -> Iterator[RunQueue]:
        """*count* successive :meth:`least_loaded_general` picks, for
        placing a sandbox's vCPUs with one enqueue onto each pick
        between draws.

        Few picks are plain scans.  From :data:`HEAP_PLACEMENT_PICKS`
        on, a heap keyed ``(load, length, runqueue_id)`` holds every
        general queue; the only queue that changed since the last draw
        is the one it returned, so re-keying that one entry keeps every
        pick equal to a fresh scan, ties included.
        """
        if count < HEAP_PLACEMENT_PICKS:
            for _ in range(count):
                yield self.least_loaded_general()
            return
        heap = [
            (rq.load.value, rq.entities._size, rq.runqueue_id, rq)
            for rq in self._general_runqueues
        ]
        heapify(heap)
        for _ in range(count):
            best = heap[0][3]
            yield best
            heapreplace(
                heap, (best.load.value, best.entities._size, best.runqueue_id, best)
            )

    def refresh_frequencies(self) -> None:
        """Let the governor re-pick each core's frequency from its load."""
        for core in self.cores:
            core.khz = self.governor.target_khz(self.runqueues[core.core_id].load.value)

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
