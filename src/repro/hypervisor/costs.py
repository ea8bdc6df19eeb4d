"""Calibrated per-operation cost model for the simulated hypervisor.

The paper measures its prototype on real hardware (Cloudlab r650,
2x Intel Xeon 8360Y).  This reproduction executes the real *algorithms*
(sorted run-queue merges, PELT load updates, P2SM splices) on real data
structures, and charges simulated nanoseconds per primitive operation
using the constants below.  The constants are calibrated so the vanilla
and HORSE paths land on the paper's measured anchors:

* vanilla 1-vCPU resume ~= 1.1 us (Table 1 "warm" initialization);
* steps 4+5 (sorted merge + load update) take 87.5 % of the resume at
  1 vCPU, growing to ~93.1 % at 36 vCPUs (Figure 2);
* HORSE resume ~= 130-150 ns, flat in the vCPU count (Figure 3);
* coalescing-only improves the resume by 16-20 %, P2SM-only by
  55-69 % (Figure 3);
* cold start ~= 1.5 s and FaaSnap-style restore ~= 1300 us (Table 1).

Derivation of the vanilla per-vCPU constants: with fixed-path cost
137 ns (parse 40 + lock 25 + sanity 30 + finalize 42), steps 4+5 must
cost ~959 ns at 1 vCPU (87.5 % of 1096 ns) and ~1849 ns at 36 vCPUs
(93.1 %).  The strong sublinearity observed by the paper (cache-warm
repeated enqueues) is modeled as a large first-vCPU cost plus a small
warm per-vCPU increment; the O(n) structural component still comes from
the *actual scan steps* of the run-queue linked list, charged at
``merge_scan_step_ns`` each.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sim.units import microseconds, milliseconds


@dataclass(frozen=True)
class CostModel:
    """Every simulated-time constant, in (possibly fractional) ns.

    Costs are floats internally; paths round to integer nanoseconds
    only when charging the engine clock.
    """

    name: str = "generic"

    # ---- vanilla resume path (paper §3.1 steps 1-6) -------------------
    resume_parse_ns: float = 40.0            # step 1: parse parameters
    resume_lock_ns: float = 25.0             # step 2: acquire resume lock
    resume_sanity_ns: float = 30.0           # step 3: sanity checks
    resume_finalize_ns: float = 42.0         # step 6: unlock + state flip

    # step 4: sorted merge of each vCPU into a run queue
    merge_first_vcpu_ns: float = 719.0       # cold caches, queue selection
    merge_warm_vcpu_ns: float = 10.0         # each further vCPU (warm path)
    merge_scan_step_ns: float = 0.15         # per linked-list node hop

    # step 5: run-queue load update, per vCPU
    load_update_first_ns: float = 240.0      # lock + PELT fold, cold
    load_update_warm_ns: float = 6.3         # each further vCPU

    # ---- HORSE fast path (paper §4) -----------------------------------
    fast_parse_ns: float = 15.0              # trimmed parameter check
    fast_lock_ns: float = 25.0               # same lock, fast-path entry
    fast_sanity_ns: float = 5.0              # state-bit check only
    p2sm_thread_spawn_ns: float = 20.0       # wake the merge-thread pool
    p2sm_thread_dispatch_ns: float = 8.0     # per-thread kick (parallel)
    p2sm_pointer_write_ns: float = 6.0       # one next-pointer store
    coalesced_update_ns: float = 47.0        # single fused load update

    # ---- pause path ----------------------------------------------------
    pause_fixed_ns: float = 150.0            # command handling + state flip
    pause_dequeue_vcpu_ns: float = 80.0      # remove one vCPU from a queue
    horse_pause_sort_vcpu_ns: float = 30.0   # build merge_vcpus, per vCPU
    horse_pause_coalesce_ns: float = 40.0    # precompute alpha^n, beta term
    p2sm_refresh_entry_ns: float = 5.0       # per arrayB/posA entry refresh

    # ---- start strategies (FaaS level, Table 1 anchors) ----------------
    cold_vmm_setup_ns: float = float(milliseconds(50))
    cold_guest_boot_ns: float = float(milliseconds(600))
    cold_runtime_init_ns: float = float(milliseconds(700))
    cold_function_load_ns: float = float(milliseconds(150))
    restore_snapshot_load_ns: float = float(microseconds(900))
    restore_memory_map_ns: float = float(microseconds(250))
    restore_device_resume_ns: float = float(microseconds(150))

    # ---- scheduling / preemption ---------------------------------------
    context_switch_ns: float = 1_500.0
    default_timeslice_ns: float = float(milliseconds(5))
    ull_timeslice_ns: float = float(microseconds(1))
    # A merge thread that spills onto a general-purpose core preempts
    # whatever runs there; the disturbance (two context switches plus
    # cache/TLB refill for the victim) is the paper's §5.4 "extreme
    # case where a thread used for resuming a uLL sandbox with P2SM
    # preempts a longer-running function" — ~30 us at the p99.
    merge_thread_preemption_ns: float = 30_000.0
    # Probability, per merge thread, of spilling off the reserved cores,
    # multiplied by the thread count (more threads -> more spills).
    merge_thread_spill_per_thread: float = 0.00003

    # ---- memory model (overhead study, paper §5.2) ----------------------
    # 10 paused sandboxes at 36 vCPUs -> 10 * (1024 + 36*1440) B
    # ~= 528 KB, the paper's measured footprint.
    horse_bytes_per_sandbox: int = 1_024       # per-sandbox descriptors
    horse_bytes_per_vcpu: int = 1_440          # chain node + merge-thread slot

    # --------------------------------------------------------------------
    # Derived helpers
    # --------------------------------------------------------------------
    @property
    def fast_fixed_ns(self) -> float:
        """HORSE fast-path fixed cost (steps 1+2+3 trimmed + finalize)."""
        return self.fast_parse_ns + self.fast_lock_ns + self.fast_sanity_ns

    @property
    def cold_start_ns(self) -> int:
        """Full cold start (paper: ~1.5 s)."""
        return round(
            self.cold_vmm_setup_ns
            + self.cold_guest_boot_ns
            + self.cold_runtime_init_ns
            + self.cold_function_load_ns
        )

    @property
    def restore_ns(self) -> int:
        """FaaSnap-style snapshot restore (paper: ~1300 us)."""
        return round(
            self.restore_snapshot_load_ns
            + self.restore_memory_map_ns
            + self.restore_device_resume_ns
        )

    def merge_cost_ns(self, vcpus: int, scan_steps: int) -> float:
        """Vanilla step-4 cost for *vcpus* insertions with *scan_steps*
        total linked-list hops."""
        if vcpus < 1:
            raise ValueError(f"merge of {vcpus} vCPUs")
        return (
            self.merge_first_vcpu_ns
            + self.merge_warm_vcpu_ns * (vcpus - 1)
            + self.merge_scan_step_ns * scan_steps
        )

    def load_update_cost_ns(self, vcpus: int) -> float:
        """Vanilla step-5 cost: one locked PELT fold per vCPU."""
        if vcpus < 1:
            raise ValueError(f"load update for {vcpus} vCPUs")
        return self.load_update_first_ns + self.load_update_warm_ns * (vcpus - 1)

    def p2sm_merge_cost_ns(self, threads: int) -> float:
        """HORSE step-4 cost: threads run in parallel, so the charged
        time is spawn + one thread's dispatch + its two pointer writes —
        constant in both thread count and list sizes."""
        if threads < 0:
            raise ValueError(f"negative thread count {threads}")
        if threads == 0:
            return self.p2sm_thread_spawn_ns
        return (
            self.p2sm_thread_spawn_ns
            + self.p2sm_thread_dispatch_ns
            + 2 * self.p2sm_pointer_write_ns
        )

    def horse_memory_bytes(self, vcpus: int) -> int:
        """Modeled resident overhead for one paused HORSE sandbox."""
        if vcpus < 0:
            raise ValueError(f"negative vCPU count {vcpus}")
        return self.horse_bytes_per_sandbox + self.horse_bytes_per_vcpu * vcpus


#: Cost model calibrated against the paper's Firecracker/KVM numbers.
FIRECRACKER_COSTS = CostModel(name="firecracker")

#: Xen's toolstack path is heavier (the paper applies the LightVM
#: in-memory XenStore to trim userspace costs; the remaining gap vs KVM
#: is modeled as a uniform ~8 % tax on the vanilla resume path).
XEN_COSTS = replace(
    FIRECRACKER_COSTS,
    name="xen",
    resume_parse_ns=46.0,
    resume_sanity_ns=34.0,
    merge_first_vcpu_ns=776.0,
    load_update_first_ns=259.0,
    cold_guest_boot_ns=float(milliseconds(650)),
)


def cost_model_for(platform: str) -> CostModel:
    """Look up a preset cost model by platform name."""
    presets = {"firecracker": FIRECRACKER_COSTS, "xen": XEN_COSTS}
    try:
        return presets[platform.lower()]
    except KeyError:
        raise ValueError(
            f"unknown platform {platform!r}; expected one of {sorted(presets)}"
        ) from None
