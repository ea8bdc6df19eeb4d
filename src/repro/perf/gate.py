"""Sim-kernel performance gate (the engine behind ``repro bench``).

Benchmarks the hot paths the reproduction's wall-clock lives on and
gates CI on regressions against a committed baseline:

* ``calibration`` — a fixed pure-Python spin loop.  Its score measures
  the *machine*, not the repo: the regression check normalizes every
  other bench by the calibration ratio between the baseline machine and
  the current one, so a slower CI runner does not read as a regression.
* ``engine_heap_chaos`` / ``engine_calendar_chaos`` — event throughput
  of the two schedulers on the chaos profile: a closed-loop driver
  holding a cluster-scale outstanding set (tens of thousands of pending
  events, the regime the ROADMAP's cluster studies run in) with the
  chaos study's delay mix (same-instant wake-ups, µs-scale request
  steps, ms-scale background timers).  The committed baseline pins the
  calendar scheduler at ≥2× the heap on this profile.
* ``p2sm_merge`` — the P²SM precompute + merge pipeline on the real
  linked-list structures (elements merged per second).
* ``coalesced_load`` — the fused load-update path: precompute the
  n-fold affine composition and apply it (fused updates per second).
* ``chaos_e2e`` / ``cluster_study_e2e`` — end-to-end wall-clock of the
  chaos study and the cluster placement study at reduced size.  For
  these, "events" are completed client requests / function triggers.
* ``chaos_e2e_obs_on`` — the same chaos study with a live metric
  registry attached, so the ``obs.enabled`` guards take the
  instrumented branch.  Its ratio against ``chaos_e2e`` is the
  observability overhead ``--max-obs-overhead`` gates.
* ``cluster_sharded`` / ``cluster_sharded_serial`` — the sharded chaos
  study (DESIGN.md §12) at 4 worker processes vs 1.  Identical model,
  identical results (that is the shard-invariance contract); only the
  worker layout differs, so their events/sec ratio is the parallel
  scaling ``--require-shard-speedup`` gates.  The rows carry extra
  ``shards`` and ``cores`` fields; the gate skips itself (loudly) on
  machines with fewer cores than workers, where real scaling is
  physically unmeasurable.

Output rows follow the ``BENCH_sim_kernel.json`` schema::

    {"bench": str, "events_per_sec": float, "wall_s": float,
     "seed": int, "py": "3.12", "scheduler": "calendar", "obs": "off"}

``scheduler`` records what the bench actually ran on: the engine
benches pin their kind, benches that never touch the engine say
``"none"``, and end-to-end benches inherit the process default.
``obs`` is ``"on"`` only for the obs-enabled variants.

Noise protocol: each micro-bench runs R rounds and reports the best
(minimum wall time) — the standard estimator for the noise floor on a
shared machine.  The two ratio-gated pairs (heap/calendar, obs
off/on) interleave their rounds round-robin so a CPU-contention burst
cannot land on one side of the ratio only; the obs pair additionally
takes the smaller of two slowdown estimators (paired-ratio median,
best-on/best-off) since noise can only inflate either one — see
:func:`_chaos_pair`.  ``--check`` applies the
calibration normalization and a relative tolerance (default 15 %);
``--require-speedup`` additionally gates the calendar/heap ratio and
``--max-obs-overhead`` the obs-on/obs-off ratio, both
machine-independent.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

#: Default baseline path, resolved relative to the working directory
#: (CI runs from the repo root).
BENCH_BASELINE = "BENCH_sim_kernel.json"

_PY = f"{sys.version_info.major}.{sys.version_info.minor}"


# ----------------------------------------------------------------------
# Workload generators (deterministic per seed)
# ----------------------------------------------------------------------
def _chaos_deltas(n: int, seed: int) -> List[int]:
    """The chaos profile's inter-event delay mix (ns)."""
    rng = random.Random(seed)
    out: List[int] = []
    for _ in range(n):
        r = rng.random()
        if r < 0.40:
            out.append(0)  # same-instant hops (wake-ups, spawns)
        elif r < 0.85:
            out.append(rng.randrange(1_000, 100_000))  # request path
        else:
            out.append(rng.randrange(1_000_000, 10_000_000))  # background
    return out


def _drive_engine(
    kind: str, outstanding: int, deltas: List[int], spread: int, seed: int
) -> float:
    """One closed-loop run; returns events/sec."""
    from repro.sim.engine import Engine

    engine = Engine(scheduler=kind)
    pending = iter(deltas[outstanding:])
    schedule = engine.schedule_transient_after

    def tick() -> None:
        delay = next(pending, None)
        if delay is not None:
            schedule(delay, tick)

    rng = random.Random(seed ^ 1)
    for _ in range(outstanding):
        engine.schedule_transient_after(rng.randrange(spread), tick)
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    return engine.events_executed / elapsed


#: Interleaved-pair measurement cache, keyed on (quick, seed).  The
#: speedup and obs-overhead gates are *ratios* of two wall-clock
#: measurements; running the two sides as separate back-to-back benches
#: lets a noise burst land on one side only and swing the ratio past
#: the gate budget.  Round-robin interleaving gives both sides of each
#: ratio the same quiet windows, so best-of-rounds converges on the
#: code difference rather than the neighbours' CPU bursts.  Requesting
#: either member of a pair measures both (the partner is cached).
_PAIR_CACHE: Dict[tuple, Dict[str, Dict[str, object]]] = {}


def _engine_pair(quick: bool, seed: int) -> Dict[str, Dict[str, object]]:
    key = ("engine", quick, seed)
    cached = _PAIR_CACHE.get(key)
    if cached is not None:
        return cached
    outstanding = 8192 if quick else 32768
    n_events = 150_000 if quick else 500_000
    rounds = 3 if quick else 5
    # Initial events spread so steady-state density matches the closed
    # loop's own (~0.4 events/µs of simulated time).
    spread = outstanding * 2500
    deltas = _chaos_deltas(n_events, seed)
    best = {"heap": 0.0, "calendar": 0.0}
    for _ in range(rounds):
        for kind in best:
            best[kind] = max(
                best[kind],
                _drive_engine(kind, outstanding, deltas, spread, seed),
            )
    pair = {
        kind: {
            "events_per_sec": eps,
            "wall_s": n_events / eps,
            "scheduler": kind,
        }
        for kind, eps in best.items()
    }
    _PAIR_CACHE[key] = pair
    return pair


def bench_engine_heap(quick: bool, seed: int) -> Dict[str, object]:
    return dict(_engine_pair(quick, seed)["heap"])


def bench_engine_calendar(quick: bool, seed: int) -> Dict[str, object]:
    return dict(_engine_pair(quick, seed)["calendar"])


def bench_calibration(quick: bool, seed: int) -> Dict[str, object]:
    """Fixed integer-arithmetic spin; measures the interpreter+machine."""
    iterations = 2_000_000 if quick else 5_000_000
    rounds = 3
    best = float("inf")
    for _ in range(rounds):
        accumulator = seed & 0xFFFF
        start = time.perf_counter()
        for i in range(iterations):
            accumulator = (accumulator * 31 + i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - start)
    return {
        "events_per_sec": iterations / best,
        "wall_s": best,
        "scheduler": "none",
    }


def bench_p2sm_merge(quick: bool, seed: int) -> Dict[str, float]:
    from repro.core.linked_list import SortedLinkedList
    from repro.core.p2sm import P2SMState

    size_b, size_a = 256, 64
    iterations = 60 if quick else 300
    best_timed = float("inf")
    merged = 0
    for _ in range(3):  # best-of-rounds: identical work, min wall
        rng = random.Random(seed)
        target: SortedLinkedList[float] = SortedLinkedList(
            key=lambda value: value
        )
        base_values = sorted(rng.uniform(0, 1000) for _ in range(size_b))
        for value in base_values:
            target.insert_sorted(value)
        merged = 0
        timed = 0.0
        for _ in range(iterations):
            values_a = [rng.uniform(0, 1000) for _ in range(size_a)]
            start = time.perf_counter()
            state = P2SMState(values_a, target)  # precompute phase
            report = state.merge()  # Algorithm 1
            timed += time.perf_counter() - start
            merged += report.merged_elements
            for value in values_a:  # untimed restore to steady state
                target.remove(value)
        best_timed = min(best_timed, timed)
    return {
        "events_per_sec": merged / best_timed,
        "wall_s": best_timed,
        "scheduler": "none",
    }


def bench_coalesced_load(quick: bool, seed: int) -> Dict[str, float]:
    from repro.core.coalesce import AffineUpdate

    iterations = 50_000 if quick else 200_000
    vcpus = 32
    update = AffineUpdate(alpha=0.9785, beta=1.5)
    best = float("inf")
    for _ in range(3):  # best-of-rounds: identical work, min wall
        load = float(seed % 97) + 1.0
        start = time.perf_counter()
        for _ in range(iterations):
            load = update.compose_n(vcpus).apply(load) % 1000.0
        best = min(best, time.perf_counter() - start)
    return {
        "events_per_sec": iterations / best,
        "wall_s": best,
        "scheduler": "none",
    }


def _chaos_pair(quick: bool, seed: int) -> Dict[str, Dict[str, object]]:
    """Interleaved obs-off/obs-on chaos study wall clock.

    The obs-on rounds use the null tracer + a real
    :class:`MetricRegistry`: every ``obs.enabled`` guard takes the
    instrumented branch and every counter/histogram update does real
    work, without the unbounded span-retention cost of a full tracer.
    """
    key = ("chaos", quick, seed)
    cached = _PAIR_CACHE.get(key)
    if cached is not None:
        return cached
    from repro.experiments.chaos import ChaosConfig, run_chaos
    from repro.obs import MetricRegistry, NULL_TRACER, Observability, activate

    config = ChaosConfig(hosts=2, requests=400 if quick else 1200, seed=seed)
    # Five rounds even in quick mode: the median needs enough paired
    # samples to discard two noisy rounds, and the quick study is cheap.
    rounds = 5
    walls_off: List[float] = []
    walls_on: List[float] = []
    ratios: List[float] = []
    outcomes = 0
    for _ in range(rounds):
        start = time.perf_counter()
        result = run_chaos(config)
        wall_off = time.perf_counter() - start
        with activate(Observability(NULL_TRACER, MetricRegistry())):
            start = time.perf_counter()
            result = run_chaos(config)
            wall_on = time.perf_counter() - start
        walls_off.append(wall_off)
        walls_on.append(wall_on)
        ratios.append(wall_on / wall_off)
        outcomes = len(result.outcomes)
    requests = config.requests * outcomes
    best_off = min(walls_off)
    # The gate reads the obs overhead as the eps ratio of the two rows,
    # so the on-row is derived from the off-best and a slowdown
    # estimate.  Two estimators, take the smaller:
    #
    # * the *median* of the per-round paired ratios — each ratio
    #   compares two runs from the same window, and the median discards
    #   rounds where a burst straddled the pair boundary;
    # * *best-on over best-off* — each min independently converges to
    #   that variant's noise-free floor given enough rounds.
    #
    # Noise on a shared machine only ever inflates a wall clock, so
    # each estimator errs high when its assumption breaks (a majority
    # of noisy rounds for the median, too few clean rounds for the
    # mins).  A real instrumentation regression shifts the whole obs-on
    # distribution and therefore moves *both* estimators; taking the
    # min keeps the gate from tripping when only one is contaminated.
    slowdown = min(sorted(ratios)[len(ratios) // 2], min(walls_on) / best_off)
    pair = {
        "off": {"events_per_sec": requests / best_off, "wall_s": best_off},
        "on": {
            "events_per_sec": requests / (best_off * slowdown),
            "wall_s": best_off * slowdown,
            "obs": "on",
        },
    }
    _PAIR_CACHE[key] = pair
    return pair


def bench_chaos_e2e(quick: bool, seed: int) -> Dict[str, object]:
    return dict(_chaos_pair(quick, seed)["off"])


def bench_chaos_e2e_obs_on(quick: bool, seed: int) -> Dict[str, object]:
    """The chaos study with live metrics attached (obs-enabled path).

    The machine-independent ratio against ``chaos_e2e`` is what
    ``--max-obs-overhead`` gates; see :func:`_chaos_pair` for why the
    two variants are measured interleaved.
    """
    return dict(_chaos_pair(quick, seed)["on"])


def _available_cores() -> int:
    """CPU cores this process may use (affinity-aware where possible)."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


#: Worker count for the parallel side of the sharded pair — matches the
#: CI runner's core count; the speedup gate skips below this.
_SHARD_WORKERS = 4


def _sharded_pair(quick: bool, seed: int) -> Dict[str, Dict[str, object]]:
    """Interleaved serial/parallel sharded-study wall clock.

    Both sides run the identical model (one mode, 8 cells) — the
    shard-invariance contract guarantees identical results — so the
    events/sec ratio isolates the worker-process scaling.  Rounds are
    interleaved like the other ratio pairs: a contention burst lands on
    both sides of the ratio or neither.
    """
    key = ("sharded", quick, seed)
    cached = _PAIR_CACHE.get(key)
    if cached is not None:
        return cached
    from repro.experiments.sharded_chaos import (
        ShardedChaosConfig,
        run_sharded_chaos,
    )

    config = ShardedChaosConfig(
        groups=8, hosts=2, requests=2400 if quick else 6000, seed=seed
    )
    rounds = 2 if quick else 3
    best = {"serial": float("inf"), "parallel": float("inf")}
    events = 0
    for _ in range(rounds):
        for side, shards in (("serial", 1), ("parallel", _SHARD_WORKERS)):
            start = time.perf_counter()
            result = run_sharded_chaos(
                config, shards=shards, modes=("breaker",)
            )
            best[side] = min(best[side], time.perf_counter() - start)
            events = result.events_executed
    cores = _available_cores()
    pair = {
        side: {
            "events_per_sec": events / wall,
            "wall_s": wall,
            "shards": 1 if side == "serial" else _SHARD_WORKERS,
            "cores": cores,
        }
        for side, wall in best.items()
    }
    _PAIR_CACHE[key] = pair
    return pair


def bench_cluster_sharded(quick: bool, seed: int) -> Dict[str, object]:
    """The sharded chaos study on 4 worker processes.

    Its ratio against ``cluster_sharded_serial`` is what
    ``--require-shard-speedup`` gates; see :func:`_sharded_pair`.
    """
    return dict(_sharded_pair(quick, seed)["parallel"])


def bench_cluster_sharded_serial(quick: bool, seed: int) -> Dict[str, object]:
    return dict(_sharded_pair(quick, seed)["serial"])


def bench_cluster_study_e2e(quick: bool, seed: int) -> Dict[str, object]:
    from repro.experiments.cluster_study import run_cluster_study

    best = float("inf")
    triggers = 0
    for _ in range(3):  # best-of-rounds: identical work, min wall
        start = time.perf_counter()
        result = run_cluster_study(
            hosts=2, functions=4, duration_s=30.0 if quick else 120.0,
            seed=seed,
        )
        best = min(best, time.perf_counter() - start)
        triggers = sum(
            result.outcome(policy).triggers for policy in result.policies()
        )
    return {"events_per_sec": triggers / best, "wall_s": best}


def bench_replay_e2e(quick: bool, seed: int) -> Dict[str, object]:
    """Streaming trace replay + hybrid prewarm policy, end to end.

    Measures replayed arrivals per second through the full stack:
    per-function arrival generators, the bounded-memory heap merge, and
    the capacity-model cell simulator (histograms, LRU, lifecycle
    timers).  Scale is chosen so the quick mode stays near a second.
    """
    from repro.faas.prewarm import PrewarmConfig, run_replay
    from repro.traces.replay import ReplayConfig

    config = PrewarmConfig(
        replay=ReplayConfig(
            functions=2000 if quick else 10000,
            duration_s=900.0 if quick else 1800.0,
            seed=seed,
        ),
        policy="hybrid",
        memory_budget_mb=8192.0 if quick else 32768.0,
    )
    best = float("inf")
    events = 0
    for _ in range(3):  # best-of-rounds: identical work, min wall
        start = time.perf_counter()
        result = run_replay(config)
        best = min(best, time.perf_counter() - start)
        events = result.events
    # No Engine involved: the replayer is its own event loop.
    return {"events_per_sec": events / best, "wall_s": best, "scheduler": "none"}


BENCHES: Dict[str, Callable[[bool, int], Dict[str, object]]] = {
    "calibration": bench_calibration,
    "engine_heap_chaos": bench_engine_heap,
    "engine_calendar_chaos": bench_engine_calendar,
    "p2sm_merge": bench_p2sm_merge,
    "coalesced_load": bench_coalesced_load,
    "chaos_e2e": bench_chaos_e2e,
    "chaos_e2e_obs_on": bench_chaos_e2e_obs_on,
    "cluster_study_e2e": bench_cluster_study_e2e,
    "replay_e2e": bench_replay_e2e,
    "cluster_sharded_serial": bench_cluster_sharded_serial,
    "cluster_sharded": bench_cluster_sharded,
}


def run_benches(
    quick: bool = False,
    seed: int = 7,
    only: Optional[Sequence[str]] = None,
    log: Callable[[str], None] = lambda line: None,
) -> List[Dict[str, object]]:
    """Run the suite; returns rows in the BENCH_sim_kernel schema."""
    names = list(BENCHES) if only is None else list(only)
    for name in names:
        if name not in BENCHES:
            raise ValueError(
                f"unknown bench {name!r}; choose from {', '.join(BENCHES)}"
            )
    from repro.sim.engine import default_scheduler

    rows: List[Dict[str, object]] = []
    for name in names:
        log(f"running {name} ...")
        measured = BENCHES[name](quick, seed)
        row: Dict[str, object] = {
            "bench": name,
            "events_per_sec": round(float(measured["events_per_sec"]), 1),
            "wall_s": round(float(measured["wall_s"]), 4),
            "seed": seed,
            "py": _PY,
            # Benches that never touch the engine report "none";
            # the engine benches pin their own kind; everything
            # else runs on the process default.
            "scheduler": measured.get("scheduler", default_scheduler()),
            "obs": measured.get("obs", "off"),
        }
        # The sharded pair additionally records its worker layout and
        # the machine's core budget (the speedup gate is core-aware).
        for extra in ("shards", "cores"):
            if extra in measured:
                row[extra] = measured[extra]
        rows.append(row)
        log(
            f"  {name}: {rows[-1]['events_per_sec']:,.0f} events/s "
            f"({rows[-1]['wall_s']:.3f} s)"
        )
    return rows


# ----------------------------------------------------------------------
# Regression check
# ----------------------------------------------------------------------
def check_against_baseline(
    rows: List[Dict[str, object]],
    baseline_rows: List[Dict[str, object]],
    tolerance: float = 0.15,
    require_speedup: Optional[float] = None,
    max_obs_overhead: Optional[float] = None,
    require_shard_speedup: Optional[float] = None,
    log: Callable[[str], None] = print,
) -> bool:
    """True when no bench regressed beyond *tolerance*.

    Scores are normalized by the calibration ratio between the two
    machines before comparison; the optional calendar/heap speedup,
    obs-overhead, and shard-speedup gates are pure same-machine ratios
    and need no normalization.  The shard-speedup gate skips (with a
    log line, never a failure) when the machine has fewer cores than
    the parallel side's workers — on such machines the ratio measures
    the core budget, not the code.
    """
    current = {str(row["bench"]): row for row in rows}
    baseline = {str(row["bench"]): row for row in baseline_rows}
    factor = 1.0
    if "calibration" in current and "calibration" in baseline:
        factor = float(current["calibration"]["events_per_sec"]) / float(
            baseline["calibration"]["events_per_sec"]
        )
        log(f"calibration factor (this machine / baseline): {factor:.3f}")
    ok = True
    for name, row in current.items():
        if name == "calibration" or name not in baseline:
            continue
        measured = float(row["events_per_sec"])
        expected = float(baseline[name]["events_per_sec"]) * factor
        floor = expected * (1.0 - tolerance)
        verdict = "ok" if measured >= floor else "REGRESSED"
        if measured < floor:
            ok = False
        log(
            f"{name:24s} {measured:14,.0f} ev/s vs normalized baseline "
            f"{expected:14,.0f} (floor {floor:14,.0f}) {verdict}"
        )
    if require_speedup is not None:
        heap = current.get("engine_heap_chaos")
        calendar = current.get("engine_calendar_chaos")
        if heap is None or calendar is None:
            log("speedup gate skipped: engine benches not in this run")
        else:
            ratio = float(calendar["events_per_sec"]) / float(
                heap["events_per_sec"]
            )
            verdict = "ok" if ratio >= require_speedup else "BELOW TARGET"
            if ratio < require_speedup:
                ok = False
            log(
                f"calendar/heap speedup {ratio:.2f}x "
                f"(required {require_speedup:.2f}x) {verdict}"
            )
    if max_obs_overhead is not None:
        obs_off = current.get("chaos_e2e")
        obs_on = current.get("chaos_e2e_obs_on")
        if obs_off is None or obs_on is None:
            log("obs-overhead gate skipped: chaos_e2e benches not in this run")
        else:
            overhead = 1.0 - float(obs_on["events_per_sec"]) / float(
                obs_off["events_per_sec"]
            )
            verdict = "ok" if overhead <= max_obs_overhead else "OVER BUDGET"
            if overhead > max_obs_overhead:
                ok = False
            log(
                f"obs-enabled chaos overhead {overhead * 100:.2f}% "
                f"(budget {max_obs_overhead * 100:.2f}%) {verdict}"
            )
    if require_shard_speedup is not None:
        serial = current.get("cluster_sharded_serial")
        sharded = current.get("cluster_sharded")
        if serial is None or sharded is None:
            log("shard-speedup gate skipped: sharded benches not in this run")
        else:
            cores = int(sharded.get("cores", _available_cores()))
            workers = int(sharded.get("shards", _SHARD_WORKERS))
            if cores < workers:
                log(
                    f"shard-speedup gate skipped: {cores} core(s) available, "
                    f"{workers} workers needed to measure scaling"
                )
            else:
                ratio = float(sharded["events_per_sec"]) / float(
                    serial["events_per_sec"]
                )
                verdict = (
                    "ok" if ratio >= require_shard_speedup else "BELOW TARGET"
                )
                if ratio < require_shard_speedup:
                    ok = False
                log(
                    f"sharded/serial speedup {ratio:.2f}x at {workers} workers "
                    f"on {cores} cores (required {require_shard_speedup:.2f}x) "
                    f"{verdict}"
                )
    return ok


# ----------------------------------------------------------------------
# Entry point (shared by benchmarks/perf_gate.py and ``repro bench``)
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perf_gate",
        description="sim-kernel benchmarks and the CI regression gate",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sizes/rounds (the CI configuration)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--benches", type=str, default=None, metavar="A,B,...",
        help=f"comma-separated subset of: {', '.join(BENCHES)}",
    )
    parser.add_argument(
        "--write", type=str, default=None, metavar="PATH",
        help="write rows as JSON (use to refresh the committed baseline)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=f"compare against the baseline (default {BENCH_BASELINE})",
    )
    parser.add_argument(
        "--baseline", type=str, default=BENCH_BASELINE, metavar="PATH",
        help="baseline JSON for --check",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.15,
        help="allowed relative regression after normalization (default 0.15)",
    )
    parser.add_argument(
        "--require-speedup", type=float, default=None, metavar="X",
        help="fail unless calendar/heap events/sec ratio is >= X",
    )
    parser.add_argument(
        "--max-obs-overhead", type=float, default=None, metavar="F",
        help="fail if the obs-enabled chaos run is more than F (fraction, "
        "e.g. 0.05) slower than the obs-off run",
    )
    parser.add_argument(
        "--require-shard-speedup", type=float, default=None, metavar="X",
        help="fail unless cluster_sharded/cluster_sharded_serial events/sec "
        "is >= X (skipped when the machine has fewer cores than workers)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run_gate(build_parser().parse_args(argv))


def run_gate(args: argparse.Namespace) -> int:
    """Run the benches *args* (parsed by :func:`build_parser`) selects
    and apply the gates it names; returns the exit code."""
    only = args.benches.split(",") if args.benches else None
    try:
        rows = run_benches(quick=args.quick, seed=args.seed, only=only, log=print)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(json.dumps(rows, indent=2))
    if args.write:
        with open(args.write, "w") as handle:
            json.dump(rows, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.write}")
    if args.check:
        try:
            with open(args.baseline) as handle:
                baseline_rows = json.load(handle)
        except OSError as exc:
            print(f"cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2
        ok = check_against_baseline(
            rows,
            baseline_rows,
            tolerance=args.tolerance,
            require_speedup=args.require_speedup,
            max_obs_overhead=args.max_obs_overhead,
            require_shard_speedup=args.require_shard_speedup,
        )
        return 0 if ok else 1
    if (
        args.require_speedup is not None
        or args.max_obs_overhead is not None
        or args.require_shard_speedup is not None
    ):
        ok = check_against_baseline(
            rows, [], tolerance=args.tolerance,
            require_speedup=args.require_speedup,
            max_obs_overhead=args.max_obs_overhead,
            require_shard_speedup=args.require_shard_speedup,
        )
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
