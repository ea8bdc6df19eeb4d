"""Sim-kernel performance gate (the engine behind ``repro bench``).

Benchmarks the hot paths the reproduction's wall-clock lives on and
gates CI on regressions against a committed baseline:

* ``calibration`` — a fixed pure-Python spin loop.  Its score measures
  the *machine*, not the repo: the regression check normalizes every
  other bench by the calibration ratio between the baseline machine and
  the current one, so a slower CI runner does not read as a regression.
* ``engine_heap_chaos`` — event throughput of the engine on the
  chaos study's traffic: a sequence of engine lifetimes (cells), each
  of the measured median length (6,824 pushes) and push mix of a
  full-size chaos engine (DESIGN.md §10): request steps and 1-6 s
  timers with delays drawn from the measured deciles, and 600 s
  keep-alive timers that pile up past the run's end, with the measured
  share of each kind cancelled.  Everything is scheduled through
  ``schedule_at`` / ``schedule_after`` as production code schedules,
  and each cell ends with ``Engine.close()``.
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
     "seed": int, "py": "3.12", "obs": "off"}

``obs`` is ``"on"`` only for the obs-enabled variants.

Noise protocol: each micro-bench runs R rounds and reports the best
(minimum wall time) — the standard estimator for the noise floor on a
shared machine.  The two ratio-gated pairs (obs off/on, serial/sharded)
interleave their rounds round-robin so a CPU-contention burst cannot
land on one side of the ratio only; the obs pair additionally takes
the smaller of two slowdown estimators (paired-ratio median,
best-on/best-off) since noise can only inflate either one — see
:func:`_chaos_pair`.  ``--check`` applies the calibration
normalization and a relative tolerance (default 15 %);
``--max-obs-overhead`` additionally gates the obs-on/obs-off ratio,
which is machine-independent.
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
# One engine lifetime of the chaos study at full size, as measured on
# ``repro experiment chaos`` (seed 0; three engines, 20,054 pushes;
# DESIGN.md §10).  Pushes are of three kinds: request steps (delay under
# 1 s), timers (1-6 s; most fire) and 600 s keep-alive evictions (armed
# past the run's end; most are cancelled, the rest are still pending
# when the engine closes).
#: Median pushes per engine lifetime (engines: 6,175 / 6,824 / 7,055).
_CELL_PUSHES = 6_824
#: Request steps pending at each engine's peak: 14, 15 and 17.
_CHAINS = 15
_TIMER_SHARE = 4_764 / 20_054
_TIMER_CANCELLED = 490 / 4_764
_KEEPALIVE_SHARE = 3_667 / 20_054
_KEEPALIVE_CANCELLED = 3_442 / 3_667
_KEEPALIVE_NS = 600_000_000_000
#: Deciles (minimum to maximum) of the measured delays, ns.
_STEP_DECILES = (
    12_190, 16_306, 17_210, 17_960, 18_877, 157_704, 1_000_000,
    96_420_201, 100_533_635, 104_445_469, 996_738_903,
)
_TIMER_DECILES = (
    1_005_495_097, 1_591_981_426, 1_598_132_093, 1_601_848_827,
    1_608_484_111, 2_083_200_092, 2_949_902_964, 3_671_183_005,
    4_386_029_287, 5_141_657_790, 5_908_250_407,
)


def _from_deciles(rng: random.Random, deciles: Sequence[int]) -> int:
    """A delay drawn uniformly within a uniformly chosen decile."""
    index = rng.randrange(len(deciles) - 1)
    return rng.randint(deciles[index], deciles[index + 1])


def _chaos_pushes(n: int, seed: int) -> List[tuple]:
    """*n* pushes in chaos's measured mix: ``(delay_ns, cancelled)``,
    where *cancelled* marks a timer its owner cancels before it fires."""
    rng = random.Random(seed)
    out: List[tuple] = []
    for _ in range(n):
        kind = rng.random()
        if kind < _KEEPALIVE_SHARE:
            out.append((_KEEPALIVE_NS, rng.random() < _KEEPALIVE_CANCELLED))
        elif kind < _KEEPALIVE_SHARE + _TIMER_SHARE:
            delay = _from_deciles(rng, _TIMER_DECILES)
            out.append((delay, rng.random() < _TIMER_CANCELLED))
        else:
            out.append((_from_deciles(rng, _STEP_DECILES), False))
    return out


def _expire() -> None:
    """A timer firing: its owner's work is out of the bench's scope."""


def _never() -> None:
    raise AssertionError("a keep-alive timer fired inside the bench horizon")


def _drive_cell(pushes: List[tuple], seed: int) -> int:
    """One engine's life, as a chaos cell lives it: ``_CHAINS`` request
    chains consume *pushes*, each step arming the timers that precede
    its next step and cancelling those the previous step doomed; the
    engine runs to the keep-alive horizon and closes with the surviving
    keep-alives pending.  Returns the events fired."""
    from repro.sim.engine import Engine

    engine = Engine()
    pending = iter(pushes)
    schedule = engine.schedule_after
    doomed: list = []

    def tick() -> None:
        for event in doomed:
            event.cancel()
        doomed.clear()
        for delay, cancelled in pending:
            if delay < _TIMER_DECILES[0]:
                schedule(delay, tick, transient=True)
                return
            event = schedule(delay, _never if delay == _KEEPALIVE_NS else _expire)
            if cancelled:
                doomed.append(event)

    rng = random.Random(seed)
    for _ in range(_CHAINS):
        engine.schedule_at(_from_deciles(rng, _STEP_DECILES), tick, transient=True)
    executed = engine.run(until=_KEEPALIVE_NS - 1)
    engine.close()
    return executed


#: Interleaved-pair measurement cache, keyed on (pair, quick, seed).
#: The obs-overhead and shard-speedup gates are *ratios* of two
#: wall-clock measurements; running the two sides as separate
#: back-to-back benches lets a noise burst land on one side only and
#: swing the ratio past the gate budget.  Round-robin interleaving
#: gives both sides of each ratio the same quiet windows, so
#: best-of-rounds converges on the code difference rather than the
#: neighbours' CPU bursts.  Requesting either member of a pair measures
#: both (the partner is cached).
_PAIR_CACHE: Dict[tuple, Dict[str, Dict[str, object]]] = {}


def bench_engine_heap(quick: bool, seed: int) -> Dict[str, object]:
    """Engine lifetimes in the chaos study's measured shape; quick mode
    runs fewer of the same cells, so its rate compares with a full-mode
    baseline."""
    n_events = 150_000 if quick else 500_000
    rounds = 3 if quick else 5
    pushes = _chaos_pushes(n_events, seed)
    cells = [
        pushes[start:start + _CELL_PUSHES]
        for start in range(0, n_events - _CELL_PUSHES + 1, _CELL_PUSHES)
    ]
    wall = float("inf")
    for _ in range(rounds):  # best-of-rounds: identical work, min wall
        start = time.perf_counter()
        executed = sum(
            _drive_cell(cell, seed + index) for index, cell in enumerate(cells)
        )
        wall = min(wall, time.perf_counter() - start)
    return {"events_per_sec": executed / wall, "wall_s": wall}


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
    return {"events_per_sec": events / best, "wall_s": best}


BENCHES: Dict[str, Callable[[bool, int], Dict[str, object]]] = {
    "calibration": bench_calibration,
    "engine_heap_chaos": bench_engine_heap,
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
    max_obs_overhead: Optional[float] = None,
    require_shard_speedup: Optional[float] = None,
    log: Callable[[str], None] = print,
) -> bool:
    """True when no bench regressed beyond *tolerance*.

    Scores are normalized by the calibration ratio between the two
    machines before comparison; the optional obs-overhead and
    shard-speedup gates are pure same-machine ratios
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
            max_obs_overhead=args.max_obs_overhead,
            require_shard_speedup=args.require_shard_speedup,
        )
        return 0 if ok else 1
    if (
        args.max_obs_overhead is not None
        or args.require_shard_speedup is not None
    ):
        ok = check_against_baseline(
            rows, [], tolerance=args.tolerance,
            max_obs_overhead=args.max_obs_overhead,
            require_shard_speedup=args.require_shard_speedup,
        )
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
