"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``report``       — run the full evaluation, print/write Markdown;
* ``experiment``   — run one paper artifact and print its table/series;
* ``list``         — list experiment ids, titles, runtime estimates;
* ``trace``        — run one artifact under the observability layer and
  export Perfetto-loadable Chrome JSON + lossless JSONL traces;
* ``check``        — run one artifact under the correctness harness
  (invariants on every engine, host and pool it builds; figure3 adds
  differential oracles and optional fault injection);
* ``chaos``        — run the cluster chaos study under seeded
  infrastructure failures (crashes, resume faults) and compare
  resilience modes;
* ``profile``      — run one experiment under the deterministic
  subsystem profiler; write flamegraph-ready folded stacks plus a
  machine-readable hotspot table;
* ``bench``        — run the sim-kernel performance gate;
* ``demo``         — the quickstart comparison of the four start paths.

The ``experiment``/``list``/``trace``/``profile``/``check``/``report``/
``validate`` commands drive off the experiment registry
(:mod:`repro.experiments.registry`): a new entry in its table of
:class:`~repro.experiments.registry.ExperimentSpec` data (driver,
renderer, fast-mode arguments), over a result that owns its
``rows()``, makes it runnable and listable here with no CLI change.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import Optional, Sequence

from repro.experiments.registry import ExperimentConfig, all_specs, experiment_ids
from repro.experiments.registry import get as get_experiment


def _run_in_context(
    args: argparse.Namespace, obs, **context
) -> Optional[str]:
    """Run registry spec ``args.name`` under one run context and return
    its rendered summary (None, said on stderr, for an unknown id or a
    ``--platform`` the spec does not model).

    ``trace``, ``profile`` and ``check`` are three views of this one
    run: each chooses only what the context holds (the obs bundle, a
    profiler, an invariant registry) and which artifacts it writes.
    """
    from repro.obs.context import activate

    try:
        run = get_experiment(args.name).bind(
            ExperimentConfig(fast=args.fast, seed=args.seed, platform=args.platform)
        )
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return None
    with activate(obs, **context):
        return run().summary()


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    report = generate_report(ExperimentConfig(fast=args.fast, seed=args.seed))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    try:
        run = get_experiment(args.name).bind(
            ExperimentConfig(
                fast=args.fast,
                seed=args.seed,
                platform=args.platform,
                shards=args.shards,
            )
        )
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    result = run()
    if args.json:
        print(result.to_json())
    else:
        print(f"== {result.spec.title} ({args.platform}) ==\n")
        print(result.summary())
    # Results with a soundness verdict (the chaos family) fail the command.
    return 0 if getattr(result.raw, "ok", True) else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one experiment instrumented and export its traces."""
    from repro.obs import Observability, write_chrome_trace, write_jsonl

    obs = Observability()
    rendered = _run_in_context(args, obs)
    if rendered is None:
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    chrome_path = os.path.join(args.out_dir, f"{args.name}.trace.json")
    jsonl_path = os.path.join(args.out_dir, f"{args.name}.trace.jsonl")
    write_chrome_trace(obs.tracer, chrome_path)
    write_jsonl(obs.tracer, jsonl_path)
    print(rendered)
    print()
    print(f"== metrics ({len(obs.tracer)} spans) ==")
    print(obs.metrics.render())
    print()
    print(f"wrote {chrome_path} (load in Perfetto / chrome://tracing)")
    print(f"wrote {jsonl_path}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Run one experiment under the correctness harness.

    Every engine, host and sandbox pool the run builds is checked;
    ``figure3`` checks its own pause/resume cycles under the oracles
    and the ``--fault`` plan.  Exit status 0 means every invariant held
    and every oracle agreed (and, with ``--fault``, that each planned
    fault found an eligible cycle); 1 means violations were reported —
    which is the *expected* outcome of a fault-injection run.
    """
    from repro.check import (
        DEFAULT_MAX_ULPS,
        FaultPlan,
        FaultSpec,
        InvariantRegistry,
        check_figure3,
        report_run,
    )
    from repro.obs import Observability, activate

    if args.name not in experiment_ids():
        print(
            f"experiment {args.name!r} has no checked runner; "
            f"choose from {', '.join(experiment_ids())}",
            file=sys.stderr,
        )
        return 2
    if args.fault and args.name != "figure3":
        print(
            f"--fault: only figure3 takes faults, not {args.name!r}",
            file=sys.stderr,
        )
        return 2
    if args.max_ulps is not None and args.name != "figure3":
        print(
            f"--max-ulps: only figure3 takes a ULP budget, not {args.name!r}",
            file=sys.stderr,
        )
        return 2
    obs = Observability()
    if args.name != "figure3":
        invariants = InvariantRegistry(obs=obs)
        if _run_in_context(args, obs, invariants=invariants) is None:
            return 2
        report = report_run(args.name, args.platform, invariants)
    else:
        try:
            specs = tuple(FaultSpec(kind) for kind in args.fault)
            with activate(obs):
                report = check_figure3(
                    fast=args.fast,
                    platform=args.platform,
                    seed=args.seed,
                    fault_plan=FaultPlan(seed=args.seed, specs=specs),
                    max_ulps=(
                        DEFAULT_MAX_ULPS if args.max_ulps is None
                        else args.max_ulps
                    ),
                )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    print(report.render())
    return 0 if report.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos experiment under seeded failure injection.

    Exit status 0 means every mode was sound: all submitted requests
    reached a terminal state (completed / shed / failed — none lost)
    and every resilience invariant held; 1 means a mode reported
    violations.  Output is deterministic: two runs with the same seed
    and flags are byte-identical (the CI chaos job diffs them).

    With ``--shards N`` the run uses the sharded engine (DESIGN.md
    §12): the cluster becomes ``--groups`` failure-domain cells, each
    on its own engine, distributed over N worker processes.  The
    worker count never appears in the output — same seed, same flags
    ⇒ byte-identical stdout and ``--trace-out`` JSONL for ANY N (the
    CI shard job diffs N ∈ {1, 2, 4}).

    With ``--gateways N`` the run exercises the crash-recoverable
    control plane instead (DESIGN.md §14): each cell gets N gateway
    shards behind a consistent-hash router, ``--gateway-failure-rate``
    crashes whole shards, and recovery replays their intent logs.
    Every run asserts the exactly-once invariants; with
    ``--failure-rate 0`` the differential oracle additionally requires
    outcome-identity against a same-seed zero-gateway-failure twin.
    The byte-identity contract is unchanged: same seed and flags ⇒
    identical output for any ``--shards``.
    """
    from repro.experiments.chaos import (
        CHAOSABLE,
        ChaosConfig,
        render_chaos,
        run_chaos,
    )

    if args.name not in CHAOSABLE:
        print(
            f"experiment {args.name!r} has no chaos runner; "
            f"choose from {', '.join(CHAOSABLE)}",
            file=sys.stderr,
        )
        return 2
    from repro.resilience.policies import default_dispatch_policy
    from repro.sim.sharding import write_records_jsonl

    shape = dict(
        hosts=args.hosts,
        failure_rate=args.failure_rate,
        requests=args.requests,
        seed=args.seed,
        dispatch=args.dispatch or default_dispatch_policy(),
    )
    if args.gateways is not None:
        from repro.experiments.cluster_recovery import (
            ClusterRecoveryConfig as config_type,
            render_recovery as render,
            run_recovery,
        )

        shape.update(
            groups=args.groups,
            gateways=args.gateways,
            gateway_failure_rate=args.gateway_failure_rate,
        )
        run = partial(run_recovery, shards=args.shards or 1)
    elif args.shards is not None:
        from repro.experiments.sharded_chaos import (
            ShardedChaosConfig as config_type,
            render_sharded_chaos as render,
            run_sharded_chaos,
        )

        shape.update(groups=args.groups)
        run = partial(run_sharded_chaos, shards=args.shards)
    elif args.trace_out:
        print("--trace-out requires --shards", file=sys.stderr)
        return 2
    else:
        config_type, render, run = ChaosConfig, render_chaos, run_chaos
    try:
        result = run(config_type(**shape))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render(result))
    if args.trace_out:
        write_records_jsonl(result.records, args.trace_out)
        print(f"wrote {args.trace_out}", file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    """Stream an Azure-scale synthetic trace through a prewarm policy.

    The replayer is bounded-memory (DESIGN.md §13): it heap-merges lazy
    per-function arrival generators holding at most one pending event
    per function, so ``--functions 50000 --hours 1`` runs in a flat
    memory footprint.  Output is deterministic: same seed and flags ⇒
    byte-identical stdout for ANY ``--shards`` (the CI replay job diffs
    same-seed runs and worker counts).
    """
    from repro.faas.keepalive import default_prewarm_policy
    from repro.faas.prewarm import PrewarmConfig, render_replay, run_replay
    from repro.traces.replay import ReplayConfig

    try:
        config = PrewarmConfig(
            replay=ReplayConfig(
                functions=args.functions,
                duration_s=args.hours * 3600.0,
                seed=args.seed,
            ),
            policy=args.policy or default_prewarm_policy(),
            memory_budget_mb=args.memory_budget,
            sandbox_mb=args.sandbox_mb,
            groups=args.groups,
            warmup_s=args.warmup_s,
        )
        result = run_replay(config, shards=args.shards)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render_replay(result))
    return 0 if not result.violations() else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile one experiment with the deterministic subsystem profiler.

    Any registry experiment id profiles as one phase named after it;
    ``chaos`` names one phase per resilience mode.  Engines built while
    the profiler is in the run context route dispatch through the
    profiled drain, so the drivers are untouched.

    Writes ``<name>.collapsed`` (flamegraph.pl / speedscope folded
    stacks) and ``<name>.hotspots.json`` to ``--out-dir``.  Both
    artifacts and stdout are deterministic — same seed, byte-identical;
    the machine-dependent wall-time attribution goes to stderr only.
    """
    from repro.obs import NULL_OBS
    from repro.obs.profile import SubsystemProfiler

    profiler = SubsystemProfiler(args.name)
    profiler.phase(args.name)
    if _run_in_context(args, NULL_OBS, profiler=profiler) is None:
        return 2
    profiler.finish()
    os.makedirs(args.out_dir, exist_ok=True)
    collapsed_path = os.path.join(args.out_dir, f"{args.name}.collapsed")
    hotspots_path = os.path.join(args.out_dir, f"{args.name}.hotspots.json")
    with open(collapsed_path, "w") as handle:
        handle.write(profiler.collapsed_stacks())
    with open(hotspots_path, "w") as handle:
        handle.write(profiler.hotspot_json())
    print(profiler.hotspot_text(limit=args.top))
    print()
    print(f"wrote {collapsed_path} (flamegraph.pl / speedscope)")
    print(f"wrote {hotspots_path}")
    print(profiler.wall_report(), file=sys.stderr)
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    if getattr(args, "policies", False):
        from repro.faas.keepalive import PREWARM_POLICIES
        from repro.resilience.policies import DISPATCH_POLICIES

        axes = [
            (
                "prewarm",
                PREWARM_POLICIES.env_var,
                PREWARM_POLICIES.default(),
                PREWARM_POLICIES.kinds(),
            ),
            (
                "dispatch",
                DISPATCH_POLICIES.env_var,
                DISPATCH_POLICIES.default(),
                DISPATCH_POLICIES.kinds(),
            ),
        ]
        for axis, env_var, default, kinds in axes:
            print(f"{axis:9s}  ({env_var}, default {default})")
            for kind in kinds:
                print(f"  {kind}")
        return 0
    width = max(len(spec.id) for spec in all_specs())
    for spec in all_specs():
        print(f"{spec.id:{width}s}  ~{spec.fast_estimate_s:4.1f}s  {spec.title}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.gate import run_gate

    return run_gate(args)


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.faas import FaaSPlatform, FunctionSpec, StartType
    from repro.sim.units import format_duration, seconds
    from repro.workloads import FirewallWorkload

    faas = FaaSPlatform.build("firecracker", seed=args.seed)
    faas.register(FunctionSpec("firewall", FirewallWorkload()))
    print(f"{'start':10s}  {'init':>12s}  {'init %':>8s}")
    for start_type in (StartType.COLD, StartType.RESTORE,
                       StartType.WARM, StartType.HORSE):
        if start_type in (StartType.WARM, StartType.HORSE):
            faas.provision_warm(
                "firewall", count=1, use_horse=start_type is StartType.HORSE
            )
        invocation = faas.trigger("firewall", start_type)
        faas.engine.run(until=faas.engine.now + seconds(3))
        print(
            f"{start_type.value:10s}  "
            f"{format_duration(invocation.initialization_ns):>12s}  "
            f"{invocation.init_percentage:7.2f}%"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HORSE reproduction — experiments and demos",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    report = subparsers.add_parser("report", help="full evaluation report")
    report.add_argument("--fast", action="store_true")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--out", type=str, default=None)
    report.set_defaults(func=_cmd_report)

    experiment = subparsers.add_parser("experiment", help="one paper artifact")
    experiment.add_argument("name", help=", ".join(experiment_ids()))
    experiment.add_argument("--fast", action="store_true")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="worker processes for sharded experiments (cluster_sharded); "
        "results are byte-identical for any N",
    )
    experiment.add_argument(
        "--platform", choices=("firecracker", "xen"), default="firecracker",
        help="hypervisor model (the paper evaluated both)",
    )
    experiment.add_argument(
        "--json", action="store_true",
        help="print the result rows as JSON instead of the rendered table",
    )
    experiment.set_defaults(func=_cmd_experiment)

    trace = subparsers.add_parser(
        "trace", help="run one artifact traced; export Chrome JSON + JSONL"
    )
    trace.add_argument("name", help=", ".join(experiment_ids()))
    trace.add_argument("--fast", action="store_true")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--platform", choices=("firecracker", "xen"), default="firecracker",
        help="hypervisor model (the paper evaluated both)",
    )
    trace.add_argument(
        "--out-dir", type=str, default="traces",
        help="directory for <name>.trace.json / <name>.trace.jsonl",
    )
    trace.set_defaults(func=_cmd_trace)

    check = subparsers.add_parser(
        "check",
        help="run one artifact with every engine, host and pool it "
        "builds under invariant checking (figure3 adds the differential "
        "oracles and fault injection)",
    )
    check.add_argument("name", help=", ".join(experiment_ids()))
    check.add_argument("--fast", action="store_true")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument(
        "--platform", choices=("firecracker", "xen"), default="firecracker",
        help="hypervisor model (the paper evaluated both)",
    )
    check.add_argument(
        "--fault", action="append", default=[], metavar="KIND",
        help="figure3 only: inject a fault (repeatable): stale_arrayb, "
        "stale_posa, skip_merge_thread, drop_coalesced, clock_skew, "
        "pause_during_resume",
    )
    check.add_argument(
        "--max-ulps", type=int, default=None,
        help="figure3 only: ULP budget for the coalesced-vs-iterated "
        "load comparison (default 16)",
    )
    check.set_defaults(func=_cmd_check)

    chaos = subparsers.add_parser(
        "chaos",
        help="run the cluster chaos study under seeded failure injection "
        "(node crashes, resume faults; breaker vs retries-only vs vanilla)",
    )
    chaos.add_argument("name", help="chaos experiment id (cluster)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--failure-rate", type=float, default=0.1, metavar="R",
        help="failure intensity in [0, 1): resume-fault probability scale "
        "and crash frequency (default 0.1)",
    )
    chaos.add_argument("--hosts", type=int, default=4)
    chaos.add_argument("--requests", type=int, default=1200)
    chaos.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="run the sharded engine over N worker processes "
        "(DESIGN.md §12); results are byte-identical for any N. "
        "--hosts then means hosts per failure-domain cell",
    )
    chaos.add_argument(
        "--groups", type=int, default=8, metavar="G",
        help="failure-domain cells in the sharded model (with --shards; "
        "a model parameter: changing it changes the simulated system)",
    )
    chaos.add_argument(
        "--gateways", type=int, default=None, metavar="N",
        help="run the crash-recoverable control plane (DESIGN.md §14): "
        "N gateway shards per failure-domain cell behind a "
        "consistent-hash router; gateway crashes recover from intent "
        "logs under the exactly-once oracle. --hosts then means hosts "
        "per gateway shard",
    )
    chaos.add_argument(
        "--gateway-failure-rate", type=float, default=0.2, metavar="R",
        help="gateway-shard crash intensity in [0, 1) (with --gateways; "
        "default 0.2). 0 disables gateway crashes",
    )
    chaos.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="write the merged deterministic trace as JSONL "
        "(with --shards or --gateways)",
    )
    chaos.add_argument(
        "--dispatch", type=str, default=None, metavar="P",
        help="gateway dispatch policy: push-least-loaded | pull[-<slots>] "
        "| mqfq-sticky | deadline[-<slack_ms>] (default: "
        "REPRO_DISPATCH_POLICY or push-least-loaded; see "
        "'repro list --policies')",
    )
    chaos.set_defaults(func=_cmd_chaos)

    replay = subparsers.add_parser(
        "replay",
        help="stream an Azure-scale synthetic trace through a sandbox "
        "prewarm policy over a host memory budget (bounded memory)",
    )
    replay.add_argument(
        "--functions", type=int, default=1000, metavar="N",
        help="distinct functions in the trace population (default 1000)",
    )
    replay.add_argument(
        "--hours", type=float, default=1.0,
        help="simulated duration in hours (default 1.0)",
    )
    replay.add_argument(
        "--policy", type=str, default=None, metavar="P",
        help="sandbox lifecycle policy: none | fixed-<seconds> | hybrid "
        "| hybrid-<bin_seconds> (default: REPRO_PREWARM_POLICY or "
        "hybrid; see 'repro list --policies')",
    )
    replay.add_argument(
        "--memory-budget", type=float, default=4096.0, metavar="MB",
        help="host memory budget for resident sandboxes (default 4096)",
    )
    replay.add_argument(
        "--sandbox-mb", type=float, default=128.0, metavar="MB",
        help="resident footprint of one sandbox (default 128)",
    )
    replay.add_argument(
        "--groups", type=int, default=1, metavar="G",
        help="capacity cells the budget splits into (a model parameter)",
    )
    replay.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="worker processes for the cells; byte-identical for any N",
    )
    replay.add_argument(
        "--warmup-s", type=float, default=0.0, metavar="S",
        help="exclude arrivals before S seconds from the latency "
        "histogram (steady-state measurement)",
    )
    replay.add_argument("--seed", type=int, default=0)
    replay.set_defaults(func=_cmd_replay)

    profile = subparsers.add_parser(
        "profile",
        help="run one experiment under the deterministic subsystem "
        "profiler; write folded stacks + hotspot table",
    )
    profile.add_argument("name", help=", ".join(experiment_ids()))
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--fast", action="store_true")
    profile.add_argument(
        "--platform", choices=("firecracker", "xen"), default="firecracker",
        help="hypervisor model (the paper evaluated both)",
    )
    profile.add_argument(
        "--out-dir", type=str, default="profiles",
        help="directory for <name>.collapsed / <name>.hotspots.json",
    )
    profile.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="only print the N hottest rows (artifacts are always full)",
    )
    profile.set_defaults(func=_cmd_profile)

    from repro.perf.gate import build_parser as gate_parser

    bench = subparsers.add_parser(
        "bench",
        parents=[gate_parser()],
        add_help=False,
        help="run the sim-kernel performance gate (see benchmarks/perf_gate.py)",
    )
    bench.set_defaults(func=_cmd_bench)

    lister = subparsers.add_parser(
        "list", help="list experiment ids, titles, and fast-mode estimates"
    )
    lister.add_argument(
        "--policies", action="store_true",
        help="list every registered prewarm/dispatch policy "
        "with its env var and effective default",
    )
    lister.set_defaults(func=_cmd_list)

    demo = subparsers.add_parser("demo", help="compare the four start paths")
    demo.add_argument("--seed", type=int, default=42)
    demo.set_defaults(func=_cmd_demo)

    validate = subparsers.add_parser(
        "validate", help="check every paper claim against measured values"
    )
    validate.add_argument("--full", action="store_true",
                          help="10 reps and the full vCPU sweep")
    validate.add_argument("--seed", type=int, default=0)
    validate.set_defaults(func=_cmd_validate)

    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validation import failed_checks, summarize, validate_all

    checks = validate_all(fast=not args.full, seed=args.seed)
    print(summarize(checks))
    return 1 if failed_checks(checks) else 0


def _policy_env_error() -> Optional[str]:
    """Why a ``REPRO_*`` policy variable is invalid, or None if none is."""
    from repro.faas.keepalive import PREWARM_POLICIES
    from repro.resilience.policies import DISPATCH_POLICIES
    for registry in (DISPATCH_POLICIES, PREWARM_POLICIES):
        try:
            registry.env_spec()
        except ValueError as exc:
            return str(exc)
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    problem = _policy_env_error()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
