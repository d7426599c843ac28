"""Command-line interface for the CAPSys reproduction.

Subcommands mirror the library's main entry points:

- ``place``     profile a query, size it with DS2, place it with a
                strategy, simulate, and report the outcome;
- ``compare``   run CAPS vs the Flink baselines on one query;
- ``autoscale`` run the adaptive control loop under a square-wave
                workload and print the convergence timeline;
- ``explore``   enumerate a query's placement space and summarise the
                cost/performance spread (the motivation study);
- ``validate-runtime``  cross-validate the fluid model against the
                sharded record runtime on Q1/Q2/Q6 (DESIGN.md §12);
- ``queries``   list the available queries and their calibrated rates.

Usage:
    python -m repro.cli queries
    python -m repro.cli place Q1-sliding --strategy caps
    python -m repro.cli compare Q5-aggregate --runs 5
    python -m repro.cli autoscale Q3-inf --duration 2700
    python -m repro.cli explore Q1-sliding
    python -m repro.cli validate-runtime --queries q1,q2
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, List, Optional, Tuple

from repro.controller.capsys import CAPSysController, ControllerConfig
from repro.controller.guards import GuardConfig
from repro.dataflow.cluster import Cluster, M5D_2XLARGE, R5D_XLARGE
from repro.dataflow.physical import PhysicalGraph
from repro.experiments import enumerate_all_plans
from repro.experiments.figures import convergence_timeline_rows
from repro.experiments.validate_runtime import (
    SCENARIOS,
    cross_validate,
    format_validation,
)
from repro.experiments.reporting import box_stats, format_percent, format_table
from repro.experiments.runner import simulate_plan, strategy_box_runs
from repro.faults import (
    ChaosSchedule,
    CheckpointConfig,
    ClusterHealth,
    ControlChaosSchedule,
)
from repro.observability import MetricRegistry, Tracer
from repro.placement import CapsStrategy, FlinkDefaultStrategy, FlinkEvenlyStrategy
from repro.simulator.engine import SimulationConfig
from repro.simulator.plan_cache import publish_plan_cache
from repro.workloads import ALL_QUERIES, query_by_name
from repro.workloads.rates import SquareWaveRate


# ----------------------------------------------------------------------
# Argument types: bad input fails in the parser with a usage error
# ----------------------------------------------------------------------

def _positive(kind: Callable[[str], float]) -> Callable[[str], float]:
    """A numeric type that accepts only finite values above zero."""

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    return convert


def _non_negative(text: str) -> float:
    """A float type that accepts only finite values at or above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be finite and non-negative, got {text}"
        )
    return value


def _query_name(text: str) -> str:
    try:
        query_by_name(text)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return text


def _runtime_queries(text: str) -> Tuple[str, ...]:
    queries = tuple(q.strip() for q in text.split(",") if q.strip())
    known = ", ".join(sorted(SCENARIOS))
    if not queries:
        raise argparse.ArgumentTypeError(f"no query given; known: {known}")
    for query in queries:
        if query not in SCENARIOS:
            raise argparse.ArgumentTypeError(
                f"unknown query {query!r}; known: {known}"
            )
    return queries


def _schedule(parse: Callable[[str], object]) -> Callable[[str], object]:
    """A chaos-spec type: ``parse``'s ValueError becomes a usage error."""

    def convert(spec: str):
        try:
            return parse(spec) if spec else None
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _cluster(args: argparse.Namespace) -> Cluster:
    spec = {"r5d": R5D_XLARGE, "m5d": M5D_2XLARGE}[args.instance]
    return Cluster.homogeneous(spec.with_slots(args.slots), count=args.workers)


def _add_cluster_args(parser: argparse.ArgumentParser, workers=4, slots=8) -> None:
    parser.add_argument("--workers", type=_positive(int), default=workers,
                        help="number of workers")
    parser.add_argument("--slots", type=_positive(int), default=slots,
                        help="slots per worker")
    parser.add_argument("--instance", choices=("r5d", "m5d"), default="m5d",
                        help="worker hardware preset")


def _add_search_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive(int), default=1,
                        help="placement search worker processes (above 1 "
                             "partitions the search over a process pool)")


def _add_ff_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fast-forward", action=argparse.BooleanOptionalAction, default=True,
        help="leap over ticks that repeat exactly, fixed points and "
             "cycles alike (bit-identical "
             "results, less wall-clock; see DESIGN.md §9); "
             "--no-fast-forward runs the tick-by-tick reference")


def _controller_config(args: argparse.Namespace) -> ControllerConfig:
    interval = getattr(args, "checkpoint_interval", None)
    checkpoint = (
        CheckpointConfig(enabled=True, interval_s=interval)
        if interval is not None
        else CheckpointConfig()
    )
    return ControllerConfig(
        search_jobs=getattr(args, "jobs", 1),
        checkpoint=checkpoint,
        diagnose=getattr(args, "diagnose", False),
        guards=GuardConfig(enabled=not getattr(args, "unguarded", False)),
        sim=SimulationConfig(fast_forward=args.fast_forward),
    )


def _add_chaos_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--chaos", metavar="SPEC", default=None,
        type=_schedule(ChaosSchedule.parse),
        help="deterministic fault schedule, e.g. "
             "'crash:w3@120,recover:w3@300,disk:w1@60x0.4'")
    parser.add_argument(
        "--control-chaos", metavar="SPEC", default=None,
        type=_schedule(ControlChaosSchedule.parse),
        help="deterministic control-plane fault schedule (degraded "
             "telemetry / failing deploys), e.g. "
             "'metric_corrupt:opwork@300for60,deploy_fail:@600x2'; "
             "see DESIGN.md §11")
    parser.add_argument(
        "--unguarded", action="store_true",
        help="disable the control-plane guard pipeline (ablation: the "
             "controller trusts whatever --control-chaos feeds it)")
    parser.add_argument(
        "--checkpoint-interval", type=_positive(float), default=None,
        metavar="S",
        help="enable the checkpoint/restore model with this interval; "
             "crash recovery then pays restore + replay downtime")


def _add_diagnose_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--diagnose", action="store_true",
        help="attach the root-cause diagnosis layer (contention "
             "attribution + backpressure provenance) and print the "
             "ranked report; see DESIGN.md §10")


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a structured trace of the run")
    parser.add_argument("--trace-format", choices=("jsonl", "chrome"),
                        default="jsonl",
                        help="trace file format (chrome loads in "
                             "about://tracing)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write a metric snapshot (.prom suffix for "
                             "Prometheus text exposition, JSON otherwise)")


def _observability(
    args: argparse.Namespace, run_id: str
) -> tuple:
    """Build the (tracer, registry) pair the flags ask for.

    The run id is derived from the command and query — never from a
    clock or uuid — so two identically-parameterised runs produce
    byte-identical sim-domain trace streams. ``--diagnose`` needs a
    tracer even without ``--trace``: the diagnosis aggregates flush
    into trace records, which the report is then built from.
    """
    want_tracer = args.trace or getattr(args, "diagnose", False)
    tracer = Tracer(run_id=run_id) if want_tracer else None
    registry = MetricRegistry() if args.metrics_out else None
    return tracer, registry


def _write_observability(
    args: argparse.Namespace,
    tracer: Optional[Tracer],
    registry: Optional[MetricRegistry],
) -> None:
    if tracer is not None and args.trace:
        if args.trace_format == "chrome":
            tracer.write_chrome(args.trace)
        else:
            tracer.write_jsonl(args.trace)
        print(f"trace: {args.trace} ({len(tracer.records)} records)")
    if registry is not None:
        if args.metrics_out.endswith(".prom"):
            registry.write_prometheus(args.metrics_out)
        else:
            registry.write_json(args.metrics_out)
        print(f"metrics: {args.metrics_out}")


def _print_diagnosis(engine, tracer: Tracer) -> None:
    """Flush a still-attached engine (if any) and print the report."""
    from repro.diagnosis.report import build_report, format_report

    if engine is not None and engine.diagnosis is not None:
        engine.diagnosis.flush(tracer)
    print()
    print(format_report(build_report(tracer.records)))


def cmd_queries(_args: argparse.Namespace) -> int:
    rows = []
    for preset in ALL_QUERIES:
        graph = preset.build()
        rows.append(
            [
                preset.name,
                " -> ".join(graph.topological_order()),
                preset.dominant_dimension,
                round(preset.target_rate),
                round(preset.isolation_rate),
            ]
        )
    print(
        format_table(
            ["query", "operators", "dominant", "motivation rate", "isolation rate"],
            rows,
            title="available queries (rates are records/s per source)",
        )
    )
    return 0


def cmd_place(args: argparse.Namespace) -> int:
    preset = query_by_name(args.query)
    cluster = _cluster(args)
    rate = args.rate or preset.isolation_rate
    strategy = args.strategy
    tracer, registry = _observability(args, f"place/{args.query}")
    controller = CAPSysController(
        preset.build(), cluster,
        strategy="caps" if strategy == "caps" else
        (FlinkDefaultStrategy(seed=args.seed) if strategy == "default"
         else FlinkEvenlyStrategy(seed=args.seed)),
        config=_controller_config(args),
        tracer=tracer,
        registry=registry,
    )
    controller.profile()
    deployment = controller.deploy(
        {op: rate for op in preset.build().sources()}
    )
    print(f"parallelism: {deployment.parallelism}")
    for worker_id in sorted(deployment.plan.worker_ids()):
        tasks = ", ".join(
            uid.split("/", 1)[1] for uid in deployment.plan.tasks_on(worker_id)
        )
        print(f"  worker {worker_id}: {tasks}")
    summary = deployment.engine.run(args.duration, warmup_s=args.duration * 0.4).only
    print(
        f"throughput {summary.throughput:.0f}/{summary.target_rate:.0f} rec/s, "
        f"backpressure {format_percent(summary.backpressure)}, "
        f"latency {summary.latency_s:.2f} s"
    )
    if args.diagnose:
        _print_diagnosis(deployment.engine, tracer)
    _write_observability(args, tracer, registry)
    return 0 if summary.meets_target() else 1


def cmd_compare(args: argparse.Namespace) -> int:
    preset = query_by_name(args.query)
    cluster = _cluster(args)
    rate = args.rate or preset.isolation_rate
    controller = CAPSysController(
        preset.build(), cluster, strategy="caps",
        config=_controller_config(args),
    )
    unit_costs = controller.profile()
    parallelism = controller.initial_parallelism(
        {op: rate for op in preset.build().sources()}
    )
    graph = preset.build().with_parallelism(parallelism)
    src_rates = {(graph.job_id, op): rate for op in graph.sources()}

    tracer, registry = _observability(args, f"compare/{args.query}")
    rows = []
    for strategy in (
        CapsStrategy(src_rates, unit_costs_provider=lambda p: unit_costs,
                     jobs=args.jobs,
                     tracer=tracer, registry=registry),
        FlinkDefaultStrategy(),
        FlinkEvenlyStrategy(),
    ):
        runs = strategy_box_runs(
            graph, cluster, strategy, rate,
            runs=args.runs, duration_s=args.duration,
            warmup_s=args.duration * 0.4,
            config=controller.config.sim,
            tracer=tracer,
        )
        thpt = box_stats([r.only.throughput for r in runs])
        bp = box_stats([r.only.backpressure for r in runs])
        rows.append(
            [
                strategy.name,
                round(thpt.median),
                round(thpt.minimum),
                round(thpt.maximum),
                format_percent(bp.median),
            ]
        )
    print(
        format_table(
            ["strategy", "thpt med", "thpt min", "thpt max", "bp med"],
            rows,
            title=f"{preset.name} at {rate:.0f} rec/s per source "
                  f"({args.runs} runs per strategy)",
        )
    )
    if registry is not None:
        publish_plan_cache(registry)
    _write_observability(args, tracer, registry)
    return 0


def cmd_autoscale(args: argparse.Namespace) -> int:
    preset = query_by_name(args.query)
    cluster = _cluster(args)
    graph = preset.build()
    high = args.rate or preset.isolation_rate
    pattern = SquareWaveRate(high=high, low=high * 0.35,
                             period_s=args.duration / 3.0)
    tracer, registry = _observability(args, f"autoscale/{args.query}")
    controller = CAPSysController(
        graph, cluster,
        strategy="caps" if args.strategy == "caps" else FlinkDefaultStrategy(),
        config=_controller_config(args),
        tracer=tracer,
        registry=registry,
    )
    chaos = args.chaos
    control_chaos = args.control_chaos
    result = controller.run_adaptive(
        {op: pattern for op in graph.sources()},
        duration_s=args.duration,
        initial_parallelism={op: 1 for op in graph.operators},
        chaos=chaos,
        control_chaos=control_chaos,
    )
    print(f"{result.rescale_count()} scaling decisions")
    if chaos:
        fault_rescales = sum(
            1 for e in result.events if e.reason.startswith("fault:")
        )
        print(
            f"chaos: {len(chaos)} fault events injected, "
            f"{fault_rescales} fault-triggered rescales"
        )
    if control_chaos:
        guard = controller.last_guard
        if guard is None:
            print(
                f"control-chaos: {len(control_chaos)} events scheduled, "
                f"guards disabled"
            )
        else:
            rounds = ", ".join(
                f"{outcome}={guard.rounds[outcome]}"
                for outcome in sorted(guard.rounds)
            )
            print(
                f"control-chaos: {len(control_chaos)} events scheduled; "
                f"guard rejections {guard.total_rejections}, "
                f"safe-mode entries {guard.safe_mode_entries}; "
                f"rounds: {rounds}"
            )
    rows = [
        [int(t), round(target), round(thpt), tasks]
        for t, target, thpt, tasks in convergence_timeline_rows(
            result, bucket_s=max(60.0, args.duration / 12.0)
        )
    ]
    print(format_table(["t (s)", "target", "throughput", "tasks"], rows))
    if args.diagnose:
        # run_adaptive already flushed every retiring engine's
        # aggregates into the tracer.
        _print_diagnosis(None, tracer)
    _write_observability(args, tracer, registry)
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    preset = query_by_name(args.query)
    cluster = _cluster(args)
    rate = args.rate or preset.target_rate
    graph = preset.build()
    tracer, registry = _observability(args, f"explore/{args.query}")
    plans, _model = enumerate_all_plans(graph, cluster, rate)
    print(f"{len(plans)} distinct plans")
    if len(plans) > args.limit:
        plans = sorted(plans, key=lambda cp: cp[0].total())[: args.limit]
        print(f"simulating the {args.limit} lowest-cost plans")
    sim = _controller_config(args).sim
    outcomes = [
        simulate_plan(graph, cluster, plan, rate, duration_s=240, warmup_s=100,
                      config=sim, tracer=tracer)
        for _cost, plan in plans
    ]
    thpt = box_stats([s.throughput for s in outcomes])
    meets = sum(1 for s in outcomes if s.meets_target())
    print(f"throughput spread: {thpt}")
    print(f"plans meeting target: {meets}/{len(outcomes)}")
    if registry is not None:
        publish_plan_cache(registry)
    _write_observability(args, tracer, registry)
    return 0


def cmd_validate_runtime(args: argparse.Namespace) -> int:
    queries = args.queries
    tracer, registry = _observability(
        args, f"validate-runtime/{','.join(queries)}"
    )
    rows = cross_validate(
        queries=queries,
        duration_s=args.duration,
        warmup_s=args.warmup,
        rate_scale=args.rate_scale,
        seed=args.seed,
        tracer=tracer,
        registry=registry,
    )
    print(format_validation(rows))
    _write_observability(args, tracer, registry)
    worst = max(rows, key=lambda r: r.throughput_error)
    if worst.throughput_error > args.max_throughput_error:
        print(
            f"FAIL: {worst.query} throughput error "
            f"{worst.throughput_error:.1%} exceeds "
            f"{args.max_throughput_error:.1%}"
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="CAPSys reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("queries", help="list available queries").set_defaults(
        fn=cmd_queries
    )

    p = sub.add_parser("place", help="profile, size, place, and simulate")
    p.add_argument("query", type=_query_name)
    p.add_argument("--strategy", choices=("caps", "default", "evenly"),
                   default="caps")
    p.add_argument("--rate", type=_positive(float), default=None,
                   help="target rate per source (defaults to the preset)")
    p.add_argument("--duration", type=_positive(float), default=420.0)
    p.add_argument("--seed", type=int, default=0)
    _add_cluster_args(p)
    _add_search_args(p)
    _add_obs_args(p)
    _add_ff_arg(p)
    _add_diagnose_arg(p)
    p.set_defaults(fn=cmd_place)

    p = sub.add_parser("compare", help="CAPS vs Flink baselines")
    p.add_argument("query", type=_query_name)
    p.add_argument("--runs", type=_positive(int), default=5)
    p.add_argument("--rate", type=_positive(float), default=None)
    p.add_argument("--duration", type=_positive(float), default=420.0)
    _add_cluster_args(p)
    _add_search_args(p)
    _add_obs_args(p)
    _add_ff_arg(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("autoscale", help="adaptive DS2 + placement loop")
    p.add_argument("query", type=_query_name)
    p.add_argument("--strategy", choices=("caps", "default"), default="caps")
    p.add_argument("--rate", type=_positive(float), default=None)
    p.add_argument("--duration", type=_positive(float), default=2700.0)
    _add_cluster_args(p, workers=8)
    _add_search_args(p)
    _add_chaos_args(p)
    _add_obs_args(p)
    _add_ff_arg(p)
    _add_diagnose_arg(p)
    p.set_defaults(fn=cmd_autoscale)

    p = sub.add_parser("explore", help="enumerate the placement space")
    p.add_argument("query", type=_query_name)
    p.add_argument("--rate", type=_positive(float), default=None)
    p.add_argument("--limit", type=_positive(int), default=120,
                   help="max plans to simulate")
    _add_cluster_args(p, workers=4, slots=4)
    _add_obs_args(p)
    _add_ff_arg(p)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser(
        "validate-runtime",
        help="cross-validate the fluid model against the sharded runtime",
    )
    p.add_argument("--queries", type=_runtime_queries, default="q1,q2,q6",
                   help="comma-separated subset of q1,q2,q6")
    p.add_argument("--duration", type=_positive(float), default=12.0)
    p.add_argument("--warmup", type=_non_negative, default=2.0,
                   help="seconds left out of both averages; below --duration")
    p.add_argument("--rate-scale", type=_positive(float), default=1.0,
                   help="multiply the per-query target rates")
    p.add_argument("--seed", type=int, default=7,
                   help="Nexmark generator seed")
    p.add_argument("--max-throughput-error", type=_non_negative, default=0.10,
                   metavar="FRAC",
                   help="exit 1 if any query's relative throughput error "
                        "exceeds this fraction")
    _add_obs_args(p)
    p.set_defaults(fn=cmd_validate_runtime)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "chaos", None):
        # --chaos parses without the cluster; check its workers against
        # --workers before anything runs
        try:
            ClusterHealth(_cluster(args)).check(args.chaos)
        except KeyError as exc:
            parser.error(f"argument --chaos: {exc.args[0]}")
    if args.command == "validate-runtime" and args.warmup >= args.duration:
        parser.error(
            f"argument --warmup: must be below --duration ({args.duration:g}), "
            f"got {args.warmup:g}"
        )
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
