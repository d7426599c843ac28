"""The benchmark's three closed-loop workloads.

Each workload turns ``(seed, units)`` into a list of op specs before the
timed phase starts, runs the ops one after another (the next op starts
when the previous one returns), and checks each op's outputs after the
timed phase. Every op reports how many simulated seconds it completed
and how many source records it ingested, plus a digest of the outputs
that must stay exact.

- ``place``: the ``place`` command's path (profile, DS2, CAPS, then a
  fast-forward simulation through the plan cache) over Q1-Q6, three
  cluster shapes and three rates. Every request appears three times per
  unit, in a seeded order, so two simulations in three are plan-cache
  hits.
- ``autoscale``: the ``autoscale`` command's path, ``run_adaptive`` over
  2700 simulated seconds of Q1-sliding on 8x8 m5d under a square wave:
  two clean runs, two under a seeded data-plane fault schedule with
  ``diagnose`` on, two under a seeded control-plane schedule (guards
  armed).
- ``runtime``: the ``validate-runtime`` path (fluid engine plus the
  paced sharded record runtime on 2x4 r5d under an evenly placement) on
  q1, q2 and q6, plus the same Nexmark datasets through the exact
  parallelism=1 mode, the single-threaded baseline.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.controller.capsys import CAPSysController, ControllerConfig
from repro.dataflow.cluster import Cluster, M5D_2XLARGE, R5D_XLARGE
from repro.dataflow.physical import PhysicalGraph
from repro.diagnosis import report as diagnosis_report
from repro.experiments import validate_runtime
from repro.experiments.runner import simulate_plan, source_rate_map
from repro.faults import ChaosSchedule, ControlChaosSchedule
from repro.observability import Tracer
from repro.placement.flink_evenly import FlinkEvenlyStrategy
from repro.runtime.parallel import ShardedExecutor
from repro.simulator.engine import FluidSimulation, SimulationConfig
from repro.workloads import ALL_QUERIES, query_by_name
from repro.workloads.nexmark import (
    session_windows,
    sliding_window_hot_items,
    tumbling_window_join,
)
from repro.workloads.rates import SquareWaveRate


@dataclass
class Outcome:
    """What one op produced, as far as the benchmark measures it."""

    sim_s: float
    records: float
    digest: str
    #: Data the post-timing check needs (kept out of the digest).
    payload: Any = None


@dataclass
class Op:
    """One closed-loop request: its call and its output check.

    ``check`` runs after the timed phase and returns a failure reason or
    None; ``key`` names the op and its output digest in pins.json.
    """

    key: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], Optional[str]]


def digest(*parts: Any) -> str:
    """Short sha256 of the parts' reprs (floats by repr, so exact)."""
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# place
# ----------------------------------------------------------------------

#: (label, workers, slots, instance): the CLI default 4x8 m5d, a 4x4 r5d
#: and the 8x4 r5d Table 2 cluster.
PLACE_SHAPES = (
    ("4x8m5d", 4, 8, M5D_2XLARGE),
    ("4x4r5d", 4, 4, R5D_XLARGE),
    ("8x4r5d", 8, 4, R5D_XLARGE),
)
#: Multiples of each query's isolation rate. The top rate is 1.25, not
#: 1.5: at 1.5x, Q4-join's feasibility probes take ~60-68 ms of their
#: 0.3 s budget and its autotune ~1 s of 5 s on a 2-vCPU host, so a
#: slower host could hit a wall-clock budget and change the plan.
PLACE_RATES = (0.5, 1.0, 1.25)
PLACE_REPEATS = 3
PLACE_DURATION_S = 420.0
PLACE_WARMUP_S = 168.0


def _place_op(query: str, shape: tuple, mult: float) -> Op:
    label, workers, slots, instance = shape
    key = f"{query}|{label}|{mult}"

    def run() -> Outcome:
        preset = query_by_name(query)
        graph = preset.build()
        cluster = Cluster.homogeneous(instance.with_slots(slots), count=workers)
        config = ControllerConfig(sim=SimulationConfig(fast_forward=True))
        controller = CAPSysController(graph, cluster, config=config)
        controller.profile()
        rate = preset.isolation_rate * mult
        rates = {op: rate for op in graph.sources()}
        parallelism = controller.initial_parallelism(rates)
        scaled = graph.with_parallelism(parallelism)
        plan = controller.place(PhysicalGraph.expand(scaled), rates)
        summary = simulate_plan(
            scaled, cluster, plan, rate,
            duration_s=PLACE_DURATION_S, warmup_s=PLACE_WARMUP_S,
            fast_forward=True,
        )
        explanation = controller.last_explanation
        return Outcome(
            sim_s=config.profiling_duration_s + PLACE_DURATION_S,
            records=summary.throughput * (PLACE_DURATION_S - PLACE_WARMUP_S),
            digest=digest(
                sorted(parallelism.items()),
                sorted(plan.assignment.items()),
                summary.throughput, summary.backpressure, summary.latency_s,
                sorted(explanation.to_args().items()) if explanation else None,
            ),
            payload=controller.last_placement_fallback,
        )

    def check(outcome: Outcome) -> Optional[str]:
        if outcome.payload is not None:
            return f"placement fell back past the search ({outcome.payload})"
        return None

    return Op(key=key, run=run, check=check)


def place_ops(seed: int, units: int) -> List[Op]:
    combos = [
        (preset.name, shape, mult)
        for preset in ALL_QUERIES
        for shape in PLACE_SHAPES
        for mult in PLACE_RATES
    ]
    requests = combos * (PLACE_REPEATS * units)
    random.Random(seed).shuffle(requests)
    return [_place_op(*request) for request in requests]


# ----------------------------------------------------------------------
# autoscale
# ----------------------------------------------------------------------

AUTOSCALE_QUERY = "Q1-sliding"
AUTOSCALE_DURATION_S = 2700.0
#: Square-wave peaks of the two clean runs, as multiples of the
#: isolation rate: the CLI default, and a lower peak.
CLEAN_PEAK_RATES = (1.0, 0.9)


def _data_faults(rng: random.Random) -> str:
    """A disk straggler, then a crash and recovery of another worker.

    The seed picks the workers, the straggler's factor and the times
    within +-50 s of fixed anchors, so every seed injects the same kinds
    of fault at about the same point of the square wave.
    """
    disk, crash = rng.sample(range(8), 2)
    disk_at = 600 + rng.randrange(-50, 51, 10)
    crash_at = 1200 + rng.randrange(-50, 51, 10)
    factor = rng.choice((0.3, 0.4, 0.5))
    return (
        f"disk:w{disk}@{disk_at}x{factor},crash:w{crash}@{crash_at},"
        f"recover:w{crash}@{crash_at + 300}"
    )


def _control_faults(rng: random.Random) -> str:
    """Corrupted window-operator telemetry, then failing deploys."""
    corrupt_at = 800 + rng.randrange(-50, 51, 10)
    scale = rng.choice((20, 50, 80))
    fail_at = 1500 + rng.randrange(-50, 51, 10)
    fails = rng.choice((1, 2))
    return (
        f"metric_corrupt:opsliding_window@{corrupt_at}for80x{scale},"
        f"deploy_fail:@{fail_at}x{fails}"
    )


def _autoscale_op(key: str, high_mult: float, chaos: str = "",
                  control: str = "") -> Op:
    diagnose = bool(chaos)

    def run() -> Outcome:
        preset = query_by_name(AUTOSCALE_QUERY)
        graph = preset.build()
        cluster = Cluster.homogeneous(M5D_2XLARGE.with_slots(8), count=8)
        high = preset.isolation_rate * high_mult
        pattern = SquareWaveRate(high=high, low=high * 0.35,
                                 period_s=AUTOSCALE_DURATION_S / 3.0)
        tracer = Tracer(run_id=f"autoscale/{key}") if diagnose else None
        config = ControllerConfig(diagnose=diagnose)
        controller = CAPSysController(graph, cluster, config=config,
                                      tracer=tracer)
        data_schedule = ChaosSchedule.parse(chaos) if chaos else None
        control_schedule = ControlChaosSchedule.parse(control) if control else None
        result = controller.run_adaptive(
            {op: pattern for op in graph.sources()},
            duration_s=AUTOSCALE_DURATION_S,
            initial_parallelism={op: 1 for op in graph.operators},
            chaos=data_schedule,
            control_chaos=control_schedule,
        )
        ranked = None
        if diagnose:
            report = diagnosis_report.build_report(tracer.records)
            ranked = diagnosis_report.format_report(report)
        guard = controller.last_guard
        guard_state = None if guard is None else (
            guard.total_rejections, guard.safe_mode_entries,
            sorted(guard.rounds.items()),
        )
        timeline = [
            (event.time_s, event.reason, sorted(event.new_parallelism.items()))
            for event in result.events
        ]
        dt = config.sim.dt
        return Outcome(
            sim_s=AUTOSCALE_DURATION_S,
            records=sum(sample.throughput for sample in result.samples) * dt,
            digest=digest(timeline, guard_state, ranked),
            payload=(len(result.samples), round(AUTOSCALE_DURATION_S / dt),
                     guard_state, control_schedule),
        )

    def check(outcome: Outcome) -> Optional[str]:
        samples, expected, guard_state, control_schedule = outcome.payload
        if samples != expected:
            return f"timeline has {samples} samples, expected {expected}"
        if control_schedule is not None and guard_state is None:
            return "control-plane schedule given but guards did not arm"
        return None

    return Op(key=key, run=run, check=check)


def autoscale_ops(seed: int, units: int) -> List[Op]:
    ops = []
    for unit in range(units):
        tag = f"{seed}" if unit == 0 else f"{seed}.{unit}"
        rng = random.Random(f"autoscale/{tag}")
        for i, peak in enumerate(CLEAN_PEAK_RATES):
            # same inputs for every seed, so one pin covers them all
            ops.append(_autoscale_op(f"clean{i}", peak))
        for i in range(2):
            ops.append(_autoscale_op(f"{tag}/data{i}", 1.0, chaos=_data_faults(rng)))
        for i in range(2):
            ops.append(_autoscale_op(f"{tag}/control{i}", 1.0,
                                     control=_control_faults(rng)))
    return ops


# ----------------------------------------------------------------------
# runtime
# ----------------------------------------------------------------------

#: (query, scenario builder, simulated seconds, rate scale): q1's single
#: sliding-window accumulator makes state sizing dominate; q2's join is
#: light, so it runs at 4x rate; q6's session operator rescans sessions
#: per watermark.
RUNTIME_JOBS = (
    ("q1", validate_runtime.q1_scenario, 4.0, 1.0),
    ("q2", validate_runtime.q2_scenario, 12.0, 4.0),
    ("q6", validate_runtime.q6_scenario, 12.0, 1.0),
)
RUNTIME_WARMUP_S = 2.0
#: validate-runtime's default --max-throughput-error gate.
RUNTIME_MAX_THROUGHPUT_ERROR = 0.10


def _state_digest(result) -> str:
    return digest(
        result.records_ingested,
        len(result.outputs),
        sorted(
            (name, s.reads, s.writes, s.deletes, s.bytes_read, s.bytes_written)
            for name, s in result.state_stats.items()
        ),
    )


#: Q1's sliding windows (hot_items_template's defaults).
HOT_ITEMS_WINDOW_MS = 10_000
HOT_ITEMS_SLIDE_MS = 2_000


def _reference(query: str, scenario) -> list:
    """The batch reference of ``repro.workloads.nexmark`` for a dataset."""
    values = [record.value for record in scenario.template.sources[0].records]
    if query == "q1":
        # The reference only emits windows that start at or after t=0,
        # so a 4 s dataset would have none. Shifting event time by a
        # whole number of slides up to one window earlier makes it emit
        # the runtime's leading partial windows too, under the same
        # window alignment; the rows are shifted back afterwards.
        shift = HOT_ITEMS_WINDOW_MS - HOT_ITEMS_SLIDE_MS
        shifted = [dataclasses.replace(bid, timestamp_ms=bid.timestamp_ms + shift)
                   for bid in values]
        rows = sliding_window_hot_items(
            shifted, window_ms=HOT_ITEMS_WINDOW_MS, slide_ms=HOT_ITEMS_SLIDE_MS
        )
        return [(end - shift, auction, count) for end, auction, count in rows]
    if query == "q6":
        return session_windows(values, gap_ms=5_000)
    auctions = [record.value for record in scenario.template.sources[1].records]
    return tumbling_window_join(values, auctions, window_ms=10_000)


def _compare(query: str, outputs: list, reference: list, complete: bool) -> Optional[str]:
    """Compare outputs with the reference as the runtime pipeline tests do.

    q1 compares rows on the windows both sides fired; q2 and q6 compare
    sorted rows. A paced run stops at its virtual deadline, so its rows
    (``complete=False``) need only be contained in the reference.
    """
    if query == "q1":
        got = {row[0]: row for row in outputs}
        want = {row[0]: row for row in reference}
        common = set(got) & set(want)
        if any(got[end] != want[end] for end in common):
            return "hot-items rows differ from the reference"
        if complete and len(common) < max(1, len(want) - 2):
            return f"only {len(common)} of {len(want)} reference windows fired"
        if not complete and set(got) - set(want):
            return "hot-items fired windows the reference does not have"
        return None
    if complete:
        return None if sorted(outputs) == sorted(reference) else "rows differ from the reference"
    extra = Counter(outputs) - Counter(reference)
    return "rows not in the reference" if extra else None


def _runtime_paced_op(tag: str, query: str, duration_s: float, scenario,
                      seed: int) -> Op:
    cluster = validate_runtime.default_cluster()

    def run() -> Outcome:
        physical = PhysicalGraph.expand(scenario.graph)
        plan = FlinkEvenlyStrategy(seed=0).place_validated(physical, cluster)
        fluid = FluidSimulation(
            physical, cluster, plan,
            source_rate_map(scenario.graph, scenario.source_rates),
            config=SimulationConfig(dt=1.0, seed=seed, noise_std=0.0),
        )
        fluid_job = fluid.run(duration_s, warmup_s=RUNTIME_WARMUP_S).only
        result = ShardedExecutor(
            scenario.template, physical=physical, plan=plan, cluster=cluster,
            source_rates=scenario.source_rates,
        ).run(duration_s, warmup_s=RUNTIME_WARMUP_S)
        error = (abs(result.summary.throughput - fluid_job.throughput)
                 / max(fluid_job.throughput, 1e-9))
        return Outcome(
            sim_s=2 * duration_s,
            records=result.records_ingested,
            digest=_state_digest(result),
            payload=(error, result.output_values()),
        )

    def check(outcome: Outcome) -> Optional[str]:
        error, outputs = outcome.payload
        if error > RUNTIME_MAX_THROUGHPUT_ERROR:
            return f"throughput error {error:.1%} exceeds {RUNTIME_MAX_THROUGHPUT_ERROR:.0%}"
        return _compare(query, outputs, _reference(query, scenario), complete=False)

    key = f"{tag}/{query}/paced"
    return Op(key=key, run=run, check=check)


def _runtime_exact_op(tag: str, query: str, scenario) -> Op:
    def run() -> Outcome:
        result = ShardedExecutor(scenario.template).run()
        return Outcome(
            sim_s=0.0,
            records=result.records_ingested,
            digest=_state_digest(result),
            payload=result.output_values(),
        )

    def check(outcome: Outcome) -> Optional[str]:
        return _compare(query, outcome.payload, _reference(query, scenario),
                        complete=True)

    key = f"{tag}/{query}/exact"
    return Op(key=key, run=run, check=check)


def runtime_ops(seed: int, units: int) -> List[Op]:
    ops = []
    for unit in range(units):
        tag = f"{seed}" if unit == 0 else f"{seed}.{unit}"
        data_seed = seed + 7919 * unit
        for query, make, duration_s, scale in RUNTIME_JOBS:
            scenario = make(duration_s, scale, data_seed)
            ops.append(_runtime_paced_op(tag, query, duration_s, scenario, data_seed))
            ops.append(_runtime_exact_op(tag, query, scenario))
    return ops


#: workload name -> op builder taking (seed, units).
WORKLOADS: Dict[str, Callable[[int, int], List[Op]]] = {
    "place": place_ops,
    "autoscale": autoscale_ops,
    "runtime": runtime_ops,
}
