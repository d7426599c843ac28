"""Benchmarks for the sharded record runtime (DESIGN.md section 12).

Not a paper table — these quantify the record-level execution layer:

- sharded-executor throughput in records/s of wall-clock across the
  degenerate (no physical graph, so ``Pipeline.run``), semantic, and
  paced modes (the price of real records vs the fluid model's rate
  arithmetic), written to ``BENCH_perf.json``
  section ``runtime_sharded`` as ``<mode>_records_per_s``, the median
  of ``MODE_REPEATS`` rounds that run the three modes in turn, with its
  min-max range, the commit that produced it and, under ``previous``,
  the last result of another commit (run it at a parent and then at
  its change for a before/after pair);
- the fluid-vs-runtime cross-validation harness end to end, reporting
  the measured prediction errors alongside the timing, written to
  section ``runtime_validation`` as the per-query throughput error,
  labelled and paired with ``previous`` the same way.

There is no smoke mode: every run is the full 20k-event stream and the
full validation, so both sections record ``"smoke": false``.

    PYTHONPATH=src python -m pytest benchmarks/bench_runtime_sharded.py -q -s
"""

import statistics
import sys
import time

sys.path.insert(0, "benchmarks")
from _helpers import (
    current_commit,
    merge_bench_section_with_previous,
    run_once,
)

from repro.dataflow.cluster import Cluster, R5D_XLARGE
from repro.dataflow.physical import PhysicalGraph
from repro.experiments.reporting import format_table
from repro.experiments.validate_runtime import cross_validate, format_validation
from repro.placement.flink_evenly import FlinkEvenlyStrategy
from repro.runtime.parallel import ShardedExecutor
from repro.runtime.queries import hot_items_template
from repro.workloads.nexmark import NexmarkGenerator
from repro.workloads.queries import q1_sliding

#: Timed rounds per mode; each round runs the three modes in turn.
MODE_REPEATS = 5


def _bids(count=20_000):
    generator = NexmarkGenerator(seed=11, events_per_second=2000.0)
    return generator.take_by_kind(count, ("bid",))[2]


def test_sharded_executor_modes(benchmark):
    """Records/s of wall-clock for each execution mode on Q1."""
    bids = _bids()

    def degenerate():
        return ShardedExecutor(hot_items_template(bids)).run()

    def semantic():
        physical = PhysicalGraph.expand(q1_sliding(1, 2, 2))
        return ShardedExecutor(
            hot_items_template(bids), physical=physical
        ).run()

    def paced():
        physical = PhysicalGraph.expand(q1_sliding(1, 2, 2))
        cluster = Cluster.homogeneous(R5D_XLARGE.with_slots(4), count=2)
        plan = FlinkEvenlyStrategy(seed=0).place_validated(physical, cluster)
        return ShardedExecutor(
            hot_items_template(bids),
            physical=physical,
            plan=plan,
            cluster=cluster,
            source_rates={"source": 2000.0},
        ).run(duration_s=10.0, warmup_s=2.0)

    modes = {"degenerate": degenerate, "semantic": semantic, "paced": paced}

    def study():
        rates = {mode: [] for mode in modes}
        records = {}
        for _ in range(MODE_REPEATS):
            for mode, fn in modes.items():
                start = time.perf_counter()
                result = fn()
                elapsed = time.perf_counter() - start
                records[mode] = result.records_ingested
                rates[mode].append(result.records_ingested / elapsed)
        rows = [
            [
                mode,
                records[mode],
                round(statistics.median(rates[mode])),
                f"{min(rates[mode]):.0f}-{max(rates[mode]):.0f}",
            ]
            for mode in modes
        ]
        print()
        print(
            format_table(
                ["mode", "records", "median records/s", "range"],
                rows,
                title=(
                    "sharded executor throughput (Q1, 20k-event stream, "
                    f"{MODE_REPEATS} rounds)"
                ),
            )
        )
        return rates

    rates = run_once(benchmark, study)
    merge_bench_section_with_previous(
        "perf",
        "runtime_sharded",
        {
            "commit": current_commit(),
            "smoke": False,
            "workload": "Q1 hot items over the bids of a 20k-event stream",
            "repeats": MODE_REPEATS,
            **{
                f"{mode}_records_per_s": round(statistics.median(samples))
                for mode, samples in rates.items()
            },
            **{
                f"{mode}_records_per_s_range": [round(min(samples)), round(max(samples))]
                for mode, samples in rates.items()
            },
        },
    )
    assert all(min(samples) > 0 for samples in rates.values())


def test_cross_validation_harness(benchmark):
    """The validate-runtime pipeline end to end on all three queries."""

    def study():
        return cross_validate(duration_s=8.0, warmup_s=2.0)

    rows = run_once(benchmark, study)
    print()
    print(format_validation(rows))
    worst = max(row.throughput_error for row in rows)
    merge_bench_section_with_previous(
        "perf",
        "runtime_validation",
        {
            "commit": current_commit(),
            "smoke": False,
            **{row.query: round(row.throughput_error, 4) for row in rows},
        },
    )
    assert worst <= 0.10
