#!/usr/bin/env python
"""Record-level streaming: the queries behind the placement problem.

Runs the evaluation queries as actual event-time streaming programs —
watermarks, keyed state, sliding/session windows, windowed joins — over
a generated Nexmark stream, and shows how the measured operator
statistics (selectivity, state bytes per record) connect to the
per-record unit costs the placement layer optimises over.

Run:  python examples/streaming_runtime.py
"""

from repro.runtime.queries import (
    bid_sessions_template,
    hot_items_template,
    new_user_auctions_template,
)
from repro.workloads import q1_sliding
from repro.workloads.nexmark import KINDS, NexmarkGenerator


def main() -> None:
    generator = NexmarkGenerator(seed=7, events_per_second=1000.0)
    persons, auctions, bids = generator.take_by_kind(30_000, KINDS)
    print(f"event stream: {len(persons)} persons, {len(auctions)} auctions, "
          f"{len(bids)} bids")

    print("\n[Q1-sliding] hottest auction per 10 s sliding window (2 s slide)")
    result = hot_items_template(bids).build_pipeline().run()
    for record in result.outputs[-3:]:
        window_end, auction, count = record.value
        print(f"  window ending {window_end / 1000.0:7.1f}s: "
              f"auction {auction} with {count} bids")
    window_stats = result.operator_stats["sliding_window"]
    print(f"  window operator: {window_stats.records_in} in, "
          f"{window_stats.records_out} out "
          f"(selectivity {window_stats.selectivity:.3f}; the fluid model uses "
          f"{q1_sliding().operator('sliding_window').selectivity})")
    print(f"  measured state traffic: "
          f"{result.io_bytes_per_record('sliding_window'):.0f} B per record "
          f"(each bid updates 5 overlapping panes)")

    print("\n[Q2-join] persons joined with their auctions per 10 s window")
    result = new_user_auctions_template(persons, auctions).build_pipeline().run()
    print(f"  {len(result.outputs)} matches; join selectivity "
          f"{result.selectivity('tumbling_join'):.3f}")
    for record in result.outputs[:3]:
        person, auction = record.value
        print(f"  person {person} opened auction {auction}")

    print("\n[Q6-session] per-bidder sessions (5 s gap)")
    result = bid_sessions_template(bids).build_pipeline().run()
    sessions = result.output_values()
    lengths = [count for *_ignored, count in sessions]
    print(f"  {len(sessions)} sessions, mean {sum(lengths) / len(lengths):.1f} "
          f"bids per session")
    print(f"  session selectivity {result.selectivity('session_window'):.3f}; "
          f"state traffic {result.io_bytes_per_record('session_window'):.0f} B "
          f"per record")

    print("\nThese measured per-record statistics are what the CAPSys "
          "profiling phase feeds the cost model — see examples/quickstart.py "
          "for the placement side.")


if __name__ == "__main__":
    main()
