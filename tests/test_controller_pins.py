"""Pins of everything the adaptive controller writes.

Each scenario runs the controller end to end and hashes (sha256, first
16 hex digits) what it produced: one digest per ``TimelineSample``
field over the whole timeline, the enacted rescale events, the guard
state, the sim-domain trace records, the metric snapshot, and the
ranked diagnosis report. Floats enter by ``repr``, so a change that
moves one by one ulp fails here, and the per-field split shows which
stream moved.

The ``autoscale`` scenarios are the five CI runs of
``python -m repro.cli autoscale Q1-sliding --duration 400 --workers 4
--slots 4`` (a 400 s square wave on 4x4 m5d): clean, data-plane chaos
with checkpoints, a disk straggler with diagnosis, guarded control-plane
chaos with diagnosis, and both planes together. ``late_chaos`` carries
one crash that falls after the run ends; it must equal the clean run,
so a run that threads its cluster health through every deploy gives
what a run without chaos gives. ``table4`` is the Table 4
``run_controlled_steps`` experiment under CAPS.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.controller.capsys import CAPSysController, ControllerConfig
from repro.controller.events import TimelineSample
from repro.controller.guards import GuardConfig
from repro.dataflow.cluster import M5D_2XLARGE, R5D_XLARGE, Cluster
from repro.diagnosis.report import build_report
from repro.faults import ChaosSchedule, CheckpointConfig, ControlChaosSchedule
from repro.observability import MetricRegistry, Tracer
from repro.workloads import q3_inf, query_by_name
from repro.workloads.rates import SquareWaveRate

DATA_CHAOS = "disk:w1@60x0.4,crash:w2@120,recover:w2@260"
CONTROL_CHAOS = "metric_corrupt:opsliding_window@100for120,deploy_fail:@240x2"


def _hash(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _digests(result, controller, tracer, registry):
    out = {
        f.name: _hash(getattr(s, f.name) for s in result.samples)
        for f in dataclasses.fields(TimelineSample)
    }
    out["events"] = _hash(result.events)
    guard = controller.last_guard
    out["guard"] = _hash(
        [None]
        if guard is None
        else [
            sorted(guard.rounds.items()),
            guard.total_rejections,
            guard.safe_mode_entries,
            guard.failed_streak,
            guard.safe_mode,
        ]
    )
    out["trace"] = _hash([tracer.to_jsonl("sim")])
    out["metrics"] = _hash([registry.to_json()])
    out["diagnosis"] = _hash(
        [json.dumps(build_report(tracer.records), sort_keys=True)]
    )
    return out


def _autoscale(chaos=None, control_chaos=None, checkpoint_s=None, diagnose=False):
    preset = query_by_name("Q1-sliding")
    graph = preset.build()
    high = preset.isolation_rate
    pattern = SquareWaveRate(high=high, low=high * 0.35, period_s=400.0 / 3.0)
    tracer = Tracer(run_id="autoscale/Q1-sliding")
    registry = MetricRegistry()
    controller = CAPSysController(
        graph,
        Cluster.homogeneous(M5D_2XLARGE.with_slots(4), count=4),
        config=ControllerConfig(
            checkpoint=(
                CheckpointConfig(enabled=True, interval_s=checkpoint_s)
                if checkpoint_s is not None
                else CheckpointConfig()
            ),
            diagnose=diagnose,
            guards=GuardConfig(enabled=True),
        ),
        tracer=tracer,
        registry=registry,
    )
    result = controller.run_adaptive(
        {op: pattern for op in graph.sources()},
        duration_s=400.0,
        initial_parallelism={op: 1 for op in graph.operators},
        chaos=ChaosSchedule.parse(chaos) if chaos else None,
        control_chaos=(
            ControlChaosSchedule.parse(control_chaos) if control_chaos else None
        ),
    )
    return _digests(result, controller, tracer, registry)


def _table4():
    tracer = Tracer(run_id="table4")
    registry = MetricRegistry()
    controller = CAPSysController(
        q3_inf(),
        Cluster.homogeneous(R5D_XLARGE.with_slots(8), count=7),
        config=ControllerConfig(seed=0),
        tracer=tracer,
        registry=registry,
    )
    outcomes = controller.run_controlled_steps(
        {"source": 720.0},
        [{"source": 1440.0}, {"source": 2880.0}, {"source": 1440.0}, {"source": 720.0}],
        settle_s=120.0,
        measure_s=180.0,
    )
    return {
        "outcomes": _hash(outcomes),
        "trace": _hash([tracer.to_jsonl("sim")]),
        "metrics": _hash([registry.to_json()]),
    }


CLEAN = {
    "time_s": "bbfa3c2202c697ae",
    "target_rate": "2fc2d2eb36b45120",
    "throughput": "e7ab78a6f4a224f1",
    "backpressure": "6f505ee0d35f29dd",
    "latency_s": "f2b2b5c2c0cfc9cb",
    "total_tasks": "6e10ed6022684d25",
    "events": "c413a7f6bd6b22a7",
    "guard": "af5d8a21858f4280",
    "trace": "75461794e81ff3d2",
    "metrics": "0c5b8ccdf7be6d0e",
    "diagnosis": "2e137f8b25f6540d",
}

PINS = {
    "clean": (_autoscale, CLEAN),
    "late_chaos": (lambda: _autoscale(chaos="crash:w0@500"), CLEAN),
    "data_chaos": (
        lambda: _autoscale(chaos=DATA_CHAOS, checkpoint_s=30.0),
        {
            "time_s": "bbfa3c2202c697ae",
            "target_rate": "2fc2d2eb36b45120",
            "throughput": "9a55b8c98463a8cd",
            "backpressure": "488880c9564ec556",
            "latency_s": "82a2489abe8f6bac",
            "total_tasks": "c033f155c3d37b38",
            "events": "9eb5536de0390627",
            "guard": "af5d8a21858f4280",
            "trace": "b497ef658f428d61",
            "metrics": "8af195d414264d73",
            "diagnosis": "e5c0d5adc19e3415",
        },
    ),
    "disk_diagnosis": (
        lambda: _autoscale(chaos="disk:w3@120x0.25", diagnose=True),
        {
            "time_s": "bbfa3c2202c697ae",
            "target_rate": "2fc2d2eb36b45120",
            "throughput": "aabd6327e3f1e630",
            "backpressure": "23810db2b5359aa3",
            "latency_s": "ff050553573b13bc",
            "total_tasks": "5036f8e004b4a132",
            "events": "a652e499947dc6f7",
            "guard": "af5d8a21858f4280",
            "trace": "1ebfb0b7bef25027",
            "metrics": "5f0892b1d6073c33",
            "diagnosis": "be1fe743a0ce100a",
        },
    ),
    "control_chaos": (
        lambda: _autoscale(control_chaos=CONTROL_CHAOS, diagnose=True),
        {
            "time_s": "bbfa3c2202c697ae",
            "target_rate": "2fc2d2eb36b45120",
            "throughput": "69fa6b4614031ca6",
            "backpressure": "30f7ded2688ead24",
            "latency_s": "9a6f8911ab5c7fee",
            "total_tasks": "6e10ed6022684d25",
            "events": "c413a7f6bd6b22a7",
            "guard": "bcbdafaeca84eab3",
            "trace": "d7b1aa1400346e66",
            "metrics": "e2747b6c770861a3",
            "diagnosis": "273a240eff6c4dcc",
        },
    ),
    "both_planes": (
        lambda: _autoscale(chaos=DATA_CHAOS, control_chaos=CONTROL_CHAOS),
        {
            "time_s": "bbfa3c2202c697ae",
            "target_rate": "2fc2d2eb36b45120",
            "throughput": "265f80daae6efd97",
            "backpressure": "10d4f5d049b0160d",
            "latency_s": "1ea4a0505bffbf2d",
            "total_tasks": "be06b7cd64f4d9be",
            "events": "9c799ac41979636c",
            "guard": "d3087624e7d6258d",
            "trace": "b4059329e8689847",
            "metrics": "d976695360646a0b",
            "diagnosis": "fe3a741c27b23e47",
        },
    ),
    "table4": (
        _table4,
        {
            "outcomes": "ad874ad22b5c288d",
            "trace": "eab6d37dfe80d70d",
            "metrics": "54a062e11ccff2be",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_controller_outputs_match_pin(name):
    build, expected = PINS[name]
    assert build() == expected
