"""The chaos spec grammar both fault planes share.

Every chaos spec the repo ships is pinned: each string below appears
in CI (``.github/workflows/ci.yml``), a benchmark, the README/DESIGN
examples, the CLI help, or is one output of perfbench's fault
generators. The expected events are literal tuples
(``dataclasses.astuple`` of each parsed event, in schedule order)
together with the canonical ``spec()`` text, so any change to the
grammar that would alter what an existing run injects fails here
first. A property then checks ``parse(s.spec()) == s`` on both planes
for arbitrary finite values.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.faults import (
    CONTROL_FAULT_KINDS,
    DEGRADE_KINDS,
    FAULT_KINDS,
    ChaosSchedule,
    ControlChaosSchedule,
    ControlFaultEvent,
    FaultEvent,
)

#: ``(spec, events as (time_s, kind, worker_id, magnitude), spec())``
DATA_PINS = [
    # ci.yml chaos job, README "Fault injection"
    (
        "disk:w1@60x0.4,crash:w2@120,recover:w2@260",
        [(60.0, "disk", 1, 0.4), (120.0, "crash", 2, 1.0), (260.0, "recover", 2, 1.0)],
        "disk:w1@60x0.4,crash:w2@120,recover:w2@260",
    ),
    # ci.yml diagnosis gate, README "Root-cause diagnosis"
    ("disk:w3@120x0.25", [(120.0, "disk", 3, 0.25)], "disk:w3@120x0.25"),
    # bench_fault_recovery.py, DESIGN §8
    (
        "disk:w1@150x0.3,crash:w3@180",
        [(150.0, "disk", 1, 0.3), (180.0, "crash", 3, 1.0)],
        "disk:w1@150x0.3,crash:w3@180",
    ),
    # bench_perf_engine.py (smoke, full)
    (
        "cpu:w1@50x0.5,recover:w1@100",
        [(50.0, "cpu", 1, 0.5), (100.0, "recover", 1, 1.0)],
        "cpu:w1@50x0.5,recover:w1@100",
    ),
    (
        "cpu:w1@200x0.5,recover:w1@380",
        [(200.0, "cpu", 1, 0.5), (380.0, "recover", 1, 1.0)],
        "cpu:w1@200x0.5,recover:w1@380",
    ),
    # bench_diagnosis_overhead.py (smoke, full)
    (
        "disk:w1@50x0.5,recover:w1@100",
        [(50.0, "disk", 1, 0.5), (100.0, "recover", 1, 1.0)],
        "disk:w1@50x0.5,recover:w1@100",
    ),
    (
        "disk:w1@200x0.5,recover:w1@380",
        [(200.0, "disk", 1, 0.5), (380.0, "recover", 1, 1.0)],
        "disk:w1@200x0.5,recover:w1@380",
    ),
    # CLI --chaos help
    (
        "crash:w3@120,recover:w3@300,disk:w1@60x0.4",
        [(60.0, "disk", 1, 0.4), (120.0, "crash", 3, 1.0), (300.0, "recover", 3, 1.0)],
        "disk:w1@60x0.4,crash:w3@120,recover:w3@300",
    ),
    # repro.faults.schedule module docstring
    (
        "crash:w3@120,recover:w3@300,disk:w1@200x0.5,slots:w2@100x2",
        [
            (100.0, "slots", 2, 2.0),
            (120.0, "crash", 3, 1.0),
            (200.0, "disk", 1, 0.5),
            (300.0, "recover", 3, 1.0),
        ],
        "slots:w2@100x2,crash:w3@120,disk:w1@200x0.5,recover:w3@300",
    ),
    # perfbench _data_faults(random.Random("autoscale/0")), first draw
    (
        "disk:w5@580x0.4,crash:w0@1200,recover:w0@1500",
        [
            (580.0, "disk", 5, 0.4),
            (1200.0, "crash", 0, 1.0),
            (1500.0, "recover", 0, 1.0),
        ],
        "disk:w5@580x0.4,crash:w0@1200,recover:w0@1500",
    ),
    # the remaining kinds, the degrade default and fractional times
    (
        "net:w0@10,slots:w2@5.5x3,cpu:w4@0.25x0.125",
        [(0.25, "cpu", 4, 0.125), (5.5, "slots", 2, 3.0), (10.0, "net", 0, 0.5)],
        "cpu:w4@0.25x0.125,slots:w2@5.5x3,net:w0@10x0.5",
    ),
]

#: ``(spec, events as (time_s, kind, operator, duration_s, magnitude),
#: spec())``
CONTROL_PINS = [
    # ci.yml chaos-control job, README "Control-plane resilience"
    (
        "metric_corrupt:opsliding_window@100for120,deploy_fail:@240x2",
        [
            (100.0, "metric_corrupt", "sliding_window", 120.0, None),
            (240.0, "deploy_fail", None, 0.0, 2.0),
        ],
        "metric_corrupt:opsliding_window@100for120,deploy_fail:@240x2",
    ),
    # ci.yml unguarded ablation
    (
        "metric_corrupt:opsliding_window@100for120x50",
        [(100.0, "metric_corrupt", "sliding_window", 120.0, 50.0)],
        "metric_corrupt:opsliding_window@100for120x50",
    ),
    # bench_control_resilience.py (smoke, full)
    (
        "metric_corrupt:opsliding_window@100for40x50,deploy_fail:@140x2",
        [
            (100.0, "metric_corrupt", "sliding_window", 40.0, 50.0),
            (140.0, "deploy_fail", None, 0.0, 2.0),
        ],
        "metric_corrupt:opsliding_window@100for40x50,deploy_fail:@140x2",
    ),
    (
        "metric_corrupt:opsliding_window@200for80x50,deploy_fail:@290x2",
        [
            (200.0, "metric_corrupt", "sliding_window", 80.0, 50.0),
            (290.0, "deploy_fail", None, 0.0, 2.0),
        ],
        "metric_corrupt:opsliding_window@200for80x50,deploy_fail:@290x2",
    ),
    # CLI --control-chaos help
    (
        "metric_corrupt:opwork@300for60,deploy_fail:@600x2",
        [
            (300.0, "metric_corrupt", "work", 60.0, None),
            (600.0, "deploy_fail", None, 0.0, 2.0),
        ],
        "metric_corrupt:opwork@300for60,deploy_fail:@600x2",
    ),
    # perfbench _control_faults(random.Random("autoscale/0")) after two
    # _data_faults draws, as autoscale_ops makes them
    (
        "metric_corrupt:opsliding_window@770for80x50,deploy_fail:@1460x2",
        [
            (770.0, "metric_corrupt", "sliding_window", 80.0, 50.0),
            (1460.0, "deploy_fail", None, 0.0, 2.0),
        ],
        "metric_corrupt:opsliding_window@770for80x50,deploy_fail:@1460x2",
    ),
    # every control kind once
    (
        "metric_corrupt:opwork@100for40x50,metric_drop:opsrc@30,"
        "profile_stale:@200for60,deploy_fail:@150x2,deploy_delay:@300x12.5",
        [
            (30.0, "metric_drop", "src", 0.0, None),
            (100.0, "metric_corrupt", "work", 40.0, 50.0),
            (150.0, "deploy_fail", None, 0.0, 2.0),
            (200.0, "profile_stale", None, 60.0, None),
            (300.0, "deploy_delay", None, 0.0, 12.5),
        ],
        "metric_drop:opsrc@30,metric_corrupt:opwork@100for40x50,"
        "deploy_fail:@150x2,profile_stale:@200for60,deploy_delay:@300x12.5",
    ),
]


@pytest.mark.parametrize(
    "schedule_type, spec, events, canonical",
    [pytest.param(ChaosSchedule, *pin, id=pin[0]) for pin in DATA_PINS]
    + [pytest.param(ControlChaosSchedule, *pin, id=pin[0]) for pin in CONTROL_PINS],
)
def test_shipped_spec_parses_as_pinned(schedule_type, spec, events, canonical):
    schedule = schedule_type.parse(spec)
    assert [dataclasses.astuple(event) for event in schedule] == events
    assert schedule.spec() == canonical
    assert schedule_type.parse(canonical) == schedule


finite = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
positive = st.floats(
    min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False
)
counts = st.integers(min_value=1, max_value=2**60).map(float)


@st.composite
def fault_events(draw):
    kind = draw(st.sampled_from(FAULT_KINDS))
    magnitude = 1.0
    if kind in DEGRADE_KINDS:
        magnitude = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    elif kind == "slots":
        magnitude = draw(counts)
    return FaultEvent(draw(finite), kind, draw(st.integers(0, 2**31)), magnitude)


@st.composite
def control_events(draw):
    kind = draw(st.sampled_from(CONTROL_FAULT_KINDS))
    operator = duration_s = magnitude = None
    if kind in ("metric_drop", "metric_corrupt"):
        operator = draw(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True))
    if kind in ("metric_drop", "metric_corrupt", "profile_stale"):
        duration_s = draw(finite)
    if kind == "metric_corrupt":
        magnitude = draw(st.none() | positive)
    elif kind == "deploy_fail":
        magnitude = draw(st.none() | counts)
    elif kind == "deploy_delay":
        magnitude = draw(positive)
    return ControlFaultEvent(draw(finite), kind, operator, duration_s or 0.0, magnitude)


def unique(events):
    return st.lists(events, max_size=6, unique_by=lambda event: event.sort_key())


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        unique(fault_events()).map(ChaosSchedule),
        unique(control_events()).map(ControlChaosSchedule),
    )
)
@example(ChaosSchedule([FaultEvent(123.4567, "disk", 1, 0.123456789)]))
@example(ControlChaosSchedule([ControlFaultEvent(0.1 + 0.2, "deploy_delay", magnitude=1e-7)]))
def test_spec_round_trips(schedule):
    assert type(schedule).parse(schedule.spec()) == schedule
