"""Pinned digests of the generated Nexmark datasets.

Every runtime pin (``test_runtime_state_pins.py``,
``test_runtime_parallel.py``, ``test_runtime_diagnosis_pins.py``) and
every perfbench ``runtime`` digest is computed from these streams, so a
change to how the generator draws or builds its records must keep each
digest below exactly. A digest covers the ``repr`` of every record in
order, so it moves with any field of any record, or with the order.
"""

import hashlib

import pytest

from repro.experiments import validate_runtime
from repro.workloads.nexmark import NexmarkGenerator


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


#: (generator keyword arguments, events taken) -> digest of ``take()``.
#: 20,000 events at the default proportions open more than the 500 live
#: auctions a bid draws from, so the oldest start to drop out.
STREAM_PINS = [
    ({"seed": 0}, 20_000, "e7cc535cccd7cbcd"),
    ({"seed": 7}, 5_000, "f03dfc0ccfe5ba93"),
    ({"seed": 42}, 5_000, "40d89f2eb3471e79"),
    ({"seed": 11, "events_per_second": 333.3}, 8_000, "cf9577c801616b13"),
    (
        {"seed": 3, "person_proportion": 2, "auction_proportion": 5,
         "bid_proportion": 13},
        6_000,
        "99615112f3b31628",
    ),
    ({"seed": 5, "auction_duration_ms": 12_345}, 3_000, "88b64d6aeae5e5f2"),
]


@pytest.mark.parametrize(
    "kwargs,count,expected",
    STREAM_PINS,
    ids=[f"{'-'.join(f'{k}={v}' for k, v in kw.items())}-{n}"
         for kw, n, _ in STREAM_PINS],
)
def test_take_streams_are_pinned(kwargs, count, expected):
    assert _digest(NexmarkGenerator(**kwargs).take(count)) == expected


#: validate-runtime scenario -> (simulated seconds, rate scale), as the
#: perfbench ``runtime`` workload runs them.
SCENARIO_SETTINGS = {"q1": (4.0, 1.0), "q2": (12.0, 4.0), "q6": (12.0, 1.0)}

#: (query, seed) -> digest of the scenario's source rates and records.
SCENARIO_PINS = {
    ("q1", 0): "a45d061455e561af",
    ("q2", 0): "9d7bf2487c01ed63",
    ("q6", 0): "8a8e5ac52f2b43fe",
    ("q1", 7): "e5882fc089260692",
    ("q2", 7): "5152a412e49977cb",
    ("q6", 7): "b1719a90537d70e5",
}


@pytest.mark.parametrize("query,seed", sorted(SCENARIO_PINS))
def test_validation_datasets_are_pinned(query, seed):
    duration_s, rate_scale = SCENARIO_SETTINGS[query]
    scenario = validate_runtime.SCENARIOS[query](duration_s, rate_scale, seed)
    items = [sorted(scenario.source_rates.items())]
    for source in scenario.template.sources:
        items.append(source.tag)
        items.extend((r.timestamp_ms, r.value) for r in source.records)
    assert _digest(items) == SCENARIO_PINS[(query, seed)]
