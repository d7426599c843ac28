"""Suite-wide fixtures."""

import pytest

from repro.controller.profiler import PROFILE_MEMO
from repro.placement.caps import PLACEMENT_MEMO
from repro.simulator.plan_cache import DEFAULT_CACHE


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Each test simulates plans, places CAPS problems and profiles
    queries as a fresh process would.

    The plan cache and the placement and profile memos live for the
    whole process, so without this a test could receive a summary, a
    decision or unit costs an earlier test stored instead of running
    the code path it sets up (a monkeypatched search or engine, say).
    """
    DEFAULT_CACHE.clear()
    PLACEMENT_MEMO.clear()
    PROFILE_MEMO.clear()
    yield
