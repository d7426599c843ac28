"""Suite-wide fixtures."""

import pytest

from repro.controller.profiler import clear_profile_memo
from repro.placement.caps import clear_placement_memo


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Each test places CAPS problems and profiles queries as a fresh
    process would.

    The placement and profile memos live for the whole process, so
    without this a test could receive a decision or unit costs an
    earlier test stored instead of running the code path it sets up (a
    monkeypatched search or engine, say).
    """
    clear_placement_memo()
    clear_profile_memo()
    yield
