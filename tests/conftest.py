"""Suite-wide fixtures."""

import pytest

from repro.placement.caps import clear_placement_memo


@pytest.fixture(autouse=True)
def _fresh_placement_memo():
    """Each test places CAPS problems as a fresh process would.

    The placement memo lives for the whole process, so without this a
    test could receive a decision an earlier test stored instead of
    running the code path it sets up (a monkeypatched search, say).
    """
    clear_placement_memo()
    yield
