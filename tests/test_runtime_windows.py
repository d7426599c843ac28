"""Unit tests for window assigners and session merging."""

import copy
import pickle

import pytest

from repro.runtime.windows import SessionMerger, SlidingWindows, TumblingWindows, Window


class TestWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            Window(10, 10)
        with pytest.raises(ValueError):
            Window(10, 5)

    def test_contains_half_open(self):
        w = Window(0, 10)
        assert w.contains(0)
        assert w.contains(9)
        assert not w.contains(10)

    def test_intersects_and_merge(self):
        a, b, c = Window(0, 10), Window(5, 15), Window(20, 30)
        assert a.intersects(b)
        assert not a.intersects(c)
        assert a.merge(b) == Window(0, 15)

    def test_adjacent_windows_do_not_intersect(self):
        assert not Window(0, 10).intersects(Window(10, 20))

    def test_fields_repr_and_order(self):
        w = Window(0, 10)
        assert (w.start_ms, w.end_ms) == (0, 10)
        assert repr(w) == "Window(start_ms=0, end_ms=10)"
        assert sorted([Window(5, 6), Window(0, 10), Window(0, 5)]) == [
            Window(0, 5), Window(0, 10), Window(5, 6)
        ]
        with pytest.raises(AttributeError):
            w.start_ms = 3

    def test_hashes_like_the_pair_it_holds(self):
        # state slots keyed by windows hash as they did when Window was
        # a frozen dataclass, so sets of slots iterate in the same order
        assert hash(Window(0, 10)) == hash((0, 10))
        assert len({Window(0, 10), Window(0, 10), Window(0, 11)}) == 2

    @pytest.mark.parametrize(
        "roundtrip",
        [copy.copy, copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_and_pickles(self, roundtrip):
        w = Window(3, 8)
        back = roundtrip(w)
        assert back == w and type(back) is Window
        assert (back.start_ms, back.end_ms) == (3, 8)
        slots = {("k", w): [1, 2]}
        assert roundtrip(slots) == slots


class TestTumbling:
    def test_assigns_single_window(self):
        assigner = TumblingWindows(10)
        assert assigner.assign(0) == [Window(0, 10)]
        assert assigner.assign(9) == [Window(0, 10)]
        assert assigner.assign(10) == [Window(10, 20)]

    def test_validation(self):
        with pytest.raises(ValueError):
            TumblingWindows(0)


class TestSliding:
    def test_pane_multiplicity(self):
        assigner = SlidingWindows(10, 2)
        windows = assigner.assign(11)
        assert len(windows) == 5  # size/slide panes
        for w in windows:
            assert w.contains(11)

    def test_windows_are_aligned_to_slide(self):
        assigner = SlidingWindows(10, 5)
        for w in assigner.assign(12):
            assert w.start_ms % 5 == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindows(10, 3)  # size not a multiple of slide
        with pytest.raises(ValueError):
            SlidingWindows(0, 1)


class TestSessionMerger:
    def test_isolated_elements_make_isolated_sessions(self):
        m = SessionMerger(gap_ms=5)
        m.add("k", 0)
        m.add("k", 100)
        assert len(m.sessions("k")) == 2

    def test_close_elements_merge(self):
        m = SessionMerger(gap_ms=5)
        m.add("k", 0)
        merged = m.add("k", 3)
        assert merged == Window(0, 8)
        assert m.sessions("k") == [Window(0, 8)]

    def test_bridge_element_merges_two_sessions(self):
        m = SessionMerger(gap_ms=5)
        m.add("k", 0)
        m.add("k", 8)
        assert len(m.sessions("k")) == 2
        merged = m.add("k", 4)
        assert merged == Window(0, 13)
        assert len(m.sessions("k")) == 1

    def test_keys_are_independent(self):
        m = SessionMerger(gap_ms=5)
        m.add("a", 0)
        m.add("b", 1)
        assert len(m.sessions("a")) == 1
        assert len(m.sessions("b")) == 1

    def test_expire_before(self):
        m = SessionMerger(gap_ms=5)
        m.add("k", 0)   # session [0, 5)
        m.add("k", 100)  # session [100, 105)
        closed = m.expire_before("k", 50)
        assert closed == [Window(0, 5)]
        assert m.sessions("k") == [Window(100, 105)]

    def test_expiry_is_strict_at_the_boundary(self):
        """A watermark exactly at a session's end must not expire it: an
        element stamped at the end (still allowed by that watermark)
        would merge into the session, since merging is gap-inclusive."""
        m = SessionMerger(gap_ms=5)
        m.add("k", 0)  # session [0, 5)
        assert m.expire_before("k", 5) == []
        merged = m.add("k", 5)
        assert merged == Window(0, 10)
        assert m.expire_before("k", 11) == [Window(0, 10)]

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionMerger(0)
