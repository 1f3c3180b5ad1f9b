"""Property tests for window-manager visibility invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.display import WindowServer
from repro.display.wm import TITLE_BAR_HEIGHT, WindowManager
from repro.region import Rect, Region

W, H = 160, 120

window_rects = st.builds(
    Rect,
    st.integers(-20, W - 20),
    st.integers(-10, H - 30),
    st.integers(30, 90),
    st.integers(TITLE_BAR_HEIGHT + 10, 80),
)


def build(rects):
    ws = WindowServer(W, H)
    wm = WindowManager(ws)
    windows = [wm.create_window(f"w{i}", r) for i, r in enumerate(rects)]
    return ws, wm, windows


class TestVisibilityInvariants:
    @given(st.lists(window_rects, min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_visible_regions_are_disjoint(self, rects):
        ws, wm, windows = build(rects)
        regions = [wm.visible_region(w) for w in windows]
        for i, a in enumerate(regions):
            for b in regions[i + 1 :]:
                assert not a.overlaps(b)

    @given(st.lists(window_rects, min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_visible_regions_tile_the_window_area(self, rects):
        """Visible parts + desktop = the whole screen, exactly."""
        ws, wm, windows = build(rects)
        onscreen = Region()
        for w in windows:
            onscreen.add(w.frame.intersect(ws.screen.bounds))
        covered = Region()
        for w in windows:
            covered = covered.union(wm.visible_region(w))
        assert covered == onscreen

    @given(st.lists(window_rects, min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_top_window_fully_visible(self, rects):
        ws, wm, windows = build(rects)
        top = windows[-1]
        expected = top.frame.intersect(ws.screen.bounds)
        assert wm.visible_region(top) == Region.from_rect(expected)

    @given(st.lists(window_rects, min_size=2, max_size=4),
           st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_raise_preserves_invariants(self, rects, which):
        ws, wm, windows = build(rects)
        wm.raise_window(windows[which % len(windows)])
        regions = [wm.visible_region(w) for w in wm.windows]
        for i, a in enumerate(regions):
            for b in regions[i + 1 :]:
                assert not a.overlaps(b)
        assert wm.visible_region(wm.focused) == Region.from_rect(
            wm.focused.frame.intersect(ws.screen.bounds))

    @given(st.lists(window_rects, min_size=1, max_size=4),
           st.integers(-40, 40), st.integers(-40, 40))
    @settings(max_examples=30, deadline=None)
    def test_move_keeps_screen_consistent(self, rects, dx, dy):
        """After any move, the screen equals a from-scratch repaint."""
        ws, wm, windows = build(rects)
        wm.move_window(windows[-1], dx, dy)
        # Rebuild the same final scene on a fresh server.
        ws2 = WindowServer(W, H)
        wm2 = WindowManager(ws2)
        for w in wm.windows:
            wm2.create_window(w.title, w.frame)
        assert ws2.screen.fb.same_as(ws.screen.fb)
