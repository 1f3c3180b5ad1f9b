"""Tests for the stacking window manager."""

import pytest

from repro.display import WindowServer
from repro.display.wm import WindowManager
from repro.region import Rect

CONTENT_A = (250, 200, 200, 255)
CONTENT_B = (200, 250, 200, 255)


@pytest.fixture
def rig():
    ws = WindowServer(200, 150)
    wm = WindowManager(ws)
    return ws, wm


def px(ws, x, y):
    return tuple(ws.screen.fb.data[y, x])


class TestLifecycle:
    def test_desktop_painted_initially(self, rig):
        ws, wm = rig
        assert px(ws, 100, 75) == wm.desktop_color

    def test_window_appears_with_frame_and_content(self, rig):
        ws, wm = rig
        win = wm.create_window("app", Rect(20, 20, 80, 60),
                               content_color=CONTENT_A)
        assert px(ws, 60, 25) != wm.desktop_color  # title bar
        assert px(ws, 60, 50) == CONTENT_A  # content area
        assert wm.focused is win

    def test_too_small_window_rejected(self, rig):
        ws, wm = rig
        with pytest.raises(ValueError):
            wm.create_window("tiny", Rect(0, 0, 10, 10))

    def test_unmanaged_window_operations_rejected(self, rig):
        ws, wm = rig
        win = WindowManager(ws).create_window("app", Rect(20, 20, 80, 60))
        with pytest.raises(ValueError):
            wm.raise_window(win)
        with pytest.raises(ValueError):
            wm.move_window(win, 5, 5)


class TestStacking:
    def test_top_window_obscures_lower(self, rig):
        ws, wm = rig
        wm.create_window("below", Rect(20, 20, 80, 60),
                         content_color=CONTENT_A)
        wm.create_window("above", Rect(50, 40, 80, 60),
                         content_color=CONTENT_B)
        # Overlap area shows the upper window's content.
        assert px(ws, 80, 70) == CONTENT_B

    def test_raise_uncovers_content(self, rig):
        ws, wm = rig
        below = wm.create_window("below", Rect(20, 20, 80, 60),
                                 content_color=CONTENT_A)
        wm.create_window("above", Rect(50, 40, 80, 60),
                         content_color=CONTENT_B)
        wm.raise_window(below)
        assert wm.focused is below
        assert px(ws, 80, 60) == CONTENT_A

    def test_visible_region_subtracts_higher_windows(self, rig):
        ws, wm = rig
        below = wm.create_window("below", Rect(20, 20, 80, 60))
        wm.create_window("above", Rect(50, 40, 80, 60))
        visible = wm.visible_region(below)
        assert visible.area < below.frame.area
        assert not visible.contains_point(60, 50)


class TestMovement:
    def test_move_carries_content(self, rig):
        ws, wm = rig
        win = wm.create_window("app", Rect(20, 20, 80, 60),
                               content_color=CONTENT_A)
        wm.move_window(win, 40, 30)
        assert win.frame == Rect(60, 50, 80, 60)
        assert px(ws, 100, 80) == CONTENT_A
        # The vacated area shows the desktop again.
        assert px(ws, 25, 25) == wm.desktop_color

    def test_move_uses_copy_not_pixels(self, rig):
        ws, wm = rig
        win = wm.create_window("app", Rect(20, 20, 80, 60))
        before = ws.op_counts.get("copy_area", 0)
        wm.move_window(win, 10, 10)
        assert ws.op_counts["copy_area"] > before

    def test_move_exposes_lower_window(self, rig):
        ws, wm = rig
        wm.create_window("below", Rect(20, 20, 80, 60),
                         content_color=CONTENT_A)
        above = wm.create_window("above", Rect(50, 40, 80, 60),
                                 content_color=CONTENT_B)
        wm.move_window(above, 60, 40)
        # The previously covered corner of `below` is repainted.
        assert px(ws, 80, 60) == CONTENT_A

    def test_move_partially_offscreen(self, rig):
        ws, wm = rig
        win = wm.create_window("app", Rect(20, 20, 80, 60),
                               content_color=CONTENT_A)
        wm.move_window(win, 150, 0)
        # Only the onscreen sliver is drawn; no exceptions, desktop
        # repaired behind.
        assert px(ws, 25, 50) == wm.desktop_color
        assert px(ws, 180, 50) == CONTENT_A


class TestDrawing:
    def test_draw_in_window_flushes_visible_part(self, rig):
        ws, wm = rig
        win = wm.create_window("app", Rect(20, 20, 100, 80),
                               content_color=CONTENT_A)

        def paint(server, backing):
            server.fill_rect(backing, Rect(0, 0, 40, 20), (0, 0, 255, 255))

        wm.draw_in_window(win, paint)
        content = win.content_rect
        assert px(ws, content.x + 5, content.y + 5) == (0, 0, 255, 255)

    def test_draw_in_obscured_window_does_not_bleed_through(self, rig):
        ws, wm = rig
        below = wm.create_window("below", Rect(20, 20, 80, 60),
                                 content_color=CONTENT_A)
        wm.create_window("above", Rect(20, 20, 80, 60),
                         content_color=CONTENT_B)

        def paint(server, backing):
            server.fill_rect(backing, backing.bounds, (255, 0, 255, 255))

        wm.draw_in_window(below, paint)
        # Fully covered: the top window's content still shows.
        assert px(ws, 60, 50) == CONTENT_B
        # But the backing store was updated for later exposes.
        wm.raise_window(below)
        assert px(ws, 60, 50) == (255, 0, 255, 255)


class TestThroughTHINC:
    def test_desktop_session_pixel_exact_over_network(self):
        from repro.core import THINCClient, THINCServer
        from repro.net import Connection, EventLoop, LAN_DESKTOP

        loop = EventLoop()
        conn = Connection(loop, LAN_DESKTOP)
        server = THINCServer(loop, 200, 150)
        ws = WindowServer(200, 150, driver=server.driver, clock=loop.clock)
        server.attach_client(conn)
        client = THINCClient(loop, conn)

        wm = WindowManager(ws)
        a = wm.create_window("editor", Rect(10, 10, 100, 80),
                             content_color=CONTENT_A)
        b = wm.create_window("terminal", Rect(60, 50, 100, 80),
                             content_color=CONTENT_B)
        wm.draw_in_window(a, lambda s, d: s.draw_text(
            d, 4, 4, "hello world", (0, 0, 0, 255)))
        wm.move_window(b, 25, 15)
        wm.raise_window(a)
        loop.run_until_idle(max_time=10)
        assert client.fb.same_as(ws.screen.fb)


class TestInteractiveDesktop:
    def test_click_to_focus_over_the_network(self):
        """Full loop: client clicks, server routes to the WM, the
        raised window's newly exposed content reaches the client."""
        from repro.core import THINCClient, THINCServer
        from repro.net import Connection, EventLoop, LAN_DESKTOP

        loop = EventLoop()
        conn = Connection(loop, LAN_DESKTOP)
        server = THINCServer(loop, 200, 150)
        ws = WindowServer(200, 150, driver=server.driver, clock=loop.clock)
        server.attach_client(conn)
        client = THINCClient(loop, conn)
        wm = WindowManager(ws)
        below = wm.create_window("below", Rect(20, 20, 80, 60),
                                 content_color=CONTENT_A)
        wm.create_window("above", Rect(50, 40, 80, 60),
                         content_color=CONTENT_B)

        def route_click(session, msg):
            for target in wm.windows:
                if wm.visible_region(target).contains_point(msg.x, msg.y):
                    wm.raise_window(target)

        server.input_handler = route_click
        # Click on the visible corner of the lower window.
        client.send_input("mouse-click", 25, 25)
        loop.run_until_idle(max_time=5)
        assert wm.focused is below
        assert client.fb.same_as(ws.screen.fb)
        assert tuple(client.fb.data[60, 80]) == CONTENT_A  # uncovered
