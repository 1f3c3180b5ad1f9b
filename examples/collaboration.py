#!/usr/bin/env python
"""Screen sharing: one session, many clients.

The paper's Section 7 lets peers join the same display session for
collaboration: every client then sees the same desktop (updates are
multiplexed to all), each scaled to its own viewport.  Attaching here
carries no credentials; Section 7's accounts and session passwords are
out of scope.

This example walks the display side of that flow: a peer joining
mid-session (and receiving the current screen) on a PDA-sized viewport
that gets server-resized updates.

Run:  python examples/collaboration.py
"""

from repro.core import THINCClient, THINCServer
from repro.display import WindowServer
from repro.net import Connection, EventLoop, LAN_DESKTOP, WAN_DESKTOP
from repro.region import Rect

WHITE = (255, 255, 255, 255)
INK = (20, 20, 40, 255)


def main() -> None:
    loop = EventLoop()
    server = THINCServer(loop, 400, 300)
    ws = WindowServer(400, 300, driver=server.driver, clock=loop.clock)

    alice_conn = Connection(loop, LAN_DESKTOP)
    server.attach_client(alice_conn)
    alice = THINCClient(loop, alice_conn)

    # Alice starts working before Bob arrives.
    ws.fill_rect(ws.screen, ws.screen.bounds, WHITE)
    ws.draw_text(ws.screen, 10, 10, "design review notes", INK)
    ws.draw_rect_outline(ws.screen, Rect(10, 30, 200, 120), INK)
    loop.run_until_idle(max_time=5)

    # Bob joins mid-session over a WAN, on a small-screen device, and
    # receives the current screen, resized by the server.
    bob_conn = Connection(loop, WAN_DESKTOP)
    server.attach_client(bob_conn, viewport=(200, 150))
    bob = THINCClient(loop, bob_conn)
    loop.run_until_idle(max_time=5)

    # Further drawing reaches both.
    ws.draw_text(ws.screen, 16, 40, "bob: looks good", (160, 30, 30, 255))
    loop.run_until_idle(max_time=5)

    print(f"alice pixel-exact  : {alice.fb.same_as(ws.screen.fb)}")
    print(f"bob viewport       : {bob.fb.width}x{bob.fb.height} "
          f"(server 400x300)")
    print(f"bob has content    : {bob.total_commands() > 0} "
          f"({bob.total_commands()} commands)")


if __name__ == "__main__":
    main()
