"""The server's one link probe.

Every plane that adapts to the client's pipe — the adaptive encoder's
posture classes, the QoS ladder's congestion polls — asks the same
question of the same three signals: has the governor (or the
resilience plane) already flagged the session, how many bytes sit in
front of the link (session buffer plus the transport's send buffer),
and how close is the monitored downlink rate to the link's capacity.
:class:`LinkHealth` answers it once per session per
:data:`PROBE_INTERVAL` and is the only caller of
:meth:`~repro.codec.EncoderPolicy.posture_for` in the tree, so the
planes can never disagree about a link — and a threshold is tuned in
exactly one place, the server's :class:`~repro.codec.EncoderPolicy`.
"""

from __future__ import annotations

from ..codec import EncoderPolicy, LinkPosture

__all__ = ["LinkHealth", "PROBE_INTERVAL", "PROBE_WINDOW"]

#: Simulated seconds a verdict stays fresh.  Scanning the packet trace
#: per submitted command would turn the monitor into the hot path; the
#: QoS ladder moves at most one rung per interval for the same reason
#: it polls at most once per interval.
PROBE_INTERVAL = 0.05

#: Trailing window over which downlink throughput is measured against
#: link capacity (also what a recovery refresh must age out of before
#: verdicts are trustworthy again).
PROBE_WINDOW = 0.25


class LinkHealth:
    """Per-session downlink posture, memoised per probe interval.

    A window opens at the first question asked :data:`PROBE_INTERVAL`
    or more after the last one opened; each verdict is kept on its
    unit as ``link_posture = (window, posture)`` and holds for the rest
    of that window.
    """

    def __init__(self, loop, policy: EncoderPolicy):
        self.loop = loop
        self.policy = policy
        self._window = float("-inf")

    def posture(self, session) -> LinkPosture:
        """What *session*'s downlink can afford right now.

        DEGRADED when the session is already flagged degraded or shed,
        when its backlog exceeds the policy's drain horizon, or when
        measured throughput over the trailing window sits within the
        policy's saturation fraction of capacity; PLENTIFUL on a
        nearly idle LAN-class link; LOSSLESS otherwise — including for
        a detached session, which has no link to measure.
        """
        now = self.loop.now
        if now - self._window >= PROBE_INTERVAL:
            self._window = now
        memo = session.link_posture
        if memo is not None and memo[0] == self._window:
            return memo[1]
        posture = self._probe(session, now)
        session.link_posture = (self._window, posture)
        return posture

    def congested(self, session) -> bool:
        """The QoS ladder's poll: is the downlink the bottleneck?"""
        return self.posture(session) is LinkPosture.DEGRADED

    def _probe(self, session, now: float) -> LinkPosture:
        if session.degraded or session.shed_display:
            return LinkPosture.DEGRADED
        if session.connection is None:
            return LinkPosture.LOSSLESS
        down = session.connection.down
        measured = None
        if down.monitor is not None:
            measured = down.monitor.rate("server->client",
                                         window=PROBE_WINDOW, now=now)
        # Commands still queued in the session buffer plus bytes
        # flushed into the transport's bounded send buffer but not yet
        # delivered: both sit in front of the link.
        backlog = session.buffer.pending_bytes() + down.queued_bytes
        return self.policy.posture_for(
            measured, down.link.throughput * 8.0, backlog)
