"""Adaptive QoS plane: degrade video before interactivity, recover.

Covers the ladder transforms, the descriptor wire loop, the governor's
QoS-aware shed order, migration of the rung, and the acceptance
scenario from the issue: on a 256 kbit/s link with bursty cross
traffic, input-to-update latency stays within 2x the uncontended run
while video walks the degradation ladder; an uncontended twin stays
byte-identical to the fixed-rate path; and once the faults clear the
session ramps back to full-rate video and converges pixel-exact.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import EncoderPolicy
from repro.cluster.scenario import Scenario
from repro.core import qos
from repro.core.governor import Budget
from repro.core.link_health import PROBE_INTERVAL
from repro.core.qos import MAX_RUNG, QosConfig, QosPlane
from repro.core.session_unit import FrozenSession
from repro.net import Connection, PacketMonitor
from repro.net.faults import FaultPlan
from repro.net.link import PDA_80211G
from repro.protocol import wire
from repro.region import Rect
from repro.video import yuv
from repro.video.stream import SyntheticVideoClip

from ..helpers import (assert_pixel_identical, client_spec, fast_qos,
                       make_multi_rig)

#: The issue's contended link: a 256 kbit/s thin pipe.
THIN_256K = replace(PDA_80211G, name="256k thin", bandwidth_bps=256e3)


def make_qos_rig(width=96, height=64, link=None, plan=None,
                 send_buffer=None, **server_kw):
    """A single-client rig whose connection honours a fault plan."""
    run = Scenario(width, height, server=server_kw, clients=(client_spec(
        link or THIN_256K, plan, send_buffer=send_buffer),)).build()
    return (run.loop, run.links[0], run.monitor, run.servers[0],
            run.screens[0], run.clients[0])


def play_clip(loop, ws, clip, dst, start=0.0, end=None):
    """Schedule a full clip presentation; returns the stream handle
    holder (filled at start time)."""
    holder = {}

    def begin():
        holder["stream"] = ws.video_create_stream(
            "YV12", clip.width, clip.height, dst)
        put(0)

    def put(i):
        if i >= clip.frame_count or (end is not None
                                     and loop.now >= end):
            ws.video_destroy_stream(holder["stream"])
            holder["done_at"] = loop.now
            return
        ws.video_put_frame(holder["stream"], clip.yv12_frame(i))
        loop.schedule(clip.frame_interval, lambda: put(i + 1))

    loop.schedule_at(start, begin)
    return holder


class TestConfigAndDefaults:
    def test_off_by_default(self):
        loop, conn, mon, server, ws, client = make_qos_rig()
        assert server.qos is None
        assert not any(k.startswith("qos_") for k in server.stats)

    def test_enabled_exposes_stats(self):
        loop, conn, mon, server, ws, client = make_qos_rig(
            qos=QosConfig())
        assert isinstance(server.qos, QosPlane)
        assert server.stats["qos_polls"] == 0

    def test_descriptors_tighten_monotonically(self):
        loop, conn, mon, server, ws, client = make_qos_rig(
            qos=QosConfig())
        plane = server.qos
        descs = [plane.descriptor(r) for r in range(MAX_RUNG + 1)]
        assert descs[0] == (1, 0, 0)
        for lighter, heavier in zip(descs, descs[1:]):
            assert all(h >= l for l, h in zip(lighter, heavier))
        # Every reachable rung's descriptor encodes within WireLimits.
        for rung in range(MAX_RUNG + 1):
            msg = plane.quality_message(3, rung)
            (back,) = wire.StreamParser().feed(wire.encode_message(msg))
            assert back == msg


class TestLadderTransforms:
    def _frame_cmd(self, w=32, h=24, seed=3):
        from repro.protocol.commands import VideoFrameCommand

        rng = np.random.default_rng(seed)
        rgb = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        return VideoFrameCommand(1, Rect(0, 0, 64, 48), w, h,
                                 yuv.encode_frame("YV12", rgb),
                                 frame_no=4)

    def _plane(self):
        loop, conn, mon, server, ws, client = make_qos_rig(
            qos=QosConfig())
        return server.qos

    def test_rung0_and_rung1_pass_the_original_object(self):
        plane = self._plane()
        cmd = self._frame_cmd()
        assert plane._transform(cmd, 1) is cmd

    def test_rung2_steps_resolution_down(self):
        plane = self._plane()
        cmd = self._frame_cmd(w=32, h=24)
        out = plane._transform(cmd, 2)
        assert (out.src_width, out.src_height) == (16, 12)
        assert out.dest == cmd.dest  # client scaling: no wire change
        assert out.frame_no == cmd.frame_no
        assert len(out.yuv_bytes) < len(cmd.yuv_bytes)

    def test_rung3_quantises_on_top(self, monkeypatch):
        monkeypatch.setattr(qos, "QSTEP", 32)
        plane = self._plane()
        cmd = self._frame_cmd(w=32, h=24)
        r2 = plane._transform(cmd, 2)
        r3 = plane._transform(cmd, 3)
        assert (r3.src_width, r3.src_height) == (r2.src_width,
                                                 r2.src_height)
        # The quantised surface has far fewer distinct luma values.
        rgb2 = yuv.decode_frame("YV12", r2.yuv_bytes, 16, 12)
        rgb3 = yuv.decode_frame("YV12", r3.yuv_bytes, 16, 12)
        assert len(np.unique(rgb3)) < len(np.unique(rgb2))

    def test_even_dimensions_preserved(self, monkeypatch):
        monkeypatch.setattr(qos, "SCALE_SHIFT", 3)
        plane = self._plane()
        cmd = self._frame_cmd(w=10, h=6)
        out = plane._transform(cmd, 2)
        assert out.src_width % 2 == 0 and out.src_height % 2 == 0
        assert out.src_width >= 2 and out.src_height >= 2
        # And the payload still decodes at the declared geometry.
        yuv.decode_frame("YV12", out.yuv_bytes,
                         out.src_width, out.src_height)


class TestOneDispatchPerFrame:
    def test_rung0_and_rung1_share_one_prepare(self):
        """Rung 1 passes an on-grid frame as the very object rung 0
        gets, so a rung-0 and a rung-1 session receive it from one
        prepare-plane dispatch: one miss pays for it, the other hits."""
        loop, mon, server, ws, clients = make_multi_rig(
            [None, None], qos=QosConfig())
        zero, one = server.sessions
        one.qos_rung = 1
        clip = SyntheticVideoClip(16, 12, 4)
        stream = ws.video_create_stream("YV12", 16, 12, Rect(0, 0, 32, 24))
        ws.video_put_frame(stream, clip.yv12_frame(0))  # frame 1: off grid
        stats = server.plane.stats
        misses, hits = stats["cache_misses"], stats["cache_hits"]
        submits = []
        submit = server.plane.submit
        server.plane.submit = lambda cmd, group: (
            submits.append(list(group)), submit(cmd, group))
        ws.video_put_frame(stream, clip.yv12_frame(1))  # frame 2: on grid
        assert one.qos_rung == 1
        assert submits == [[zero, one]]
        assert (stats["cache_misses"] - misses, stats["cache_hits"] - hits) \
            == (1, 1)


class TestShedOrderWithGovernor:
    def test_video_rungs_shed_before_audio_degrade(self):
        # A tight degrade line on a slow link: each RAW image blows
        # past it (video alone never does — VFRAME's overwrite
        # eviction keeps its backlog at one frame).  The server's link
        # probe is neutered (saturation 1.0, a huge drain horizon) so
        # the queue spike reaches the governor before the ladder acts
        # on its own — isolating the shed-order path.
        budget = Budget(degrade_queue_bytes=512)
        loop, conn, mon, server, ws, client = make_qos_rig(
            link=replace(THIN_256K, bandwidth_bps=64e3),
            budget=budget, qos=QosConfig())
        server.health.policy = policy = EncoderPolicy()
        policy.saturation, policy.backlog_horizon = 1.0, 1e6
        clip = SyntheticVideoClip(width=16, height=12, fps=12,
                                  duration=1.0)
        play_clip(loop, ws, clip, Rect(64, 40, 32, 24))
        rng = np.random.default_rng(2)
        for k in range(6):
            img = rng.integers(0, 256, (64, 64, 4), dtype=np.uint8)
            loop.schedule_at(0.1 + 0.1 * k,
                             lambda img=img: ws.put_image(
                                 ws.screen, Rect(0, 0, 64, 64), img))
        loop.run_until_idle(max_time=60)
        g = server.governor.stats
        assert g["video_rungs_shed"] >= 1
        # Whole video rungs are spent before audio-shedding degraded
        # mode may engage; degrade only after the ladder is exhausted.
        if g["degrade_entered"]:
            assert g["video_rungs_shed"] >= MAX_RUNG

    def test_governor_untouched_when_qos_off(self):
        budget = Budget(degrade_queue_bytes=512)
        loop, conn, mon, server, ws, client = make_qos_rig(
            link=replace(THIN_256K, bandwidth_bps=64e3), budget=budget)
        rng = np.random.default_rng(2)
        for k in range(4):
            img = rng.integers(0, 256, (64, 64, 4), dtype=np.uint8)
            loop.schedule_at(0.1 + 0.1 * k,
                             lambda img=img: ws.put_image(
                                 ws.screen, Rect(0, 0, 64, 64), img))
        loop.run_until_idle(max_time=60)
        assert server.governor.stats["video_rungs_shed"] == 0
        assert server.governor.stats["degrade_entered"] >= 1


class TestMigrationCarriesRung:
    def test_frozen_surface_roundtrips_rung(self):
        loop, conn, mon, server, ws, client = make_qos_rig(
            qos=QosConfig())
        session = server.sessions[0]
        session.qos_rung = 2
        frozen = session.freeze()
        assert frozen.qos_rung == 2
        back = FrozenSession.from_bytes(frozen.to_bytes())
        assert back.qos_rung == 2
        thawed = server.thaw_session(back)
        assert thawed.qos_rung == 2

    def test_out_of_range_rung_rejected(self):
        loop, conn, mon, server, ws, client = make_qos_rig()
        frozen = server.sessions[0].freeze()
        blob = bytearray(frozen.to_bytes())
        # The rung is the last byte of the declared fixed part.
        from repro.core.session_unit import _FROZEN

        blob[_FROZEN.struct.size - 1] = MAX_RUNG + 1
        with pytest.raises(wire.FieldRangeError):
            FrozenSession.from_bytes(bytes(blob))


class TestControllerStateFollowsTheSession:
    """Controller state and the link probe's verdict live on the unit —
    never in a table keyed by ``id()``, which CPython reissues — so
    both die with the session."""

    def _played(self):
        loop, conn, mon, server, ws, client = make_qos_rig(
            qos=QosConfig())
        clip = SyntheticVideoClip(width=16, height=12, fps=12,
                                  duration=0.5)
        play_clip(loop, ws, clip, Rect(0, 0, 32, 24))
        loop.run_until_idle(max_time=10)
        return loop, server

    def test_detach_leaves_no_controller_or_probe_state(self):
        loop, server = self._played()
        session = server.sessions[0]
        posture = server.health.posture(session)
        assert session.qos_state is not None
        assert session.link_posture == (server.health._window, posture)
        server.detach_client(session)
        # A newcomer (who may well be handed the dead session's id)
        # starts from scratch.
        newcomer = server.attach_client(
            Connection(loop, THIN_256K, monitor=PacketMonitor()))
        assert newcomer.qos_state is None
        assert newcomer.link_posture is None
        state = server.qos._state(newcomer)
        assert newcomer.qos_state is state
        assert (state.congested, state.clear, state.submitted) \
            == (0, 0, {})

    def test_quarantine_drops_state_too(self):
        loop, server = self._played()
        session = server.sessions[0]
        assert session.qos_state is not None
        server.governor.quarantine(session, wire.DENY_QUARANTINED)
        assert session not in server.sessions
        # The probe's verdict was held by the unit, and went with it.
        assert session.link_posture is not None

    def test_thawed_session_keeps_rung_with_fresh_hysteresis(self):
        loop, server = self._played()
        session = server.sessions[0]
        session.qos_rung = 2
        state = server.qos._state(session)
        state.congested, state.clear = 1, 2
        assert state.submitted  # frames were counted for the stream
        frozen = FrozenSession.from_bytes(session.freeze().to_bytes())
        server.detach_client(session)
        thawed = server.thaw_session(frozen)
        assert thawed.qos_rung == 2
        assert thawed.qos_state is None
        fresh = server.qos._state(thawed)
        assert (fresh.congested, fresh.clear, fresh.submitted) \
            == (0, 0, {})


def mirror(server):
    """Handle a mirror SUBSCRIBE from the server's first session."""
    server.fanout.handle_subscribe(server.sessions[0], wire.SubscribeMessage(
        wire.SUBSCRIBE_MIRROR, 0, 0, 0))


def run_scenario(plan=None, qos=None, end=3.5, subscribe=False):
    """The issue's scenario: video + interactive traffic on the 256
    kbit/s link, optionally under a fault plan and optionally with the
    session a fan-out mirror subscriber (its SUBSCRIBE handled before
    anything draws, so it ships no refresh).  Returns the rig
    plus per-op input-to-update latencies (client-side arrival of each
    interactive fill minus its submission time).
    """
    loop, conn, mon, server, ws, client = make_qos_rig(
        link=THIN_256K, plan=plan, qos=qos)
    if subscribe:
        mirror(server)
    # ~166 kbit/s offered (0.65 of the link; worst 0.25s window ~0.76),
    # comfortably healthy at full rate but underwater once cross
    # traffic cuts the service rate.
    clip = SyntheticVideoClip(width=32, height=18, fps=24, duration=end)
    play_clip(loop, ws, clip, Rect(48, 24, 48, 32))
    times, arrivals = [], []
    orig = client._execute

    covered = {}

    def spy(cmd, now):
        # Only the interactive echo patches (12x12 RAWs left of the
        # video area) count; recovery refreshes land at x >= 48.  A
        # put_image rasterises in scan-line chunks, so an op "arrives"
        # once its whole tile has been painted.
        if cmd.kind == "raw" and cmd.dest.width == 12 and cmd.dest.x < 48:
            tile = (cmd.dest.x // 12, cmd.dest.y // 12)
            covered[tile] = covered.get(tile, 0) + cmd.dest.area
            if covered[tile] >= 144:
                covered[tile] = 0
                arrivals.append(now)
        orig(cmd, now)

    client._execute = spy
    rng = np.random.default_rng(5)
    t, idx = 0.1, 0
    while t < end - 0.3:
        # Typing-echo style updates: each keystroke paints a fresh
        # 12x12 RAW glyph patch.  Distinct, non-overlapping rects, so
        # merge/overwrite can never collapse two ops into one arrival.
        x = (idx % 4) * 12
        y = (idx // 4) * 12
        # Noise in all four channels, alpha included: an opaque patch
        # ships as RGB rows, a quarter lighter than the load the
        # contention levels here are calibrated against.
        patch = rng.integers(0, 256, (12, 12, 4), dtype=np.uint8)

        def op(x=x, y=y, patch=patch):
            client.send_input("key", x, y)
            ws.put_image(ws.screen, Rect(x, y, 12, 12), patch)

        loop.schedule_at(t, op)
        times.append(t)
        t += 0.16
        idx += 1
    loop.run_until_idle(max_time=300)
    assert len(arrivals) == len(times), "an interactive update was lost"
    latencies = [a - s for s, a in zip(times, arrivals)]
    return loop, mon, server, ws, client, latencies


class TestAcceptanceScenario:
    """The issue's acceptance criteria, end to end."""

    PLAN_SEED = 11
    #: Cross-traffic duty cycles as (burst_s, period_s).  Each burst
    #: holds the delivery head with full drops, so duty cycle, not
    #: drop probability, sets the contention level.
    LEVELS = {"light": (0.05, 0.30),
              "moderate": (0.09, 0.24),
              "heavy": (0.12, 0.20)}

    def _plan(self, level="heavy"):
        # Heavy is a 60% burst duty: while a burst holds the delivery
        # head, the un-acked window throttles the sender to
        # ~window/burst ≈ 12 KB/s against ~21 KB/s offered, so the
        # queue genuinely builds until the ladder acts.
        burst, period = self.LEVELS[level]
        return FaultPlan.bursty_cross_traffic(
            self.PLAN_SEED, start=0.3, duration=1.2,
            period=period, burst=burst, drop_rate=1.0)

    @pytest.fixture(autouse=True)
    def _fast_qos(self):
        with fast_qos():
            yield

    def test_uncontended_twin_is_byte_identical(self):
        # QoS enabled on a healthy link must not change one byte on
        # the wire relative to the fixed-rate path.
        _, mon_off, server_off, ws_off, client_off, lat_off = \
            run_scenario(plan=None, qos=None)
        _, mon_on, server_on, ws_on, client_on, lat_on = \
            run_scenario(plan=None, qos=QosConfig())
        trace_off = [(r.time, r.direction, r.size)
                     for r in mon_off.records]
        trace_on = [(r.time, r.direction, r.size)
                    for r in mon_on.records]
        assert trace_on == trace_off
        assert client_on.fb.same_as(client_off.fb)
        assert server_on.stats["qos_rungs_down"] == 0
        assert lat_on == lat_off

    @pytest.mark.parametrize("level", LEVELS)
    def test_congested_ladder_protects_interactivity(self, level):
        _, _, _, _, _, lat_clean = run_scenario(plan=None,
                                                qos=QosConfig())
        loop, mon, server, ws, client, lat = run_scenario(
            plan=self._plan(level), qos=QosConfig())
        session = server.sessions[0]
        stats = server.stats
        # At every contention level interactive latency stays within
        # 2x the uncontended run (run_scenario itself asserts that no
        # interactive update was lost)...
        mean_clean = sum(lat_clean) / len(lat_clean)
        mean = sum(lat) / len(lat)
        assert mean <= 2.0 * mean_clean, (mean, mean_clean)
        # ...and after the fault window the session is back at
        # full-rate video and converged pixel-exact.
        assert session.qos_rung == 0
        assert_pixel_identical(client, ws)
        if level == "heavy":
            # Only the heavy level is underwater enough to need the
            # ladder: video walked down it while the link was
            # contended, then ramped back up.
            assert stats["qos_rungs_down"] >= 1
            assert stats["qos_frames_dropped"] + \
                stats["qos_frames_degraded"] >= 1
            assert stats["qos_rungs_up"] >= 1
            assert stats["qos_recoveries"] >= 1

    def test_contended_without_qos_is_worse_for_video_bytes(self):
        # Sanity on the mechanism: with the ladder active, the
        # contended run ships fewer video payload bytes than the
        # fixed-rate path under the same faults.
        _, mon_off, server_off, _, client_off, _ = run_scenario(
            plan=self._plan(), qos=None)
        _, mon_on, server_on, _, client_on, _ = run_scenario(
            plan=self._plan(), qos=QosConfig())
        off = client_off.stats["bytes_by_kind"].get("vframe", 0)
        on = client_on.stats["bytes_by_kind"].get("vframe", 0)
        assert on < off


class TestLadderProperties:
    """Property-based checks over random congestion plans: however the
    network misbehaves, the ladder moves one rung at a time, respects
    its hysteresis spacing, and converges pixel-exact once the plan
    clears."""

    @given(seed=st.integers(min_value=0, max_value=10_000),
           shape=st.sampled_from(["ramp", "bursts", "flaps"]))
    @settings(max_examples=8, deadline=None)
    def test_ladder_is_monotone_hysteretic_and_convergent(self, seed,
                                                          shape):
        makers = {
            "ramp": lambda: FaultPlan.ramped_throttle(
                seed, start=0.3, duration=1.2),
            "bursts": lambda: FaultPlan.bursty_cross_traffic(
                seed, start=0.3, duration=1.2,
                period=0.2, burst=0.12, drop_rate=1.0),
            "flaps": lambda: FaultPlan.flapping_80211g(
                seed, start=0.3, duration=1.2),
        }
        with fast_qos(seed):
            loop, conn, mon, server, ws, client = make_qos_rig(
                plan=makers[shape](), qos=QosConfig())
            session = server.sessions[0]
            plane = server.qos
            transitions = []
            orig = plane._announce

            def spy(sess):
                transitions.append((loop.now, sess.qos_rung))
                orig(sess)

            plane._announce = spy
            # Video well past the fault window so recovery has room.
            clip = SyntheticVideoClip(width=32, height=18, fps=24,
                                      duration=4.5)
            play_clip(loop, ws, clip, Rect(48, 24, 48, 32))
            loop.run_until_idle(max_time=600)

            rungs = [0] + [r for _, r in transitions]
            for prev, cur in zip(rungs, rungs[1:]):
                assert abs(cur - prev) == 1, rungs
            for (t0, r0), (t1, r1) in zip(transitions, transitions[1:]):
                if r1 > r0:  # a further step down needs DEGRADE_POLLS polls
                    spacing = (qos.DEGRADE_POLLS - 1) * PROBE_INTERVAL
                else:  # a step up waits out at least RECOVER_POLLS polls
                    spacing = (qos.RECOVER_POLLS - 1) * PROBE_INTERVAL
                assert t1 - t0 >= spacing - 1e-9, (transitions,)
            # The plan's last window ends by 1.5s; by end of clip the
            # session must be back at full rate and pixel-exact.
            assert session.qos_rung == 0
            assert_pixel_identical(client, ws)


class TestQosReports:
    def test_client_report_reaches_server_stats(self):
        loop, conn, mon, server, ws, client = make_qos_rig(
            qos=QosConfig())
        clip = SyntheticVideoClip(width=16, height=12, fps=12,
                                  duration=0.5)
        holder = play_clip(loop, ws, clip, Rect(0, 0, 32, 24))
        loop.run_until_idle(max_time=10)
        stream_id = holder["stream"].stream_id
        msg = client.send_qos_report(stream_id, clip.frame_count,
                                     clip.duration)
        loop.run_until_idle(max_time=5)
        assert 0.0 <= msg.playback_quality <= 1.0
        assert msg.playback_quality > 0.5  # LAN-grade thin link, tiny clip
        assert server.stats["qos_reports"] == 1
        assert server.stats["qos_playback_quality"] == \
            msg.playback_quality

    def test_report_ignored_when_qos_off(self):
        loop, conn, mon, server, ws, client = make_qos_rig()
        client.connection.up.write(wire.encode_message(
            wire.QosReportMessage(1, 10, 0.5, 0.5, 0.1)))
        loop.run_until_idle(max_time=5)
        assert server.qos is None  # and no crash handling the report

    def test_client_tracks_quality_descriptors(self):
        loop, conn, mon, server, ws, client = make_qos_rig(
            qos=QosConfig())
        session = server.sessions[0]
        server.qos.streams[7] = Rect(0, 0, 32, 24)
        server.qos._step_down(session, 10.0)
        loop.run_until_idle(max_time=5)
        assert client.video_quality[7].rung == 1
        # Recovery to rung 0 clears the descriptor.
        server.qos._step_up(session, 20.0)
        loop.run_until_idle(max_time=5)
        assert 7 not in client.video_quality
