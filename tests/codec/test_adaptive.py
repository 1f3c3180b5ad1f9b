"""The adaptive codec plane end to end: per-tag wire round-trips,
split size hints, posture-driven servers, and the display fuzz corpus
contract."""

import numpy as np
import pytest
from dataclasses import replace

from tests.helpers import make_rig
from repro.codec import Encoding, EncoderPolicy, LinkPosture
from repro.codec.encodings import psnr
from repro.core.link_health import PROBE_INTERVAL
from repro.core.qos import QosConfig
from repro.fuzz import display_seed_corpus
from repro.fuzz.mutator import Mutator
from repro.net import LAN_DESKTOP, PDA_80211G
from repro.protocol import wire
from repro.protocol.commands import RawCommand, decode_command
from repro.region import Rect

LOSSLESS_TAGS = (Encoding.NONE, Encoding.PNG, Encoding.RLE)


def random_rgba(w, h, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 4), dtype=np.uint8)


def photo_workload(ws, seed=0):
    rng = np.random.default_rng(seed)
    ws.put_image(ws.screen, ws.screen.bounds,
                 rng.integers(0, 256,
                              (ws.screen.bounds.height,
                               ws.screen.bounds.width, 4), dtype=np.uint8))


class TestWireRoundTrips:
    @pytest.mark.parametrize("tag", LOSSLESS_TAGS)
    def test_lossless_tags_are_byte_exact(self, tag):
        img = random_rgba(24, 16, seed=int(tag))
        cmd = RawCommand(Rect(3, 5, 24, 16), img, tag)
        out = decode_command(cmd.encode())
        assert isinstance(out, RawCommand)
        assert out.encoding is tag
        assert np.array_equal(out.pixels, img)

    def test_lossy_tag_meets_psnr_floor(self):
        ramp = np.linspace(0, 255, 64, dtype=np.uint8)
        img = np.empty((32, 64, 4), dtype=np.uint8)
        img[:] = ramp[None, :, None]
        cmd = RawCommand(Rect(0, 0, 64, 32), img, Encoding.LOSSY)
        out = decode_command(cmd.encode())
        assert out.encoding is Encoding.LOSSY
        assert psnr(img, out.pixels) >= 30.0

    def test_lossy_then_lossless_refresh_is_exact(self):
        """The convergence contract: a lossy pass followed by a
        lossless refresh of the same rect restores exact pixels."""
        img = random_rgba(32, 32, seed=9)
        fb = np.zeros_like(img)
        lossy = decode_command(
            RawCommand(Rect(0, 0, 32, 32), img, Encoding.LOSSY).encode())
        fb[:] = lossy.pixels
        assert not np.array_equal(fb, img)
        refresh = decode_command(
            RawCommand(Rect(0, 0, 32, 32), img, Encoding.PNG).encode())
        fb[:] = refresh.pixels
        assert np.array_equal(fb, img)

    def test_rejects_out_of_range_tag(self):
        data = bytearray(
            RawCommand(Rect(0, 0, 4, 4), random_rgba(4, 4)).encode())
        data[9] = 0xEE  # type u8 + rect 4xu16, then the tag byte
        with pytest.raises(ValueError):
            decode_command(bytes(data))

    def test_with_encoding_resets_payload_memo(self):
        cmd = RawCommand(Rect(0, 0, 8, 8), random_rgba(8, 8),
                         Encoding.PNG)
        cmd.encode()
        other = cmd.with_encoding(Encoding.RLE)
        assert other.encoding is Encoding.RLE
        assert other._payload is None
        assert cmd.with_encoding(Encoding.PNG) is cmd


class TestSplitSizeHints:
    @pytest.mark.parametrize("tag", (Encoding.NONE, Encoding.RLE))
    def test_cheap_encodings_get_exact_tail_hints(self, tag):
        """NONE and RLE tails have cheap exact sizes, so the scheduler
        estimate must equal the bytes the tail actually encodes to."""
        img = np.zeros((64, 32, 4), dtype=np.uint8)
        img[::3] = 77  # banded: compressible but not solid
        cmd = RawCommand(Rect(0, 0, 32, 64), img, tag)
        room = cmd.wire_size() // 2
        head, rest = cmd.split(room, room)
        assert rest is not None
        hinted = rest.wire_size()
        assert hinted == len(rest.encode())

    def test_split_preserves_pixels_and_encoding(self):
        img = random_rgba(16, 40, seed=1)
        cmd = RawCommand(Rect(0, 0, 16, 40), img, Encoding.LOSSY)
        room = cmd.wire_size() // 3
        head, rest = cmd.split(room, room)
        assert head.encoding is rest.encoding is Encoding.LOSSY
        assert np.array_equal(np.vstack([head.pixels, rest.pixels]), img)


class TestAdaptiveServer:
    def test_lan_adaptive_is_pixel_exact(self):
        """Every rung the ladder uses on a LAN link (SFILL demotion,
        RLE, NONE, PNG) is lossless, so an adaptive server must
        converge to exactly the baseline framebuffer."""
        base_loop, _, _, _, base_ws, base_client = make_rig()
        adapt_loop, _, _, server, ws, client = make_rig(
            adaptive_encoding=True)
        for target_ws, target_loop in ((base_ws, base_loop),
                                       (ws, adapt_loop)):
            target_ws.fill_rect(target_ws.screen,
                                Rect(0, 0, 48, 64), (200, 30, 30, 255))
            photo_workload_rect(target_ws)
            target_loop.run_until_idle(max_time=10)
        assert client.fb.same_as(base_client.fb)
        policy = server.encoder_policy
        assert policy.demotions + sum(policy.counts.values()) > 0

    def test_congested_link_goes_lossy_then_refresh_restores(self):
        slow = replace(PDA_80211G, bandwidth_bps=256e3)

        def run(**server_kw):
            loop, conn, mon, server, ws, client = make_rig(
                link=slow, **server_kw)
            if server_kw:  # lossy floor below the rig's 96x8 bands
                server.encoder_policy.min_lossy_pixels = 256
            for seed in range(4):
                photo_workload(ws, seed=seed)
                loop.schedule(0.05, lambda: None)
                loop.run_until(loop.now + 0.05)
            loop.run_until_idle(max_time=120)
            # Settle, then refresh under a quiet link.
            loop.schedule(1.0, lambda: None)
            loop.run_until_idle(max_time=120)
            client.request_refresh(Rect(0, 0, 96, 64))
            loop.run_until_idle(max_time=120)
            return mon, server, ws, client

        mon, server, ws, client = run(adaptive_encoding=True)
        assert server.encoder_policy.counts[Encoding.LOSSY] > 0
        # The refresh restores exactness...
        screen = ws.screen.fb.read_pixels(ws.screen.bounds)
        assert np.array_equal(client.fb.read_pixels(client.fb.bounds),
                              screen)
        # ...without handing the lossy savings back: refresh included,
        # the adaptive run ships fewer bytes than its always-PNG twin.
        png_mon, _, _, _ = run()
        assert mon.total_bytes("server->client") \
            < png_mon.total_bytes("server->client")

    def test_posture_probe_memoises(self):
        loop, conn, mon, server, ws, client = make_rig(
            adaptive_encoding=True)
        session = server.sessions[0]
        loop.run_until_idle(max_time=5)
        first = server.health.posture(session)
        assert first is not LinkPosture.DEGRADED
        session.degraded = True  # would flip a fresh probe
        assert server.health.posture(session) is first
        loop.schedule(PROBE_INTERVAL * 2, lambda: None)
        loop.run_until_idle(max_time=1)
        assert server.health.posture(session) is LinkPosture.DEGRADED

    def test_one_probe_feeds_encoder_and_qos(self):
        """The prepare plane's posture hook and the QoS ladder's
        congestion poll are the same LinkHealth, reading the server's
        single EncoderPolicy."""
        loop, conn, mon, server, ws, client = make_rig(
            adaptive_encoding=True, qos=QosConfig())
        assert server.plane.posture_of == server.health.posture
        assert server.health.policy is server.encoder_policy
        assert server.plane.policy is server.encoder_policy
        # Adaptive encoding off: stock thresholds, hook still wired.
        loop, conn, mon, plain, ws, client = make_rig(qos=QosConfig())
        assert plain.encoder_policy is None and plain.plane.policy is None
        assert isinstance(plain.health.policy, EncoderPolicy)

    def test_off_by_default(self):
        loop, conn, mon, server, ws, client = make_rig()
        assert server.encoder_policy is None
        assert server.plane.policy is None


def photo_workload_rect(ws, seed=3):
    rng = np.random.default_rng(seed)
    ws.put_image(ws.screen, Rect(48, 0, 48, 64),
                 rng.integers(0, 256, (64, 48, 4), dtype=np.uint8))


class TestDisplayCorpusContract:
    def test_every_seed_decodes_or_raises_value_error(self):
        """The decoder's whole contract against hostile display bytes:
        return a command or raise ValueError — nothing else."""
        corpus = display_seed_corpus()
        outcomes = []
        for payload in corpus:
            try:
                cmd = decode_command(payload)
                outcomes.append(type(cmd).__name__)
            except ValueError as exc:
                outcomes.append(f"rejected: {exc.args[0][:30]}")
        # The four valid per-tag seeds and the four row-banded ones
        # decode; the malformed tail of the corpus is rejected, never
        # crashes.
        assert outcomes[:8] == ["RawCommand"] * 8
        assert all(o.startswith("rejected") for o in outcomes[8:])
        assert outcomes[-2:] == ["rejected: PNG payload declares 2 channel",
                                 "rejected: PNG payload declares 5 channel"]
        assert len(outcomes) == len(corpus)

    def test_mutated_seeds_parse_or_raise_protocol_error(self):
        """The receiver's contract under mutation — bit flips,
        truncation and splices land on the banded seeds' full-flush
        markers and on the ``03 00`` block that closes a split head;
        a frame either parses or raises ``ProtocolError``."""
        corpus = display_seed_corpus()
        banded, head, opaque, opaque_head = (decode_command(seed)
                                             for seed in corpus[4:8])
        assert (banded.dest.height, head.dest.height) == (2048, 1024)
        assert (opaque.dest.height, opaque_head.dest.height) == (2730, 1365)
        assert [cmd._payload[4] for cmd in (head, opaque_head)] == [4, 3]
        assert head._payload[-6:-4] == opaque_head._payload[-6:-4] \
            == b"\x03\x00"
        framed = [wire.frame_message(seed[0], seed[1:]) for seed in corpus]
        parsed = 0
        for case in Mutator(54, framed, coverage=False).cases(600):
            try:
                parsed += len(wire.parse_messages(case))
            except wire.ProtocolError:
                pass
        assert parsed

    def test_corpus_covers_every_encoding_tag(self):
        tags = set()
        for payload in display_seed_corpus():
            try:
                tags.add(decode_command(payload).encoding)
            except ValueError:
                pass
        assert tags == set(Encoding)
