"""Outside-in span tracing for thincbench's per-layer ledger.

Nothing in ``src/repro`` is edited: while a :class:`Tracer` is
installed, each layer's public entry points are replaced by wrappers
that record a span (id, parent, op, layer, function, start, end,
simulated time) in memory.  Event-loop callbacks are attributed by
wrapping them where they are scheduled, and transport receivers where
they are connected.  A layer's *self time* is its spans' duration minus
the part their child spans cover, less the calibrated cost of the
wrappers themselves.
"""

from __future__ import annotations

import json
import statistics
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional

__all__ = ["LAYERS", "Tracer"]

#: The ledger's rows, in path order from input event to client pixels.
LAYERS = (
    "display", "core.translation", "core.command_queue", "core.server",
    "core.pipeline", "core.resize", "codec", "core.delivery",
    "core.scheduler", "core.session_unit", "protocol.wire.encode",
    "net.transport", "net.clock", "protocol.wire.decode", "core.client",
    "video.yuv",
)

#: Event-loop callbacks are attributed by the module that defined them;
#: any other ``repro.core`` module counts as the shared server planes.
#: Callbacks the harness itself schedules stay unwrapped (the window
#: server calls they make are spans of their own).
_CALLBACK_LAYERS = {
    "repro.net.transport": "net.transport",
    "repro.core.session_unit": "core.session_unit",
}


def _callback_layer(module: Optional[str]) -> Optional[str]:
    if module in _CALLBACK_LAYERS:
        return _CALLBACK_LAYERS[module]
    if module is not None and module.startswith("repro.core."):
        return "core.server"
    return None


# -- counts taken at the same boundaries --------------------------------------
# Each tally sees (counts, args, result) after the wrapped call returned.

def _bump(key: str, amount: Callable = lambda args, result: 1):
    def tally(counts, args, result):
        counts[key] = counts.get(key, 0) + amount(args, result)
    return tally


def _peak(key: str, value: Callable):
    def tally(counts, args, result):
        counts[key] = max(counts.get(key, 0), value(args, result))
    return tally


def _both(*tallies):
    def tally(counts, args, result):
        for t in tallies:
            t(counts, args, result)
    return tally


def _pixels(args, result):
    shape = args[0].shape
    return shape[0] * shape[1]


_compressed = _both(_bump("codec_in", lambda a, r: a[0].nbytes),
                    _bump("codec_out", lambda a, r: len(r)))
_compressed_batch = _both(
    _bump("codec_in", lambda a, r: sum(b.nbytes for b in a[0])),
    _bump("codec_out", lambda a, r: sum(len(p) for p in r)))


def _downlink_backlog(args, result):
    endpoint = args[0]
    return endpoint.queued_bytes if endpoint.label == "server->client" else 0


def _wrap_points():
    """(layer, owner, name, tally, when) for every wrapped public entry
    point."""
    from repro.codec.policy import EncoderPolicy
    from repro.core.command_queue import CommandQueue
    from repro.core.delivery import ClientBuffer
    from repro.core.pipeline import FrameStage, PreparePlane
    from repro.core import resize
    from repro.core.resize import DisplayScaler
    from repro.core.scheduler import SRSFScheduler
    from repro.core.server import THINCServer
    from repro.core.session_unit import SessionUnit
    from repro.core.client import THINCClient
    from repro.core.translation import THINCDriver
    from repro.display.xserver import WindowServer
    from repro.net.clock import EventLoop
    from repro.net.monitor import PacketMonitor
    from repro.net.transport import Endpoint
    from repro.protocol import compression, wire
    from repro.video import yuv

    points = []

    def add(layer, owner, names, tallies=None, when=None):
        for name in names:
            points.append((layer, owner, name, (tallies or {}).get(name),
                           when))

    add("display", WindowServer, (
        "create_pixmap", "free_pixmap", "fill_rect", "fill_tiled",
        "fill_stipple", "draw_text", "draw_text_aa", "put_image",
        "composite", "copy_area", "draw_line", "draw_polyline",
        "draw_rect_outline", "video_create_stream", "video_put_frame",
        "video_move_stream", "video_destroy_stream", "set_cursor",
        "inject_input"))
    add("core.translation", THINCDriver, (
        "solid_fill", "pattern_fill", "bitmap_fill", "put_image",
        "composite", "copy_area", "destroy_drawable", "video_setup",
        "video_put", "video_move", "video_teardown", "cursor_set",
        "input_event"))
    add("core.command_queue", CommandQueue, (
        "add", "commands_for_copy", "uncovered_region", "drain", "remove",
        "replace"), {
        "add": _bump("queue_added"),
        "commands_for_copy": _bump("queue_left", lambda a, r: len(r)),
        "drain": _bump("queue_left", lambda a, r: len(r)),
        "remove": _bump("queue_left"),
    })
    add("core.server", THINCServer, (
        "submit", "submit_audio", "handle_client_message", "video_setup",
        "video_move", "video_teardown", "cursor_set", "note_input"))
    add("core.pipeline", PreparePlane, (
        "submit", "submit_batch", "prepare_entry"))
    add("core.pipeline", FrameStage, ("frame",))
    # An identity viewport passes commands and points straight through;
    # that is the prepare plane asking, not resize work, so only a
    # scaler that scales gets spans (the LAN workloads must show 0).
    add("core.resize", DisplayScaler, ("scale_command", "map_point"),
        when=lambda args: not args[0].identity)
    add("core.resize", resize, ("resample",),
        {"resample": _bump("resize_pixels", _pixels)})
    add("codec", compression, (
        "png_compress", "png_compress_batch", "png_decompress",
        "rle_compress", "rle_size", "rle_decompress", "lossy_compress",
        "lossy_decompress"), {
        "png_compress": _compressed,
        "rle_compress": _compressed,
        "lossy_compress": _compressed,
        "png_compress_batch": _compressed_batch,
    })
    add("codec", EncoderPolicy, ("select",))
    add("core.delivery", ClientBuffer, ("add", "flush", "note_input"), {
        "add": _both(
            _peak("queue_depth_max", lambda a, r: a[0].pending_commands()),
            _peak("pending_bytes_max", lambda a, r: a[0].pending_bytes())),
    })
    add("core.scheduler", SRSFScheduler, ("order",))
    add("core.session_unit", SessionUnit, (
        "enqueue_prepared", "queue_audio", "queue_control"))
    add("protocol.wire.encode", wire, ("encode_message",), {
        "encode_message": _bump("encoded_bytes", lambda a, r: len(r))})
    add("net.transport", Endpoint, ("write",), {
        "write": _peak("backlog_bytes_max", _downlink_backlog)})
    add("net.transport", PacketMonitor, ("record",))
    add("net.clock", EventLoop, ("run_until", "run_until_idle"))
    add("protocol.wire.decode", wire.StreamParser, ("feed",), {
        "feed": _bump("decoded_messages", lambda a, r: len(r))})
    add("core.client", THINCClient, ("send_input",))
    add("video.yuv", yuv, ("decode_frame", "scale_rgb", "encode_frame"))
    return points


class _StoppedClock:
    """The simulated time of spans recorded before a rig's clock is bound
    (rig construction; :meth:`Tracer.begin` drops those spans)."""

    now = 0.0


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self) -> None:
        # Span i+1 lives at index i of six parallel typed arrays; they
        # hold plain numbers, so a few hundred thousand spans add no
        # objects for the garbage collector to walk.
        self.parents = array("l")
        self.ops = array("l")
        self.key_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.sims = array("d")
        self.keys: List[tuple] = []  # key id -> (layer, function)
        self._key_index: Dict[tuple, int] = {}
        self.counts: Dict[str, float] = {}
        self.op = -1
        self.clock = _StoppedClock  # the rig's SimClock, once bound
        self._stack: List[int] = [0]
        self._saved: List[tuple] = []
        self._callback_keys: Dict[object, Optional[int]] = {}
        self.inner_s = 0.0  # wrapper cost inside a span's own interval
        self.outer_s = 0.0  # wrapper cost charged to the parent span

    def __len__(self) -> int:
        return len(self.parents)

    # -- span recording --------------------------------------------------------

    def _key(self, layer: str, function: str) -> int:
        key = (layer, function)
        index = self._key_index.get(key)
        if index is None:
            index = self._key_index[key] = len(self.keys)
            self.keys.append(key)
        return index

    def wrap(self, layer: str, function: str, fn: Callable,
             tally: Optional[Callable] = None,
             when: Optional[Callable] = None) -> Callable:
        """*fn* with a span around each call.  *tally* sees (counts,
        args, result) afterwards; a call for which *when(args)* is
        false goes straight through, unrecorded."""
        return self._span(self._key(layer, function), fn, tally, when)

    def _span(self, key: int, fn: Callable, tally: Optional[Callable],
              when: Optional[Callable]) -> Callable:
        parents, ops, key_ids = self.parents, self.ops, self.key_ids
        starts, ends, sims = self.starts, self.ends, self.sims
        stack = self._stack
        counts = self.counts
        tracer = self

        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            index = len(parents)
            parents.append(stack[-1])
            ops.append(tracer.op)
            key_ids.append(key)
            sims.append(tracer.clock.now)
            ends.append(0.0)
            stack.append(index + 1)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if tally is not None:
                tally(counts, args, result)
            return result

        return traced

    def _wrap_callback(self, callback: Callable) -> Callable:
        code = getattr(getattr(callback, "__func__", callback),
                       "__code__", None)
        if code is None:
            return callback
        if code not in self._callback_keys:
            layer = _callback_layer(getattr(callback, "__module__", None))
            self._callback_keys[code] = None if layer is None else \
                self._key(layer, getattr(callback, "__qualname__",
                                         "callback"))
        key = self._callback_keys[code]
        if key is None:
            return callback
        return self._span(key, callback, None, None)

    def begin(self, clock) -> None:
        """Start one traced rep: drop earlier spans, bind the sim clock."""
        for column in (self.parents, self.ops, self.key_ids, self.starts,
                       self.ends, self.sims):
            del column[:]
        self.counts.clear()
        self.clock = clock
        self.op = -1

    # -- installing the wrappers -----------------------------------------------

    def install(self) -> None:
        from repro.net.clock import EventLoop
        from repro.net.transport import Endpoint

        for layer, owner, name, tally, when in _wrap_points():
            original = getattr(owner, name, None)
            if original is None:
                print(f"trace: wrap point {owner.__name__}.{name} is gone; "
                      f"{layer} loses that span", file=sys.stderr)
                continue
            self._patch(owner, name, self.wrap(
                layer, f"{owner.__name__.rsplit('.', 1)[-1]}.{name}",
                original, tally, when))

        schedule = EventLoop.schedule
        schedule_at = EventLoop.schedule_at
        connect = Endpoint.connect
        tracer = self

        def traced_schedule(loop, delay, callback):
            schedule(loop, delay, tracer._wrap_callback(callback))

        def traced_schedule_at(loop, time, callback):
            schedule_at(loop, time, tracer._wrap_callback(callback))

        def traced_connect(endpoint, receiver):
            # Downlink bytes land in the client; uplink bytes in the
            # session unit's parser.
            layer = ("core.client" if endpoint.label == "server->client"
                     else "core.session_unit")
            connect(endpoint, tracer.wrap(layer, "receive", receiver))

        self._patch(EventLoop, "schedule", traced_schedule)
        self._patch(EventLoop, "schedule_at", traced_schedule_at)
        self._patch(Endpoint, "connect", traced_connect)

    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- span-cost calibration --------------------------------------------------

    def calibrate(self, calls: int = 20000) -> None:
        """Time a wrapped no-op: what one span costs, inside its own
        interval (``inner_s``) and in its parent's (``outer_s``).

        In a tight loop the wrapper is as cheap as it will ever be; the
        harness keeps this split but scales the total to what a span
        costs amid real work (``harness._calibrate_spans``)."""
        class Target:
            def noop(self, a, b):
                return None

        probe = Tracer()
        target = Target()
        bare = target.noop
        Target.traced = probe.wrap(
            "harness", "noop", Target.noop,
            tally=lambda counts, args, result: None)
        wrapped = target.traced
        for fn in (bare, wrapped):  # warm both paths
            for _ in range(1000):
                fn(1, 2)
        probe.begin(_StoppedClock)
        start = perf_counter()
        for _ in range(calls):
            bare(1, 2)
        plain = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            wrapped(1, 2)
        full = perf_counter() - start
        total = max(full - plain, 0.0) / calls
        self.inner_s = min(total, statistics.median(
            end - begin for begin, end in zip(probe.starts, probe.ends)))
        self.outer_s = total - self.inner_s

    # -- the ledger --------------------------------------------------------------

    def ledger(self, slowdown: float = 1.0) -> dict:
        """Per-layer calls and corrected self seconds for the spans
        recorded since :meth:`begin`, plus the totals the harness needs
        for the unattributed share.  The span costs are reference-host
        seconds; *slowdown* says how much slower the host ran while
        these spans were recorded."""
        inner = self.inner_s * slowdown
        outer = self.outer_s * slowdown
        count = len(self)
        parents = self.parents
        durations = [end - start
                     for start, end in zip(self.starts, self.ends)]
        covered = [0.0] * count
        children = [0] * count
        for i in range(count):
            parent = parents[i]
            if parent:
                covered[parent - 1] += durations[i]
                children[parent - 1] += 1
        layer_of = [self.keys[k][0] for k in self.key_ids]
        calls = {layer: 0 for layer in LAYERS}
        self_s = {layer: 0.0 for layer in LAYERS}
        by_parent_layer: Dict[tuple, float] = {}
        for i in range(count):
            layer = layer_of[i]
            # The per-span cost is an average; where it exceeds what a
            # cheap span measured, the span's self time is zero, not
            # negative, and the difference shows up as unattributed.
            own = max(0.0, durations[i] - covered[i] - inner
                      - children[i] * outer)
            calls[layer] += 1
            self_s[layer] += own
            if parents[i]:
                pair = (layer, layer_of[parents[i] - 1])
                by_parent_layer[pair] = by_parent_layer.get(pair, 0.0) + own
        return {
            "calls": calls,
            "self_s": self_s,
            "by_parent_layer": by_parent_layer,
            "spans": count,
            # What the wrappers added to the rep's wall clock.
            "overhead_s": count * (inner + outer),
            "counts": dict(self.counts),
        }

    def write_jsonl(self, path, origin: float) -> None:
        """One JSON object per span, times in seconds from *origin*."""
        names = [json.dumps(layer) + ', "fn": ' + json.dumps(function)
                 for layer, function in self.keys]
        with open(path, "w") as out:
            for i in range(len(self)):
                out.write(
                    f'{{"id": {i + 1}, "parent": {self.parents[i]}, '
                    f'"op": {self.ops[i]}, '
                    f'"layer": {names[self.key_ids[i]]}, '
                    f'"t0": {self.starts[i] - origin:.9f}, '
                    f'"t1": {self.ends[i] - origin:.9f}, '
                    f'"sim": {self.sims[i]!r}}}\n')
