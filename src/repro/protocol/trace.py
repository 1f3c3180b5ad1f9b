"""Protocol trace capture and replay.

The paper measures closed systems from network traces; this module
gives the reproduction the same affordance for THINC itself: a
:class:`TraceRecorder` taps a connection direction and writes every
chunk with its timestamp, and a :class:`TraceReplayer` feeds a recorded
session back into any consumer (a client, an analyser) on the original
timeline or as fast as possible.

Trace file layout: a 16-byte magic/version header, then records of
``[f64 timestamp][u32 length][payload]`` (big-endian).
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from typing import BinaryIO, Callable, List, Union

__all__ = ["TraceRecorder", "TraceReplayer", "read_trace", "TraceRecord",
           "summarize_trace"]

_MAGIC = b"THINCTRACE\x00\x01\x00\x00\x00\x00"
_RECORD = struct.Struct(">dI")


@dataclass(frozen=True)
class TraceRecord:
    time: float
    data: bytes


class TraceRecorder:
    """Captures one direction of a connection to a trace stream.

    Interpose it on an endpoint::

        recorder = TraceRecorder(open(path, "wb"), clock)
        connection.down.connect(recorder.tee(client._on_data))
    """

    def __init__(self, sink: BinaryIO, clock):
        self.sink = sink
        self.clock = clock
        self.records_written = 0
        self.bytes_written = 0
        sink.write(_MAGIC)

    def record(self, chunk: bytes) -> None:
        """Append one timestamped chunk to the trace."""
        self.sink.write(_RECORD.pack(self.clock.now, len(chunk)))
        self.sink.write(chunk)
        self.records_written += 1
        self.bytes_written += len(chunk)

    def tee(self, receiver: Callable[[bytes], None]
            ) -> Callable[[bytes], None]:
        """A receiver that records each chunk and passes it through."""

        def _tee(chunk: bytes) -> None:
            self.record(chunk)
            receiver(chunk)

        return _tee


def read_trace(source: Union[BinaryIO, bytes]) -> List[TraceRecord]:
    """Parse a whole trace; raises ValueError on corruption."""
    stream = io.BytesIO(source) if isinstance(source, bytes) else source
    magic = stream.read(len(_MAGIC))
    if magic != _MAGIC:
        raise ValueError("not a THINC trace (bad magic)")
    out: List[TraceRecord] = []
    while True:
        header = stream.read(_RECORD.size)
        if not header:
            break
        if len(header) < _RECORD.size:
            raise ValueError("truncated trace record header")
        time, length = _RECORD.unpack(header)
        data = stream.read(length)
        if len(data) < length:
            raise ValueError("truncated trace record payload")
        out.append(TraceRecord(time, data))
    return out


class TraceReplayer:
    """Feeds a recorded session into a consumer.

    ``replay_into`` delivers everything immediately (offline analysis);
    ``schedule_into`` re-enacts the original timing on an event loop,
    shifted so the first record lands ``start_delay`` from now.
    """

    def __init__(self, records: List[TraceRecord]):
        self.records = records

    def replay_into(self, receiver: Callable[[bytes], None]) -> int:
        """Deliver every chunk immediately; returns the record count."""
        for record in self.records:
            receiver(record.data)
        return len(self.records)

    def schedule_into(self, loop, receiver: Callable[[bytes], None],
                      start_delay: float = 0.0) -> None:
        if not self.records:
            return
        base = self.records[0].time
        for record in self.records:
            loop.schedule(start_delay + (record.time - base),
                          lambda d=record.data: receiver(d))


def summarize_trace(records: List[TraceRecord]) -> dict:
    """Headline numbers for a trace and its wire breakdown (the CLI's
    `trace` subcommand, the desktop example).

    Messages are named by their wire schema (``SFILL``,
    ``SCREEN_INIT``).  Each counts its whole frame, header included, so
    ``bytes_by_kind`` sums to ``bytes - unparsed_bytes``: the tail of a
    capture that stops mid-frame is counted there instead.
    """
    from . import wire
    from .commands import Command

    parser = wire.StreamParser()
    kinds: dict = {}
    kind_bytes: dict = {}
    for record in records:
        for msg in parser.feed(record.data):
            name = type(msg).schema.name
            # A decoded command knows its size (type byte + payload).
            payload = (msg.wire_size() - 1 if isinstance(msg, Command)
                       else len(msg.encode_payload()))
            kinds[name] = kinds.get(name, 0) + 1
            kind_bytes[name] = (kind_bytes.get(name, 0)
                                + wire.FRAME_OVERHEAD + payload)
    total = sum(len(r.data) for r in records)
    duration = (records[-1].time - records[0].time) if records else 0.0
    return {
        "records": len(records),
        "bytes": total,
        "duration": duration,
        "messages": kinds,
        "bytes_by_kind": kind_bytes,
        "unparsed_bytes": parser.pending_bytes,
    }
