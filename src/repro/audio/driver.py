"""The virtual audio driver (paper Sections 4.2 and 7).

THINC applies its virtual-driver idea to sound: a virtualised ALSA-style
driver sits at the audio device layer, accepts PCM from applications
(whatever audio library they use — they all bottom out at the device),
timestamps it with server time, and forwards it to the per-client
delivery path.  Timestamping at the server is what lets the client
reproduce the same A/V synchronisation the server had.
"""

from __future__ import annotations

from typing import Optional, Protocol

__all__ = ["AudioFormat", "VirtualAudioDriver"]


class AudioSink(Protocol):
    def submit_audio(self, timestamp: float, samples: bytes) -> None: ...


class AudioFormat:
    """PCM stream parameters: 16-bit stereo at CD quality."""

    channels = 2
    sample_bytes = 2
    sample_rate = 44100

    @property
    def frame_bytes(self) -> int:
        """Bytes per sample frame (one sample per channel)."""
        return self.channels * self.sample_bytes

    @property
    def bytes_per_second(self) -> int:
        return self.sample_rate * self.frame_bytes

    def duration_of(self, nbytes: int) -> float:
        return nbytes / self.bytes_per_second

    def bytes_for(self, seconds: float) -> int:
        raw = int(round(seconds * self.bytes_per_second))
        # Round down to a whole sample frame.
        return raw - raw % self.frame_bytes


class VirtualAudioDriver:
    """Chunks and timestamps PCM written by applications.

    The *period* mirrors an ALSA period size: applications write
    arbitrary amounts; the driver signals the per-client daemon (the
    sink) once per accumulated period.  Timestamps carry the *playback*
    time of the chunk's first sample in server time.
    """

    period = 0.05  # seconds

    def __init__(self, sink: AudioSink, clock):
        self.sink = sink
        self.clock = clock
        self.fmt = AudioFormat()
        self.period_bytes = self.fmt.bytes_for(self.period)
        self._pending = bytearray()
        # Playback position: server timestamp of the next byte queued.
        self._stream_time: Optional[float] = None
        self.chunks_emitted = 0
        self.bytes_emitted = 0

    def play(self, samples: bytes) -> None:
        """Application writes PCM data to the device."""
        if len(samples) % self.fmt.frame_bytes:
            raise ValueError("write must be whole sample frames")
        if self._stream_time is None:
            self._stream_time = self.clock.now
        self._pending.extend(samples)
        while len(self._pending) >= self.period_bytes:
            chunk = bytes(self._pending[: self.period_bytes])
            del self._pending[: self.period_bytes]
            self._emit(chunk)

    def drain(self) -> None:
        """Flush any partial period (end of stream)."""
        if self._pending:
            chunk = bytes(self._pending)
            self._pending.clear()
            self._emit(chunk)
        self._stream_time = None

    def _emit(self, chunk: bytes) -> None:
        assert self._stream_time is not None
        self.sink.submit_audio(self._stream_time, chunk)
        self._stream_time += self.fmt.duration_of(len(chunk))
        self.chunks_emitted += 1
        self.bytes_emitted += len(chunk)
