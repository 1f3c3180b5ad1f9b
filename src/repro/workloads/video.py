"""The audio/video playback workload (paper Section 8.2).

Models MPlayer playing the benchmark clip: a 34.75 s MPEG-1 file,
352x240, decoded on the server at 24 fps and displayed *full screen*
through the XVideo interface, with CD-quality stereo audio written to
the (virtual) audio device in step.  Systems with a native video path
(THINC) see YV12 frames at the driver; systems without see the window
server's rendered output like any other update — exactly the asymmetry
Figures 5–7 measure.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..audio.driver import AudioFormat, VirtualAudioDriver
from ..display.xserver import WindowServer
from ..net.clock import EventLoop
from ..region import Rect
from ..video.stream import SyntheticVideoClip

__all__ = ["AVPlayerApp"]


class AVPlayerApp:
    """An MPlayer-style audio/video player driving a window server."""

    def __init__(self, ws: WindowServer, loop: EventLoop,
                 clip: SyntheticVideoClip,
                 audio_sink=None,
                 fullscreen: bool = True,
                 dst_rect: Optional[Rect] = None,
                 max_frames: Optional[int] = None):
        self.ws = ws
        self.loop = loop
        self.clip = clip
        self.fullscreen = fullscreen
        self.dst_rect = dst_rect or Rect(0, 0, ws.screen.width,
                                         ws.screen.height)
        self.max_frames = (clip.frame_count if max_frames is None
                           else min(max_frames, clip.frame_count))
        self.audio_fmt = AudioFormat()
        self.audio = (VirtualAudioDriver(audio_sink, loop.clock)
                      if audio_sink is not None else None)
        self.frames_put = 0
        self.stream = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._on_done: Optional[Callable[[], None]] = None
        # PCM block per frame interval (silence content is irrelevant;
        # only volume and timing matter).
        per_frame = self.audio_fmt.bytes_for(clip.frame_interval)
        self._audio_block = b"\x17\x2a" * (per_frame // 2)

    @property
    def ideal_duration(self) -> float:
        """Real-time playback length of the (possibly truncated) run."""
        return self.max_frames * self.clip.frame_interval

    def start(self, on_done: Optional[Callable[[], None]] = None) -> None:
        """Open the stream and schedule frame presentation."""
        if self.stream is not None:
            raise RuntimeError("player already started")
        self._on_done = on_done
        self.started_at = self.loop.now
        self.stream = self.ws.video_create_stream(
            "YV12", self.clip.width, self.clip.height, self.dst_rect)
        self._put_frame(0)

    def _put_frame(self, index: int) -> None:
        if index >= self.max_frames:
            self._finish()
            return
        self.ws.video_put_frame(self.stream, self.clip.yv12_frame(index))
        if self.audio is not None:
            self.audio.play(self._audio_block)
        self.frames_put += 1
        self.loop.schedule(self.clip.frame_interval,
                           lambda: self._put_frame(index + 1))

    def _finish(self) -> None:
        if self.audio is not None:
            self.audio.drain()
        self.ws.video_destroy_stream(self.stream)
        self.finished_at = self.loop.now
        if self._on_done is not None:
            self._on_done()
