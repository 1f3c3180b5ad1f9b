"""Pixel-data compression for RAW protocol commands.

RAW is the only THINC command carrying bulk pixel data, and the only one
the prototype compresses (Section 7, using PNG).  This module is the
protocol-facing surface of the codec plane: the PNG compression model —
per-row predictive filtering followed by DEFLATE — plus the plainer
codecs the baselines and the adaptive encoder use (an RLE codec
approximating VNC-style hextile encodings, and a JPEG-style lossy
codec).  The numpy kernels live in
:mod:`repro.codec.kernels` (no per-pixel Python loops anywhere); this
module owns
the byte formats and binds every decoder to the global decode bounds in
:mod:`repro.protocol.limits`.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from functools import reduce
from itertools import accumulate
from typing import List, NamedTuple, Optional, Tuple

import numpy as np
import zlib

from ..codec import encodings as _lossy
from ..codec import kernels
from .limits import LIMITS
from .schema import FieldRangeError

__all__ = [
    "PngJob",
    "PngPayload",
    "adler32_combine",
    "png_channels",
    "png_compress",
    "png_compress_batch",
    "png_first_head",
    "png_split",
    "png_decompress",
    "rle_compress",
    "rle_size",
    "rle_decompress",
    "lossy_compress",
    "lossy_decompress",
]


#: The one row filter id, PNG's 'Up'.
_UP_FILTER = 0

_HEADER_BYTES = 6  # h[u16] w[u16] c[u8] filter[u8]

# Raw (filtered) bytes per independently decodable row band of an
# 'up'-filtered image, counted in the payload's own channels: an opaque
# block's RGB rows are 3/4 the bytes of RGBA ones, so an 800-pixel-wide
# photograph bands every 27 rows, not 20.  Flush-time splitting
# (RawCommand.split) cuts a payload only between bands, so a smaller
# band lets a head fill the socket's room more closely, while every
# band costs two full-flush markers and a dictionary reset that an
# image which is never split pays for nothing.  DEFLATE time does not
# depend on it (a split re-DEFLATEs one row, whatever the band).  Chosen
# on thincbench ``web_lan`` seed 54 (docs/PERF.md, row 24 of "Earlier
# perf PRs, one row each"):
# ``wire_bytes_per_op`` and ``sim_latency_ms_p90`` fall with the band
# all the way down, but at 32 KiB the inline images of the text pages
# become multi-band and ``sim_latency_ms_p50`` moves; 64 KiB is the
# smallest band that leaves it where it was, and an incompressible band
# still fits a 256 KiB socket buffer three times over (the last band,
# up to two bands long, twice): a split short of a band waits for one.
_BAND_BYTES = 64 * 1024

# A final fixed-Huffman block holding only end-of-block: what
# ``Z_FINISH`` emits after a flush point when no input is left.
_EMPTY_FINAL_BLOCK = b"\x03\x00"

# What a head adds after its last band: that block and an Adler-32.
_HEAD_TRAILER = len(_EMPTY_FINAL_BLOCK) + 4

_ADLER_BASE = 65521


def adler32_combine(adler1: int, adler2: int, len2: int) -> int:
    """Adler-32 of ``a + b`` from ``adler32(a)``, ``adler32(b)`` and
    ``len(b)`` (zlib's ``adler32_combine``, which Python does not
    expose): the low word is ``1 + sum(bytes)``, the high word the sum
    of the running low words, so *b*'s words shift by what *a*
    contributed before it."""
    low1 = adler1 & 0xFFFF
    low = (low1 + (adler2 & 0xFFFF) - 1) % _ADLER_BASE
    high = ((adler1 >> 16) + (adler2 >> 16)
            + len2 * (low1 - 1)) % _ADLER_BASE
    return high << 16 | low


class _Segment(NamedTuple):
    """One stretch of a banded DEFLATE stream that ends at a full-flush
    point (or at the final block) and references nothing before it."""

    end: int  # payload offset just past the segment's last byte
    adler: int  # Adler-32 of the filtered bytes it inflates to
    size: int  # how many filtered bytes that is


class PngPayload(bytes):
    """A multi-band :func:`png_compress` payload plus its band table.

    To a decoder it is the ordinary format — header, then one zlib
    stream of exactly ``h*w*c`` bytes.  ``segments`` records where that
    stream may be cut: each band is two segments, its first row alone
    and then its remaining rows, so :func:`png_split` can restart the
    'up' predictor by re-DEFLATing that one row.  No segment depends on
    an earlier one, so the bytes and the table are the same whether its
    bands were DEFLATEd on one CPU or several (:func:`_deflate_rows`).
    """

    def __new__(cls, data: bytes, segments: Tuple[_Segment, ...] = ()):
        self = super().__new__(cls, data)
        self.segments = segments
        return self


def _png_header(h: int, w: int, c: int) -> bytes:
    return (h.to_bytes(2, "big") + w.to_bytes(2, "big")
            + bytes([c, _UP_FILTER]))


def _stream_adler(segments) -> bytes:
    """The zlib trailer of a stream made of *segments*."""
    return reduce(lambda adler, seg: adler32_combine(adler, seg.adler,
                                                     seg.size),
                  segments, 1).to_bytes(4, "big")


def _spare_cpus() -> List[int]:
    """The CPUs this process may run on other than the one the calling
    thread is on now (``processor`` in ``/proc/thread-self/stat``; where
    that cannot be read, the lowest-numbered CPU stands in for it)."""
    if not hasattr(os, "sched_getaffinity"):
        return []
    cpus = sorted(os.sched_getaffinity(0))
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            here = int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        here = cpus[0]
    return [cpu for cpu in cpus if cpu != here][:len(cpus) - 1]


def _pin(cpus) -> None:
    """Pool-thread initializer: run this thread on the next CPU of
    *cpus* only.  A CPU the process may no longer use leaves the thread
    unpinned, which is slower, not wrong."""
    cpu = next(cpus)
    with suppress(OSError):
        os.sched_setaffinity(0, {cpu})


class _DeflatePool:
    """Threads that DEFLATE beside the caller, one pinned to each of
    *cpus*: the runs of a banded payload after the caller's own, and
    each one-band payload the prepare stage begins (:class:`PngJob`).
    No job on the pool waits for another: a payload that may be two
    bands is never submitted whole, and one band is DEFLATEd by the
    thread that runs it, all at once.  Pinned, because where
    the scheduler does not balance load across CPUs (a cpuset with
    ``sched_load_balance`` 0) a new thread stays on the CPU of the
    thread that made it — the caller's — and DEFLATEs no faster than
    the caller alone (docs/PERF.md, row 28 of "Earlier perf PRs, one
    row each")."""

    def __init__(self, cpus: List[int]):
        self.workers = len(cpus)
        self.executor = (ThreadPoolExecutor(len(cpus), "deflate", _pin,
                                            (iter(cpus),))
                         if cpus else None)


_pool: Optional[_DeflatePool] = None
_pool_lock = threading.Lock()
_forks = 0  # how many forks this process descends through


def _shared_pool() -> _DeflatePool:
    """The process's pool, made for the first banded payload or
    :class:`PngJob`: a worker for each CPU beyond the caller's, none on
    a one-CPU affinity set."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = _DeflatePool(_spare_cpus())
        return _pool


def _forget_pool() -> None:
    """In a forked child, whose copy of the pool has no threads: its
    executor would count the parent's workers as idle, start none, and
    leave every run it is handed waiting for ever.  A :class:`PngJob`
    begun before the fork still holds its future; ``_forks`` tells it
    that no thread of this process will finish it."""
    global _pool, _pool_lock, _forks
    _pool, _pool_lock, _forks = None, threading.Lock(), _forks + 1


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _band_rows(row_bytes: int) -> int:
    """Rows per band of an image whose rows are *row_bytes* long."""
    return max(2, _BAND_BYTES // max(row_bytes, 1))


def _deflate_run(spans, level: int, wbits: int, last: bool) -> List[bytes]:
    """DEFLATE *spans* as consecutive segments of one stream, each ended
    by a ``Z_FULL_FLUSH`` — the stream's *last* run by ``Z_FINISH``."""
    deflater = zlib.compressobj(level, wbits=wbits)
    flushes = [zlib.Z_FULL_FLUSH] * (len(spans) - 1) + [
        zlib.Z_FINISH if last else zlib.Z_FULL_FLUSH]
    return [deflater.compress(span) + deflater.flush(mode)
            for span, mode in zip(spans, flushes)]


def _deflate_rows(header: bytes, rows: np.ndarray, level: int) -> bytes:
    """DEFLATE the (h, row_bytes) 'up'-filtered *rows* once, as
    independent row bands inside one zlib stream.

    An image shorter than two bands is ``zlib.compress`` of the rows,
    byte for byte, on the calling thread, which starts no pool for it
    (that thread is a pool worker when the prepare stage began the
    payload as a :class:`PngJob`).  A taller one is cut into
    segments, each ended by a ``Z_FULL_FLUSH``: every band's first row,
    then the rest of the band; the last band takes the remainder (it is
    never shorter than a band) and ends the stream with ``Z_FINISH``.
    A full flush forgets everything before it, so a segment DEFLATEs to
    the same bytes in a fresh raw stream.  The bands are therefore
    dealt in contiguous runs, one per CPU the process may use: the
    caller DEFLATEs the first run, which carries the zlib header, and
    each :class:`_DeflatePool` thread one of the others as raw DEFLATE.
    The parts join in order into the same bytes, whatever the number
    of CPUs.
    """
    h, row_bytes = rows.shape
    band = _band_rows(row_bytes)
    if h < 2 * band:
        return header + zlib.compress(rows.tobytes(), level)
    bands = h // band
    cuts = [row for start in range(0, bands * band, band)
            for row in (start, start + 1)] + [h]
    data = memoryview(rows).cast("B")
    spans = [data[a * row_bytes:b * row_bytes]
             for a, b in zip(cuts, cuts[1:])]
    pool = _shared_pool()
    runs = min(bands, pool.workers + 1)
    ends = [2 * (bands * run // runs) for run in range(1, runs + 1)]
    futures = [pool.executor.submit(_deflate_run, spans[a:b], level,
                                    -zlib.MAX_WBITS, b == len(spans))
               for a, b in zip(ends, ends[1:])]
    parts = _deflate_run(spans[:ends[0]], level, zlib.MAX_WBITS, runs == 1)
    parts += [part for future in futures for part in future.result()]
    if runs == 1:
        parts[-1] = parts[-1][:-4]  # the trailer belongs to no segment
    segments = tuple(
        _Segment(len(header) + end, zlib.adler32(span), span.nbytes)
        for end, span in zip(accumulate(map(len, parts)), spans))
    # Free the filtered rows (when the caller holds no other reference)
    # before the payload is assembled, so the payload, which outlives
    # this call, can take their place in the heap instead of landing
    # above them and pinning the hole they leave (docs/PERF.md, row 27
    # of "Earlier perf PRs, one row each").  The futures go too: each
    # holds C-heap blocks of its own (its condition's lock and deque),
    # and kept past the join they read as a higher peak_rss_mb in a
    # third of the launch configurations tried (docs/PERF.md, row 28
    # of "Earlier perf PRs, one row each").
    del rows, data, spans, futures
    return PngPayload(
        b"".join([header, *parts, _stream_adler(segments)]), segments)


def png_channels(pixels: np.ndarray) -> np.ndarray:
    """What a RAW block's PNG payload carries: a view of its RGB
    channels when every alpha byte is 255 — all a desktop draws — and
    the RGBA block otherwise.  :func:`png_decompress` restores alpha
    255 for a 3-channel payload.  (The first pixel is looked at alone
    first: a translucent block then costs no scan.)"""
    opaque = pixels[0, 0, 3] == 255 and pixels[..., 3].min() == 255
    return pixels[..., :3] if opaque else pixels


class PngJob:
    """The PNG payload of one RGBA block, DEFLATEd beside the thread
    that will read it.

    The prepare stage begins one for each PNG-encoded RAW or COMPOSITE
    block it prepares, and the command's clones share it.  A block of
    one band whatever its channel count is submitted to the
    :class:`_DeflatePool` at once; a larger block, or any block in a
    process with no spare CPU, is submitted nowhere.  The first
    :func:`png_compress` call handed the job finishes it on the calling
    thread: a job no worker has started is taken back and run there,
    and one a worker has started is waited for.  Either way the payload
    is what :func:`png_compress` makes of :func:`png_channels` of the
    block (*rgb_if_opaque*, a RAW's payload) or of the RGBA block, and
    ``nbytes`` is the size of what was DEFLATEd.  A forked child runs an
    inherited job itself: the parent's worker does not exist there.
    """

    __slots__ = ("_pixels", "_rgb", "_forks", "_future", "nbytes",
                 "payload")

    def __init__(self, pixels: np.ndarray, rgb_if_opaque: bool):
        self._pixels = pixels
        self._rgb = rgb_if_opaque
        self._forks = _forks
        self.nbytes = 0
        self.payload: Optional[bytes] = None  # set once finished
        h, w = pixels.shape[:2]
        executor = (_shared_pool().executor
                    if h < 2 * _band_rows(4 * w) else None)
        self._future = (executor.submit(self._run)
                        if executor is not None else None)

    def _run(self) -> bytes:
        img = png_channels(self._pixels) if self._rgb else self._pixels
        self.nbytes = img.nbytes
        return _png(img, 6)

    def _finish(self) -> bytes:
        future = self._future
        if future is None or self._forks != _forks or future.cancel():
            payload = self._run()
        else:
            payload = future.result()
        self.payload = payload
        self._pixels = self._future = None
        return payload


def _png(img: np.ndarray, level: int) -> bytes:
    h, w, c = img.shape
    return _deflate_rows(_png_header(h, w, c), kernels.up_filter(img), level)


def png_compress(pixels, level: int = 6) -> bytes:
    """PNG-model compression: 'up' row filter + DEFLATE.

    Input is an HxWxC uint8 array, which may be a strided view such as
    :func:`png_channels`' RGB of an RGBA block (the filter reads it in
    place); the output embeds the dimensions, channel count and filter
    so that :func:`png_decompress` is self-contained.  The 'up'
    predictor is fully vectorisable in both directions.  Handed a
    :class:`PngJob` instead, it finishes the job (once) and returns its
    payload.

    A tall image comes back as a :class:`PngPayload`: the same
    bytes-like payload, DEFLATEd once as row bands that
    :func:`png_split` can later slice apart without recompressing.
    """
    if isinstance(pixels, PngJob):
        return pixels._finish()
    img = np.asarray(pixels, dtype=np.uint8)
    if img.ndim != 3:
        raise ValueError("expected an HxWxC pixel array")
    return _png(img, level)


def png_compress_batch(blocks) -> list:
    """:func:`png_compress` per block.  Kept only because the
    thincbench tracer wraps it by name; ROADMAP item 25 deletes it."""
    return [png_compress(block) for block in blocks]


def png_first_head(payload: bytes) -> Optional[int]:
    """Size of the smallest unit a banded *payload* can be sent in: the
    head :func:`png_split` cuts at its first band, or the whole payload
    when that is its only band.  None for a payload without bands."""
    segments = getattr(payload, "segments", ())
    if len(segments) > 2:
        return segments[1].end + _HEAD_TRAILER
    return len(payload) if segments else None


def png_split(payload: bytes, pixels: np.ndarray,
              max_bytes: int) -> Optional[Tuple[int, bytes, bytes]]:
    """Cut a banded payload of the RGBA *pixels* at the last band
    boundary that keeps the head within *max_bytes*:
    ``(head_rows, head, rest)``, or None when *payload* has no second
    band or not even its first fits.

    Nothing is recompressed but the rest's first row, which loses its
    'up' predecessor and is DEFLATEd again as raw pixels of the
    payload's own channels (its header's ``c``).  The head is the
    prefix's segments closed by an empty final block, the rest is the
    zlib header, that row and the suffix's segments; both get their
    Adler-32 from the segment table, so both sizes are exact and both
    are again banded payloads.
    """
    segments = getattr(payload, "segments", ())
    band_ends = [seg.end for seg in segments[1:-2:2]]
    cut = 2 * bisect_right(band_ends, max_bytes - _HEAD_TRAILER)
    if not cut:
        return None
    (h, w), c = pixels.shape[:2], payload[4]
    head_segs, row_seg, tail = segments[:cut], segments[cut], \
        segments[cut + 1:]
    head_rows = sum(seg.size for seg in head_segs) // row_seg.size
    stream = memoryview(payload)
    head = PngPayload(b"".join([
        _png_header(head_rows, w, c),
        stream[_HEADER_BYTES:head_segs[-1].end],
        _EMPTY_FINAL_BLOCK, _stream_adler(head_segs)]), head_segs)
    row = pixels[head_rows, :, :c].tobytes()
    deflater = zlib.compressobj(wbits=-zlib.MAX_WBITS)
    restart = (payload[_HEADER_BYTES:_HEADER_BYTES + 2]  # the zlib header
               + deflater.compress(row) + deflater.flush(zlib.Z_FULL_FLUSH))
    shift = _HEADER_BYTES + len(restart) - row_seg.end
    rest_segs = (_Segment(row_seg.end + shift, zlib.adler32(row), len(row)),
                 *[seg._replace(end=seg.end + shift) for seg in tail])
    rest = PngPayload(b"".join([
        _png_header(h - head_rows, w, c), restart,
        stream[row_seg.end:-4], _stream_adler(rest_segs)]), rest_segs)
    return head_rows, head, rest


def png_decompress(data: bytes) -> np.ndarray:
    """Invert :func:`png_compress` into an HxWx4 RGBA array.

    The header's channel count must be 4 (RGBA rows) or 3 (RGB rows of
    an opaque block, which decode with alpha 255), and its filter id
    :data:`_UP_FILTER`; any other is a
    :class:`~repro.protocol.schema.FieldRangeError` before a byte is
    inflated.  Decompression is bounded by the geometry the header
    declares (and the global decoded-pixel limit): the DEFLATE stream
    is only allowed to produce ``h*w*c`` bytes, so a crafted payload
    cannot balloon a small frame into gigabytes of output before the
    size check runs.
    """
    if len(data) < 6:
        raise ValueError("truncated compressed pixel data")
    h = int.from_bytes(data[0:2], "big")
    w = int.from_bytes(data[2:4], "big")
    c = data[4]
    filter_id = data[5]
    if c not in (3, 4):
        raise FieldRangeError(
            f"PNG payload declares {c} channels; only 3 (RGB) or 4 "
            f"(RGBA) decode to pixels")
    if filter_id != _UP_FILTER:
        raise FieldRangeError(f"unknown filter id {filter_id}")
    if h * w * 4 > LIMITS.max_decoded_pixel_bytes:
        raise ValueError(
            f"declared geometry {h}x{w} decodes to {h * w * 4} bytes, "
            f"limit is {LIMITS.max_decoded_pixel_bytes}")
    expected = h * w * c
    # Ask for at most one byte more than the geometry needs: a stream
    # that still has output at expected+1 can only be oversized, and we
    # reject it without ever materialising the excess.
    dec = zlib.decompressobj()
    raw = dec.decompress(data[6:], expected + 1)
    if len(raw) != expected or dec.unconsumed_tail:
        raise ValueError(
            f"decompressed to more or fewer than the expected "
            f"{expected} bytes"
        )
    filtered = np.frombuffer(raw, dtype=np.uint8).reshape(h, w * c)
    if c == 4:
        return kernels.up_unfilter(filtered, h, w, c)
    # RGB rows unfilter straight into the opaque RGBA array.
    out = np.empty((h, w, 4), dtype=np.uint8)
    out[..., 3] = 255
    return kernels.up_unfilter(filtered, h, w, c, out)


def rle_compress(pixels: np.ndarray) -> bytes:
    """Run-length encode pixels, approximating VNC's hextile family.

    Encodes runs of identical RGBA pixels as (count, pixel) pairs with a
    16-bit count.  Cheap to compute and effective on the flat-colour
    content of desktop screens, poor on photographic data — the same
    trade-off the paper observes for VNC.
    """
    img = np.ascontiguousarray(pixels, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 4:
        raise ValueError("expected an HxWx4 RGBA array")
    h, w, _ = img.shape
    return (h.to_bytes(2, "big") + w.to_bytes(2, "big")
            + kernels.rle_encode(img))


def rle_size(pixels: np.ndarray) -> int:
    """The exact output size of :func:`rle_compress`, computed without
    materialising the encoding (vectorised; used by hot encoder paths).
    """
    img = np.ascontiguousarray(pixels, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 4:
        raise ValueError("expected an HxWx4 RGBA array")
    return 4 + kernels.rle_encoded_size(img)


def rle_decompress(data: bytes) -> np.ndarray:
    """Invert :func:`rle_compress`.

    Bounded like :func:`png_decompress`: the declared geometry may not
    exceed the global decoded-pixel limit, and the runs must cover it
    exactly with no trailing bytes.
    """
    if len(data) < 4:
        raise ValueError("truncated RLE data")
    h = int.from_bytes(data[0:2], "big")
    w = int.from_bytes(data[2:4], "big")
    if h * w * 4 > LIMITS.max_decoded_pixel_bytes:
        raise ValueError(
            f"declared geometry {h}x{w} decodes to {h * w * 4} bytes, "
            f"limit is {LIMITS.max_decoded_pixel_bytes}")
    return kernels.rle_decode(data[4:], h * w).reshape(h, w, 4)


def lossy_compress(pixels: np.ndarray) -> bytes:
    """JPEG-style lossy compression (4:2:0 + quantise + DEFLATE) at the
    encoder's flat quantiser step."""
    return _lossy.lossy_encode(pixels)


def lossy_decompress(data: bytes) -> np.ndarray:
    """Invert :func:`lossy_compress` up to quantisation error, bounded
    by the global decoded-pixel limit."""
    return _lossy.lossy_decode(data, LIMITS.max_decoded_pixel_bytes)
