"""Hypothesis strategies read off the wire schema.

``strategy_for(cls)`` builds a strategy for any class with a declared
layout — the 24 ``@message`` control classes, the seven ``@wire_type``
display commands and ``FrozenSession`` — from its field table: the
declared kind picks the generator, the declared bound its range.  Only
classes with a cross-field constraint the table cannot express (a
pixel block that must match its rect, a tile inside its wall) need a
hand-written strategy (``CROSS_FIELD`` below), and those still draw
their scalars from the rows; ``CheckedFrame`` wraps another message and
is composed from the rest.
"""

import numpy as np
from hypothesis import strategies as st

from repro.codec import Encoding
from repro.core.session_unit import _FLAGS, _FROZEN, _STATS, FrozenSession
from repro.protocol import commands, wire
from repro.protocol.commands import Command
from repro.region import Rect
from repro.video import yuv

u16 = st.integers(0, 0xFFFF)

#: Payload bytes per example: enough to exercise the length-bearing
#: kinds without making the property tests shuffle megabytes.
MAX_EXAMPLE_BYTES = 512


def field_strategy(field):
    """The strategy for one declared field (kind + bound)."""
    if field.values:  # choice / flag
        return st.sampled_from(field.values)
    if field.pytype is Rect:
        return st.builds(Rect, u16, u16, u16, u16)
    if field.pytype is tuple:  # rgba
        return st.tuples(*[st.integers(0, 255)] * 4)
    if field.pytype is float:
        return st.floats(field.lo, field.hi, allow_nan=False, width=64)
    if field.pytype is str:  # tag
        return st.text(st.characters(min_codepoint=32, max_codepoint=126),
                       max_size=field.hi)
    if field.pytype is bytes:  # rest / sized (blob sizes are cross-field)
        return st.binary(max_size=min(field.hi, MAX_EXAMPLE_BYTES))
    return st.integers(field.lo, field.hi)


def _rows(table):
    """One strategy per declared row of a field table, by name."""
    return {name: field_strategy(field)
            for name, field in table.fields.items()}


def _cursor_images():
    def build(dims):
        w, h = dims
        return st.builds(wire.CursorImageMessage, u16, u16,
                         st.just(w), st.just(h),
                         st.binary(min_size=w * h * 4, max_size=w * h * 4))
    return st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(build)


def _subscriptions():
    def tile(grid):
        cols, rows = grid
        return st.builds(wire.SubscribeMessage, st.just(wire.SUBSCRIBE_TILE),
                         st.just(cols), st.just(rows),
                         st.integers(0, cols * rows - 1))
    return st.one_of(
        st.just(wire.SubscribeMessage(wire.SUBSCRIBE_MIRROR)),
        st.tuples(st.integers(1, 64), st.integers(1, 64)).flatmap(tile))


def _tile_assignments():
    dims = field_strategy(wire.TileAssignMessage.schema.fields["wall_w"])

    def tile(wall):
        wall_w, wall_h = wall
        return st.tuples(st.integers(0, wall_w - 1),
                         st.integers(0, wall_h - 1)).flatmap(
            lambda origin: st.builds(
                wire.TileAssignMessage, st.just(wall_w), st.just(wall_h),
                st.builds(Rect, st.just(origin[0]), st.just(origin[1]),
                          st.integers(1, wall_w - origin[0]),
                          st.integers(1, wall_h - origin[1]))))
    return st.tuples(dims, dims).flatmap(tile)


#: A small non-empty destination anywhere a ``rect16`` can put it.
small_rects = st.builds(Rect, st.integers(0, 0xFFFF - 12),
                        st.integers(0, 0xFFFF - 12),
                        st.integers(1, 12), st.integers(1, 12))


def _bytes_block(*shape):
    """A uint8 array of *shape* with arbitrary content."""
    size = int(np.prod(shape))
    return st.binary(min_size=size, max_size=size).map(
        lambda data: np.frombuffer(data, np.uint8).reshape(shape))


def _pixel_commands(cls, *extra):
    """RAW / COMPOSITE: an RGBA block matching its rect."""
    return small_rects.flatmap(lambda rect: st.builds(
        cls, st.just(rect), _bytes_block(rect.height, rect.width, 4),
        *extra))


def _raws():
    tags = _rows(commands.RawCommand.schema)["encoding"]
    return _pixel_commands(commands.RawCommand, tags.map(Encoding))


def _copies():
    rows = _rows(commands.CopyCommand.schema)
    return st.builds(commands.CopyCommand, rows["src_x"], rows["src_y"],
                     small_rects)


def _pfills():
    def build(dims):
        th, tw = dims
        return st.builds(commands.PFillCommand, small_rects,
                         _bytes_block(th, tw, 4),
                         st.tuples(st.integers(-300, 300),
                                   st.integers(-300, 300)))
    return st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(build)


def _bitmaps():
    rows = _rows(commands.BitmapCommand.schema)
    return small_rects.flatmap(lambda rect: st.builds(
        commands.BitmapCommand, st.just(rect),
        _bytes_block(rect.height, rect.width).map(lambda m: m > 127),
        rows["fg"], st.none() | rows["bg"]))


def _vframes():
    rows = _rows(commands.VideoFrameCommand.schema)

    def build(spec):
        fmt, w, h = spec
        size = yuv.frame_size(fmt, w, h)
        return st.builds(
            commands.VideoFrameCommand, rows["stream_id"], small_rects,
            st.just(w), st.just(h), st.binary(min_size=size, max_size=size),
            rows["frame_no"], st.just(fmt))
    even = st.integers(1, 6).map(lambda n: 2 * n)
    return st.tuples(rows["pixel_format"], even, even).flatmap(build)


def _frozen_sessions():
    rows = _rows(_FROZEN)
    frames = st.lists(st.binary(max_size=48), max_size=4).map(tuple)
    journal = st.lists(st.tuples(rows["last_seq"], st.binary(max_size=48)),
                       max_size=4).map(tuple)
    marks = st.tuples(rows["last_seq"], rows["acked_seq"]).map(sorted)
    return marks.flatmap(lambda pair: st.builds(
        FrozenSession, token=rows["token"],
        viewport=st.tuples(rows["viewport_w"], rows["viewport_h"]),
        view_rect=small_rects,
        acked_seq=st.just(pair[0]), last_seq=st.just(pair[1]),
        journal=journal, commands=frames, replay=frames, control=frames,
        stats=st.fixed_dictionaries({key: rows[key] for key in _STATS}),
        qos_rung=rows["qos_rung"],
        **{name: st.booleans() for name in _FLAGS}))


#: The classes whose legal instances obey a cross-field constraint.
CROSS_FIELD = {
    wire.CursorImageMessage: _cursor_images,
    wire.SubscribeMessage: _subscriptions,
    wire.TileAssignMessage: _tile_assignments,
    commands.RawCommand: _raws,
    commands.CopyCommand: _copies,
    commands.SFillCommand: lambda: st.builds(
        commands.SFillCommand, small_rects,
        _rows(commands.SFillCommand.schema)["color"]),
    commands.PFillCommand: _pfills,
    commands.BitmapCommand: _bitmaps,
    commands.CompositeCommand: lambda: _pixel_commands(
        commands.CompositeCommand),
    commands.VideoFrameCommand: _vframes,
    FrozenSession: _frozen_sessions,
}


def strategy_for(cls):
    """A strategy producing legal instances of *cls*."""
    if cls in CROSS_FIELD:
        return CROSS_FIELD[cls]()
    if cls is wire.CheckedFrame:
        return st.builds(cls, st.integers(0, 0xFFFFFFFF), st.one_of(
            *(strategy_for(inner) for inner in wire._CONTROL_TYPES.values()
              if inner is not cls)))
    return st.builds(cls, *_rows(cls.schema).values())


def same_message(a, b) -> bool:
    """Equality for a round trip.  Control messages and frozen sessions
    are dataclasses; a command is equal when its rows are and — the
    payload kernels inverting — so is its decoded content (LOSSY is the
    one encoding whose pixels may differ)."""
    if not isinstance(a, Command):
        return a == b
    if type(a) is not type(b) or a.to_rows() != b.to_rows():
        return False
    if getattr(a, "encoding", None) is Encoding.LOSSY:
        return True
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("pixels", "mask", "tile") if hasattr(a, name))
