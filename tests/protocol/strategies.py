"""Hypothesis strategies read off the wire schema.

``strategy_for(cls)`` builds a strategy for any ``@message``-declared
control class from its field table: the declared kind picks the
generator, the declared bound its range.  Only classes with a
cross-field constraint the table cannot express need a hand-written
strategy (``CROSS_FIELD`` below); ``CheckedFrame`` wraps another
message and is composed from the rest.
"""

from hypothesis import strategies as st

from repro.protocol import wire
from repro.region import Rect

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
    if field.pytype is float:
        return st.floats(field.lo, field.hi, allow_nan=False, width=64)
    if field.pytype is str:  # tag
        return st.text(st.characters(min_codepoint=32, max_codepoint=126),
                       max_size=field.hi)
    if field.pytype is bytes:  # rest (blob sizes are cross-field)
        return st.binary(max_size=min(field.hi, MAX_EXAMPLE_BYTES))
    return st.integers(field.lo, field.hi)


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


#: The classes whose legal instances obey a cross-field constraint.
CROSS_FIELD = {
    wire.CursorImageMessage: _cursor_images,
    wire.SubscribeMessage: _subscriptions,
    wire.TileAssignMessage: _tile_assignments,
}


def strategy_for(cls):
    """A strategy producing legal instances of control class *cls*."""
    if cls in CROSS_FIELD:
        return CROSS_FIELD[cls]()
    if cls is wire.CheckedFrame:
        return st.builds(cls, st.integers(0, 0xFFFFFFFF), st.one_of(
            *(strategy_for(inner) for inner in wire._CONTROL_TYPES.values()
              if inner is not cls)))
    return st.builds(cls, *map(field_strategy, cls.schema.fields.values()))
