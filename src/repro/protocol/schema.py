"""Declarative wire schema: one field table per layout.

Every byte layout in the tree is declared once, as rows in wire order,
and compiled at import by :class:`FieldTable` into one ``struct``,
``pack`` and the one bounded ``parse``.  A control message (``wire.py``)
is a :func:`message` class whose rows become a frozen dataclass::

    @message("RESIZE", 21, "c->s", "6")
    class ResizeMessage:
        \"\"\"Client reports its viewport size.\"\"\"

        width = u16(1, "max_viewport_dim")
        height = u16(1, "max_viewport_dim")

A class that owns a wire id but keeps its own constructor (the display
commands in ``commands.py``) declares its header rows under
:func:`wire_type` and maps them itself: ``to_rows`` on the way out, the
``from_rows`` payload kernel on the way in.  Both enter the class in
:data:`REGISTRY`, which the frame dispatcher, :mod:`.spec`, the
generated docs and the property-test strategies read.  A layout with no
wire id (``FrozenSession`` in ``core/session_unit.py``) uses
``FieldTable(name, rows, check=)`` directly.

**Field kinds.**  ``u8/u16/u32/u64(lo, hi)`` (range-checked when a
bound is declared), ``f64(lo, hi)`` (always finite, plus the range),
``flag()`` (0/1 ↔ ``bool``), ``choice(values)`` (a ``u8`` index into
*values*), ``rect16()`` (4×u16 ↔ :class:`Rect`), ``rgba()`` (4×u8 ↔ a
colour tuple) and the length-bearing kinds, whose bytes follow the
fixed-size part: ``tag(max=...)`` (a ``u8``-prefixed ASCII string),
``sized(max=...)`` (``u32``-prefixed bytes), ``rest(max=...)`` (every
remaining byte) and ``blob(size=...)`` (exactly the product of the
named, bounded fields and constants).  Their bound is a required
argument — an unbounded slice cannot be declared.  A bound is an
``int``/``float`` literal or a string naming a
:class:`~repro.protocol.limits.WireLimits` field.

**Parse order** (the failure precedence receivers and the fuzzer's
outcome signatures rely on): length guard — short payload, trailing
bytes on a fixed layout, oversized ``rest`` — then each field's
finite/range/enum check in declared order, then the exact length of
the length-bearing field, then the optional cross-field ``check`` —
all before any object is built.  Every failure is a
:class:`ProtocolError` subclass.
"""

from __future__ import annotations

import math
import struct
import sys
from collections import namedtuple
from dataclasses import MISSING, dataclass
from typing import Callable, Dict, Optional

from ..region import Rect
from .limits import LIMITS

__all__ = [
    "ProtocolError", "ChecksumError", "TruncatedPayloadError",
    "FrameTooLargeError", "FieldRangeError",
    "Field", "FieldTable", "Schema", "REGISTRY", "DIRECTIONS",
    "message", "wire_type",
    "u8", "u16", "u32", "u64", "f64", "flag", "choice", "rect16", "rgba",
    "tag", "sized", "rest", "blob",
]


class ProtocolError(ValueError):
    """A malformed or inconsistent protocol stream.

    Subclasses :class:`ValueError` so generic stream-robustness code
    (and the fuzz suite) treats it like any other parse failure, while
    resilience-aware receivers can catch it specifically and trigger a
    resync instead of crashing.
    """


class ChecksumError(ProtocolError):
    """A CHECKED frame whose payload fails its CRC — corruption on the
    wire reached the parser."""


class TruncatedPayloadError(ProtocolError):
    """A payload shorter (or longer) than its message layout requires."""


class FrameTooLargeError(ProtocolError):
    """A length field declares more bytes than the typed limit allows."""


class FieldRangeError(ProtocolError):
    """A decoded field is outside its legal range (bad enum id,
    impossible dimension, non-finite float)."""


#: Who sends a message: server to client, client to server, either
#: client-facing side (HEARTBEAT), or shard to shard on the fabric.
DIRECTIONS = ("s->c", "c->s", "c<->s", "s->s")

#: type id -> class, filled by :func:`message` and :func:`wire_type`.
REGISTRY: Dict[int, type] = {}

FLOAT_MAX = sys.float_info.max


def _limit(bound):
    """Resolve a declared bound: a WireLimits field name or a literal."""
    return getattr(LIMITS, bound) if isinstance(bound, str) else bound


class Field:
    """One row of a field table.

    ``kind`` is the wire type the layout string prints, ``code`` the
    struct code(s) of the field's fixed-size part, ``lo``/``hi`` the
    resolved range every parsed slot is held to, ``bound`` the
    declared bound as the docs print it ("" when the whole wire range
    is legal) and ``values``, for a choice, the Python values its slot
    indexes.  ``slots`` and ``load`` are the two expressions
    :class:`FieldTable` compiles: the field's struct slot(s) in terms
    of its value ``{0}``, and its value in terms of the unpacked slots
    ``raw[{1}:{2}]``.  Declarations use the lower-case constructors
    below.
    """

    trailing = False  # True when the field's bytes follow the fixed part
    slots = "{0}"
    load = "raw[{1}]"

    def __init__(self, kind, code, pytype, lo=0, hi=0, bound="",
                 default=MISSING, values=(), **expressions):
        self.kind, self.code, self.pytype = kind, code, pytype
        self.lo, self.hi, self.bound = _limit(lo), _limit(hi), bound
        self.default, self.values = default, values
        if values:
            self.slots = "_{0}.values.index({0})"
        vars(self).update(expressions)

    def checker(self, what: str) -> Callable:
        """A closure taking this (bounded) field's slot to the checked
        Python value."""
        lo, hi, values = self.lo, self.hi, self.values

        def check(value):
            # NaN fails every comparison and inf lies past +-FLOAT_MAX,
            # so the range check is also the finiteness check.
            if not lo <= value <= hi:
                raise FieldRangeError(
                    f"{what} {value!r} outside [{lo}, {hi}]")
            return values[value] if values else value
        return check

    def layout(self, name: str) -> str:
        return f"{name}[{self.kind}]"


def _uint(bits, code):
    top = (1 << bits) - 1

    def make(lo=0, hi=top, default=MISSING):
        bound = "" if (lo, hi) == (0, top) else f"[{lo}, {hi}]"
        return Field(f"u{bits}", code, int, lo, hi, bound, default)
    return make


u8, u16, u32, u64 = _uint(8, "B"), _uint(16, "H"), _uint(32, "I"), \
    _uint(64, "Q")


def f64(lo=-FLOAT_MAX, hi=FLOAT_MAX, default=MISSING):
    """A finite double — NaN/inf poison clocks and backoff arithmetic
    downstream — optionally held to ``[lo, hi]``."""
    bound = "finite" if (lo, hi) == (-FLOAT_MAX, FLOAT_MAX) \
        else f"finite [{lo}, {hi}]"
    return Field("f64", "d", float, lo, hi, bound, default)


def choice(values):
    """A ``u8`` index into *values*; the attribute holds the value."""
    return Field("u8", "B", type(values[0]), 0, len(values) - 1, "enum",
                 MISSING, tuple(values))


def flag():
    """A ``u8`` that must be 0 or 1, as a ``bool``."""
    return choice((False, True))


def rect16():
    """x, y, width, height as four ``u16`` slots <-> :class:`Rect`."""
    return Field("4xu16", "HHHH", Rect, load="Rect(*raw[{1}:{2}])",
                 slots="{0}.x, {0}.y, {0}.width, {0}.height")


def rgba():
    """A colour as four ``u8`` slots <-> an ``(r, g, b, a)`` tuple."""
    return Field("4xu8", "BBBB", tuple, load="raw[{1}:{2}]", slots="*{0}")


class _Trailing(Field):
    """A length-bearing kind: its bytes follow the fixed-size part.
    A subclass says how many there must be (``sizer``) and how the
    layout string prints them (``tail_layout``)."""

    trailing = True
    slots = ""  # unless a length prefix sits in the fixed part
    wire = "{0}"  # the expression of its bytes, as ``slots``

    def from_wire(self, chunk: bytes, what: str):
        return chunk


class rest(_Trailing):
    """Every byte after the fixed-size part, at most ``max`` of them."""

    def __init__(self, *, max):
        super().__init__("rest", "", bytes, 0, getattr(LIMITS, max),
                         f"len <= {max}")
        self.spare_max = self.hi  # the cap the length guard enforces

    def tail_layout(self, name):
        return f"{name}[rest, {self.bound}]"

    def sizer(self, names, name):
        return lambda values, spare: spare  # the length guard capped it


class blob(_Trailing):
    """Exactly ``product(size)`` bytes; each factor is a constant or
    the name of a range-bounded integer field of the same table."""

    def __init__(self, *, size):
        self.size = tuple(size)
        self.product = "*".join(map(str, self.size))
        super().__init__("blob", "", bytes, bound=f"len == {self.product}")

    def tail_layout(self, name):
        return f"{name}[{self.product}]"

    def sizer(self, names, name):
        picks = [names.index(f) for f in self.size if isinstance(f, str)]
        const = math.prod(f for f in self.size if not isinstance(f, str))
        return lambda values, spare: const * math.prod(
            values[at] for at in picks)


class sized(_Trailing):
    """Length-prefixed bytes: the ``u32`` length sits in declared
    position, the bytes follow the fixed-size part and must fill the
    rest of the payload exactly."""

    slots = "len({0})"

    def __init__(self, *, max, default=MISSING, prefix=("u32", "I"),
                 pytype=bytes):
        super().__init__(*prefix, pytype, 0, getattr(LIMITS, max),
                         f"len <= {max}", default)

    def layout(self, name):
        return f"{name}_len[{self.kind}]"

    def tail_layout(self, name):
        return f"{name}[{name}_len]"

    def sizer(self, names, name):
        at = names.index(name)
        return lambda values, spare: values[at]


class tag(sized):
    """A short ASCII string behind a ``u8`` length."""

    slots = 'len({0}.encode("ascii"))'
    wire = '{0}.encode("ascii")'

    def __init__(self, *, max, default=MISSING):
        super().__init__(max=max, default=default, prefix=("u8", "B"),
                         pytype=str)

    def from_wire(self, chunk, what):
        try:
            return chunk.decode("ascii")
        except UnicodeDecodeError as exc:
            raise FieldRangeError(f"{what}: tag is not ASCII: {exc}") from exc


class FieldTable:
    """Declared rows compiled into ``pack`` and the bounded ``parse``.

    *fields* maps row name to :class:`Field` in wire order; *check*,
    when given, is a cross-field validator called with the parsed row
    as a named tuple; it raises a :class:`ProtocolError` to reject it.
    A second length-bearing row, a ``rest``/``blob`` that is not the
    last row, or a blob sized by an unbounded field raises
    ``ValueError`` here — before a byte is parsed.
    """

    def __init__(self, name: str, fields: Dict[str, Field],
                 check: Optional[Callable] = None):
        names = list(fields)
        trailing = [attr for attr in names if fields[attr].trailing]
        if len(trailing) > 1:
            raise ValueError(f"{name}: two variable-length fields "
                             f"({trailing[0]}, {trailing[1]})")
        tail = fields[trailing[0]] if trailing else None
        if tail is not None and not tail.code and trailing != names[-1:]:
            raise ValueError(f"{name}: {trailing[0]} must be the last row")
        for factor in getattr(tail, "size", ()):
            if isinstance(factor, str) and not (
                    factor in fields and fields[factor].pytype is int
                    and fields[factor].bound):
                raise ValueError(
                    f"{name}: blob {trailing[0]} is sized by {factor!r}, "
                    f"not a range-bounded integer field")
        self.name, self.fields, self.check = name, fields, check
        parts = [f.layout(attr) for attr, f in fields.items() if f.code]
        if tail is not None:
            parts.append(tail.tail_layout(trailing[0]))
        self.layout = " ".join(parts)  # as the protocol reference prints
        self.struct = struct.Struct(
            ">" + "".join(f.code for f in fields.values()))
        self._row = check and namedtuple("Row", names)._make
        # Two expressions, compiled here from the declared row names
        # and the kinds' own templates: one packs a row, one loads one
        # off the unpacked slots.  Nothing is interpreted per call.
        scope = {"_pack": self.struct.pack, "Rect": Rect,
                 **{f"_{attr}": f for attr, f in fields.items()}}
        slots = ", ".join(f.slots.format(attr)
                          for attr, f in fields.items() if f.slots)
        self.pack = eval(
            f"lambda {', '.join(names)}: _pack({slots})"
            + (f" + {tail.wire.format(trailing[0])}" if tail else ""), scope)
        loads, at = [], 0
        for attr, f in fields.items():
            if f.code:
                load = f.load.format(attr, at, at + len(f.code))
                if f.bound:
                    scope[f"_{attr}_ok"] = f.checker(f"{name} {attr}")
                    load = f"_{attr}_ok({load})"
                loads.append(load)
                at += len(f.code)
        self._load = eval(f"lambda raw: [{', '.join(loads)}]", scope)
        self._spare_max = getattr(tail, "spare_max", math.inf)
        self._tail = (None, None, 0, None) if tail is None else (
            trailing[0], tail, names.index(trailing[0]),
            tail.sizer(names, trailing[0]))

    def parse(self, data: bytes) -> list:
        """Bounded parse of one payload into its row values, in
        declared order (the module docstring gives the check order);
        raises only :class:`ProtocolError` subclasses."""
        fixed = self.struct.size
        spare = len(data) - fixed
        name, field, at, sizer = self._tail
        if spare < 0 or (spare and field is None):
            # Fixed layouts reject trailing garbage too: excess bytes mean
            # sender and receiver disagree about the layout.
            raise TruncatedPayloadError(
                f"{self.name}: payload is {len(data)} bytes, layout "
                f"needs {fixed}")
        if spare > self._spare_max:
            raise FrameTooLargeError(
                f"{self.name}: {name} of {spare} bytes exceeds "
                f"{self._spare_max}")
        values = self._load(self.struct.unpack_from(data))
        if field is not None:
            want = sizer(values, spare)
            if spare != want:
                raise TruncatedPayloadError(
                    f"{self.name}: {name} is {spare} bytes, layout "
                    f"needs {want}")
            # A prefixed tail replaces its length; a bare one is last.
            values[at:at + 1] = [field.from_wire(data[fixed:], self.name)]
        if self.check is not None:
            self.check(self._row(values))
        return values


class Schema(FieldTable):
    """The field table of a class that owns a wire id."""

    def __init__(self, name, type_id, direction, section, fields, check):
        if type_id in REGISTRY:
            raise ValueError(f"{name}: type id {type_id} is already taken")
        if direction not in DIRECTIONS:
            raise ValueError(f"{name}: unknown direction {direction!r}")
        super().__init__(name, fields, check)
        self.type_id, self.direction = type_id, direction
        self.section = section


def encode_payload(self) -> bytes:
    """The frame payload: this object's rows, packed."""
    return self.schema.pack(*self.to_rows())


def decode_payload(cls, data: bytes):
    """Bounded decode of one frame payload: parse the rows, then build
    the object from them."""
    return cls.from_rows(*cls.schema.parse(data))


def wire_type(name: str, type_id: int, direction: str, section: str,
              check: Optional[Callable] = None):
    """Class decorator declaring the wire layout of a class that keeps
    its own constructor: the class supplies ``to_rows(self)`` (one
    value per row) and the classmethod ``from_rows(cls, *row)`` (the
    payload kernel).  The rows in its body are compiled into
    ``cls.schema`` and taken out of the class namespace (a declared
    default stays); it also gets ``type_id``, the codec pair
    ``encode_payload``/``decode_payload`` and a :data:`REGISTRY` entry.
    """
    def declare(cls):
        fields = {attr: value for attr, value in vars(cls).items()
                  if isinstance(value, Field)}
        cls.schema = Schema(name, type_id, direction, section, fields, check)
        cls.type_id = type_id
        for attr, field in fields.items():
            if field.default is MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, field.default)
        cls.encode_payload = encode_payload
        cls.decode_payload = classmethod(decode_payload)
        REGISTRY[type_id] = cls
        return cls
    return declare


def message(name: str, type_id: int, direction: str, section: str,
            check: Optional[Callable] = None):
    """Class decorator declaring one control message: :func:`wire_type`
    plus a frozen dataclass with one attribute per row.  A class whose
    attributes are not its rows (CHECKED) annotates its own and defines
    ``to_rows``/``from_rows`` itself.
    """
    register = wire_type(name, type_id, direction, section, check)

    def declare(cls):
        fields = register(cls).schema.fields
        if "from_rows" not in vars(cls):
            cls.__annotations__ = {
                **{attr: field.pytype for attr, field in fields.items()},
                **vars(cls).get("__annotations__", {})}
            cls.to_rows = lambda self: [getattr(self, attr) for attr in fields]
            cls.from_rows = classmethod(lambda cls, *row: cls(*row))
        return dataclass(frozen=True)(cls)
    return declare
