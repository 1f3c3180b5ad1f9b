"""Declarative wire schema: one field table per control message.

A control message is declared once, as a class whose body lists its
payload fields in wire order::

    @message("RESIZE", 21, "c->s", "6")
    class ResizeMessage:
        \"\"\"Client reports its viewport size.\"\"\"

        width = u16(1, "max_viewport_dim")
        height = u16(1, "max_viewport_dim")

:func:`message` turns that, once at import, into a frozen dataclass
(positional constructor in declared order), a precompiled ``struct``,
``encode_payload``, the bounded ``decode_payload`` and a
:data:`REGISTRY` entry.  Everything else that used to restate the
layout — the spec rows and direction sets in :mod:`.spec`, the
generated protocol reference, the conformance matrix's bounds column
and the property-test strategies — reads the same declaration.

**Field kinds.**  ``u8/u16/u32/u64(lo, hi)`` (range-checked when a
bound is declared), ``f64(lo, hi)`` (always finite, plus the range),
``flag()`` (0/1 ↔ ``bool``), ``choice(values)`` (a ``u8`` index into
*values*), ``rect16()`` (x, y, w, h as 4×u16 ↔ :class:`Rect`) and the
three length-bearing kinds, whose bytes follow the fixed-size part:
``tag(max=...)`` (a ``u8``-prefixed ASCII string), ``rest(max=...)``
(every remaining byte) and ``blob(size=...)`` (exactly the product of
the named, bounded fields and constants).  Their bound is a required
argument — an unbounded slice cannot be declared.  A bound is an
``int``/``float`` literal or a string naming a
:class:`~repro.protocol.limits.WireLimits` field.

**Decode order** (the failure precedence receivers and the fuzzer's
outcome signatures rely on): length guard — short payload, trailing
bytes on a fixed layout, oversized ``rest`` — then each field's
finite/range/enum check in declared order, then the exact length of a
``tag``/``blob``, then the optional cross-field ``check``.  Every
failure is a :class:`ProtocolError` subclass.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import MISSING, dataclass
from typing import Callable, Dict, Optional, Tuple

from ..region import Rect
from .commands import COMMAND_TYPES
from .limits import LIMITS

__all__ = [
    "ProtocolError", "ChecksumError", "TruncatedPayloadError",
    "FrameTooLargeError", "FieldRangeError",
    "Field", "Schema", "REGISTRY", "DIRECTIONS", "message",
    "u8", "u16", "u32", "u64", "f64", "flag", "choice", "rect16",
    "tag", "rest", "blob",
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

#: type id -> control message class, filled by :func:`message`.
REGISTRY: Dict[int, type] = {}

FLOAT_MAX = sys.float_info.max


def _limit(bound):
    """Resolve a declared bound: a WireLimits field name or a literal."""
    return getattr(LIMITS, bound) if isinstance(bound, str) else bound


class Field:
    """One payload field of a control message.

    ``kind`` is the wire type the layout string prints, ``code`` the
    struct code(s) of the field's fixed-size part, ``lo``/``hi`` the
    resolved range every decoded slot is held to, ``bound`` the
    declared bound as the docs print it ("" when the whole wire range
    is legal) and ``values``, for a choice, the Python values its slot
    indexes.  Declarations use the lower-case constructors below.
    """

    trailing = False  # True when the field's bytes follow the fixed part
    spare_max = None  # rest only: the cap the length guard enforces

    def __init__(self, kind, code, pytype, lo=0, hi=0, bound="",
                 default=MISSING, values=()):
        self.kind, self.code, self.pytype = kind, code, pytype
        self.lo, self.hi, self.bound = _limit(lo), _limit(hi), bound
        self.default, self.values = default, values

    def to_slots(self, value) -> tuple:
        """The struct slot(s) *value* occupies."""
        return (self.values.index(value),) if self.values else (value,)

    def loader(self, what: str) -> Callable:
        """A closure that pulls this field's slot(s) off the unpacked
        value iterator and returns the checked Python value."""
        if not self.bound:
            return next
        lo, hi, values = self.lo, self.hi, self.values

        def load(raw):
            value = next(raw)
            # NaN fails every comparison and inf lies past +-FLOAT_MAX,
            # so the range check is also the finiteness check.
            if not lo <= value <= hi:
                raise FieldRangeError(
                    f"{what} {value!r} outside [{lo}, {hi}]")
            return values[value] if values else value
        return load

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


def choice(values, default=MISSING):
    """A ``u8`` index into *values*; the attribute holds the value."""
    return Field("u8", "B", type(values[0]), 0, len(values) - 1, "enum",
                 default, tuple(values))


def flag():
    """A ``u8`` that must be 0 or 1, as a ``bool``."""
    return choice((False, True))


class rect16(Field):
    """x, y, width, height as four ``u16`` slots <-> :class:`Rect`."""

    def __init__(self):
        super().__init__("4xu16", "HHHH", Rect)

    def to_slots(self, value):
        return value.as_tuple()

    def loader(self, what):
        return lambda raw: Rect(next(raw), next(raw), next(raw), next(raw))


class _Trailing(Field):
    """A length-bearing kind: its bytes follow the fixed-size part.
    A subclass says how many there must be (``tail_length``) and how
    the layout string prints them (``tail_layout``)."""

    trailing = True

    def to_wire(self, value) -> bytes:
        return value

    def from_wire(self, chunk: bytes, what: str):
        return chunk


class rest(_Trailing):
    """Every byte after the fixed-size part, at most ``max`` of them."""

    def __init__(self, *, max):
        super().__init__("rest", "", bytes, 0, getattr(LIMITS, max),
                         f"len <= {max}")
        self.spare_max = self.hi

    def tail_layout(self, name):
        return f"{name}[rest, {self.bound}]"

    def tail_length(self, name, values, spare):
        return spare  # the length guard already capped it


class blob(_Trailing):
    """Exactly ``product(size)`` bytes; each factor is a constant or
    the name of a range-bounded integer field of the same message."""

    def __init__(self, *, size):
        self.size = tuple(size)
        self.product = "*".join(map(str, self.size))
        super().__init__("blob", "", bytes, bound=f"len == {self.product}")

    def tail_layout(self, name):
        return f"{name}[{self.product}]"

    def tail_length(self, name, values, spare):
        # A name looks its decoded field up; a constant stands for itself.
        return math.prod(values.get(f, f) for f in self.size)


class tag(_Trailing):
    """A short ASCII string: its ``u8`` length sits in declared
    position, its bytes follow the fixed-size part."""

    def __init__(self, *, max, default=MISSING):
        super().__init__("u8", "B", str, 0, getattr(LIMITS, max),
                         f"len <= {max}", default)

    def to_slots(self, value):
        return (len(value.encode("ascii")),)

    def layout(self, name):
        return f"{name}_len[u8]"

    def tail_layout(self, name):
        return f"{name}[{name}_len]"

    def tail_length(self, name, values, spare):
        return values[name]

    def to_wire(self, value):
        return value.encode("ascii")

    def from_wire(self, chunk, what):
        try:
            return chunk.decode("ascii")
        except UnicodeDecodeError as exc:
            raise FieldRangeError(f"{what} is not ASCII: {exc}") from exc


@dataclass(frozen=True)
class Schema:
    """What :func:`message` compiled from one declaration."""

    name: str
    type_id: int
    direction: str
    section: str
    fields: Dict[str, Field]  # declared (wire) order
    layout: str  # the payload layout the protocol reference prints
    check: Optional[Callable]
    struct: struct.Struct  # the fixed-size part
    loaders: Tuple[Tuple[str, Callable], ...]
    tail: Optional[Tuple[str, Field]]  # the one length-bearing field


def encode_payload(self) -> bytes:
    """Pack the declared fields in declared order."""
    schema = self.schema
    body = schema.struct.pack(*[
        slot for name, field in schema.fields.items() if field.code
        for slot in field.to_slots(getattr(self, name))])
    if schema.tail is not None:
        name, field = schema.tail
        body += field.to_wire(getattr(self, name))
    return body


def decode_payload(cls, data: bytes):
    """Bounded decode of one payload (the module docstring gives the
    check order); raises only :class:`ProtocolError` subclasses."""
    schema = cls.schema
    name, tail = schema.tail or ("", None)
    fixed = schema.struct.size
    spare = len(data) - fixed
    if spare < 0 or (spare and tail is None):
        # Fixed layouts reject trailing garbage too: excess bytes mean
        # sender and receiver disagree about the layout.
        raise TruncatedPayloadError(
            f"{schema.name}: payload is {len(data)} bytes, layout "
            f"needs {fixed}")
    if tail is not None and tail.spare_max is not None \
            and spare > tail.spare_max:
        raise FrameTooLargeError(
            f"{schema.name}: {name} of {spare} bytes exceeds "
            f"{tail.spare_max}")
    raw = iter(schema.struct.unpack_from(data))
    values = {attr: load(raw) for attr, load in schema.loaders}
    if tail is not None:
        want = tail.tail_length(name, values, spare)
        if spare != want:
            raise TruncatedPayloadError(
                f"{schema.name}: {name} is {spare} bytes, layout "
                f"needs {want}")
        values[name] = tail.from_wire(data[fixed:],
                                      f"{schema.name} {name}")
    msg = cls(**values)
    if schema.check is not None:
        schema.check(msg)
    return msg


def message(name: str, type_id: int, direction: str, section: str,
            check: Optional[Callable] = None):
    """Class decorator declaring one control message.

    *check*, when given, is a cross-field validator called with the
    decoded message; it raises :class:`FieldRangeError` to reject it.
    A class that defines its own ``decode_payload`` (CHECKED) keeps its
    codec and names its payload in a ``layout`` class attribute; it is
    still made a frozen dataclass and registered.
    """
    def declare(cls):
        if type_id in REGISTRY or type_id in COMMAND_TYPES:
            raise ValueError(f"{name}: type id {type_id} is already taken")
        if direction not in DIRECTIONS:
            raise ValueError(f"{name}: unknown direction {direction!r}")
        fields = {attr: value for attr, value in vars(cls).items()
                  if isinstance(value, Field)}
        trailing = [(attr, f) for attr, f in fields.items() if f.trailing]
        if len(trailing) > 1:
            raise ValueError(f"{name}: two variable-length fields "
                             f"({trailing[0][0]}, {trailing[1][0]})")
        tail = trailing[0] if trailing else None
        if tail is not None and isinstance(tail[1], blob):
            for factor in tail[1].size:
                if isinstance(factor, str) and not (
                        factor in fields and fields[factor].pytype is int
                        and fields[factor].bound):
                    raise ValueError(
                        f"{name}: blob {tail[0]} is sized by {factor!r}, "
                        f"not a range-bounded integer field")
        for attr, field in fields.items():
            if field.default is MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, field.default)
        cls.__annotations__ = {
            **{attr: field.pytype for attr, field in fields.items()},
            **vars(cls).get("__annotations__", {})}
        cls = dataclass(frozen=True)(cls)
        parts = [f.layout(attr) for attr, f in fields.items() if f.code]
        if tail is not None:
            parts.append(tail[1].tail_layout(tail[0]))
        cls.type_id = type_id
        cls.schema = Schema(
            name, type_id, direction, section, fields,
            vars(cls).get("layout") or " ".join(parts), check,
            struct.Struct(">" + "".join(f.code for f in fields.values())),
            tuple((attr, f.loader(f"{name} {attr}"))
                  for attr, f in fields.items() if f.code),
            tail)
        if "decode_payload" not in vars(cls):
            cls.encode_payload = encode_payload
            cls.decode_payload = classmethod(decode_payload)
        REGISTRY[type_id] = cls
        return cls
    return declare
