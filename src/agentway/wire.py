"""Binary state-image format, frame envelope, payload codecs and compression.

Everything here is a pure function of its inputs; all multi-byte integers
are big-endian. The state image carries persistent fields only; transient
fields live in the schema and are re-seeded with their declared defaults
on every decode.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property, partial
from itertools import repeat
from typing import Any, Callable, ClassVar, Iterable, Optional

MAGIC = b"MAMP"
VERSION = 1
FRAME_OVERHEAD = 16  # magic(4) + version/kind/flags/reserved(4) + payload_len(4) + crc32(4)
HEADER_LEN = 12  # the envelope before the payload: what a stream reader needs to learn a frame's length

FLAG_COMPRESSED = 0x01
FLAG_PROBE = 0x02  # AGENT_TRANSFER only: code-presence probe, no instantiation

MAX_FRAME_BYTES = 16 * 1024 * 1024  # longest TCP frame, envelope included, sent or read
MAX_INFLATED_BYTES = MAX_FRAME_BYTES  # a compressed payload inflates to at most this
INFLATE_STEP = 64 * 1024

DIGEST_LEN = 32
AGENT_ID_LEN = 16


class FrameKind(IntEnum):
    CODE_PUSH = 0x01
    AGENT_TRANSFER = 0x02
    ACK = 0x03
    ERROR = 0x04
    # 0x05 is retired (it carried per-hop timing reports): never reuse it
    FORWARD_REQUEST = 0x06


class TypeTag(IntEnum):
    BOOL = 0x01
    INT32 = 0x02
    INT64 = 0x03
    FLOAT64 = 0x04
    STRING = 0x05
    STRING_ARRAY = 0x06
    BYTES = 0x07
    INT32_ARRAY = 0x08


# NACK / error codes carried in ERROR frames
ERR_CODE_MISSING = 1
ERR_DECODE_FAILED = 2
ERR_DIGEST_MISMATCH = 3
ERR_SCHEMA_MISMATCH = 4
ERR_INTERNAL = 5
ERR_BAD_FRAME = 6


class WireError(Exception):
    """Malformed or inconsistent wire data."""


class TruncatedError(WireError):
    pass


class SchemaMismatchError(WireError):
    pass


# ---------------------------------------------------------------------------
# readers and writers: a reader takes the data and an offset, and returns the
# value it read with the offset just past it. Each field type has one reader and
# one writer, which read and write lengths inline; a cut names what it cuts short.

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")

Read = Callable[[bytes, int], "tuple[Any, int]"]


def _take(data: bytes, pos: int, n: int) -> tuple[bytes, int]:
    if pos + n > len(data):
        raise TruncatedError(f"need {n} bytes at offset {pos}, have {len(data) - pos}")
    return data[pos : pos + n], pos + n


def _fixed_reader(fmt: struct.Struct) -> Read:
    """The reader of one value that ``fmt`` packs."""
    size, unpack = fmt.size, fmt.unpack_from

    def read(data: bytes, pos: int) -> tuple[Any, int]:
        if pos + size > len(data):
            _take(data, pos, size)  # raises its TruncatedError
        return unpack(data, pos)[0], pos + size

    return read


_u8, _u16, _u32 = map(_fixed_reader, (_U8, _U16, _U32))


def _text(data: bytes, pos: int, length: struct.Struct = _U16) -> tuple[str, int]:
    """UTF-8 text after its byte length, which ``length`` packs."""
    start = pos + length.size
    if start > len(data):
        _take(data, pos, length.size)
    end = start + length.unpack_from(data, pos)[0]
    if end > len(data):
        _take(data, start, end - start)
    try:
        return data[start:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise WireError(f"invalid UTF-8 at offset {start}") from exc


def _strings(data: bytes, pos: int) -> tuple[list, int]:
    """A u16 count of strings, each UTF-8 after its u32 byte length, read inline."""
    values, size, unpack = [], len(data), _U32.unpack_from
    if pos + 2 > size:
        _take(data, pos, 2)
    count, pos = _U16.unpack_from(data, pos)[0], pos + 2
    for _ in range(count):
        start = pos + 4
        if start > size:
            _take(data, pos, 4)
        pos = start + unpack(data, pos)[0]
        if pos > size:
            _take(data, start, pos - start)
        try:
            values.append(data[start:pos].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise WireError(f"invalid UTF-8 at offset {start}") from exc
    return values, pos


def _blob(data: bytes, pos: int) -> tuple[bytes, int]:
    if pos + 4 > len(data):
        _take(data, pos, 4)
    return _take(data, pos + 4, _U32.unpack_from(data, pos)[0])


def _int32s(data: bytes, pos: int) -> tuple[list, int]:
    count, start = _u16(data, pos)
    end = start + 4 * count
    if end > len(data):  # names the first int32 cut short
        _take(data, start + (len(data) - start) // 4 * 4, 4)
    return list(struct.unpack_from(f">{count}i", data, start)), end


_digest, _agent_id = partial(_take, n=DIGEST_LEN), partial(_take, n=AGENT_ID_LEN)


def _each(data: bytes, pos: int, readers: Iterable[Read]) -> tuple[list, int]:
    """The values the readers read one after another."""
    values = []
    for read in readers:
        value, pos = read(data, pos)
        values.append(value)
    return values, pos


def _whole(data: bytes, readers: Iterable[Read]) -> list:
    """The values the readers read from all of ``data``; a byte left over is an error."""
    values, pos = _each(data, 0, readers)
    if pos != len(data):
        raise WireError(f"{len(data) - pos} trailing bytes after payload")
    return values


def _array(item: Read) -> Read:
    """The reader of a u16 count and that many items."""
    return lambda data, pos: _each(data, pos + 2, repeat(item, _u16(data, pos)[0]))


def _u16_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WireError(f"string too long for u16 prefix: {len(raw)} bytes")
    return _U16.pack(len(raw)) + raw


def _u32_prefixed(raw: bytes) -> bytes:
    if len(raw) > 0xFFFFFFFF:
        raise WireError(f"value too long for u32 prefix: {len(raw)} bytes")
    return _U32.pack(len(raw)) + raw


def _count(values: list) -> bytes:
    """The u16 count before an array's items."""
    if len(values) > 0xFFFF:
        raise WireError(f"array too long for u16 count: {len(values)} items")
    return _U16.pack(len(values))


def _write_strings(prefix: bytes, values: list) -> bytes:
    """A ``string[]`` field: its prefix, u16 count, and each item's u32 length and UTF-8."""
    if (count := len(values)) > 0xFFFF:
        raise WireError(f"array too long for u16 count: {count} items")
    parts, pack = [prefix, _U16.pack(count)], _U32.pack
    for value in values:
        raw = value.encode("utf-8")
        if (size := len(raw)) > 0xFFFFFFFF:
            raise WireError(f"value too long for u32 prefix: {size} bytes")
        parts.append(pack(size))
        parts.append(raw)
    return b"".join(parts)


# ---------------------------------------------------------------------------
# field types


@dataclass(frozen=True)
class FieldType:
    """A type tag's name in schema files, zero value, reader, and writer: given a
    field's prefix, a function of the value that returns the prefix and its bytes."""

    name: str
    zero: Any
    decode: Read
    writer: Callable[[bytes], Callable[[Any], bytes]]


def _fixed(name: str, zero: Any, code: str) -> FieldType:
    """A fixed-width type; one struct writes a field's prefix and value."""
    return FieldType(name, zero, _fixed_reader(struct.Struct(">" + code)),
                     lambda prefix: partial(struct.Struct(f">{len(prefix)}s{code}").pack, prefix))


def _variable(name: str, zero: Any, decode: Read, encode: Callable[[bytes, Any], bytes]) -> FieldType:
    """A type of varying width; ``encode`` takes a field's prefix and a value."""
    return FieldType(name, zero, decode, lambda prefix: partial(encode, prefix))


FIELD_TYPES: dict[TypeTag, FieldType] = {
    TypeTag.BOOL: _fixed("bool", False, "?"),  # packs truthiness as 1 or 0; reads nonzero as True
    TypeTag.INT32: _fixed("int32", 0, "i"),
    TypeTag.INT64: _fixed("int64", 0, "q"),
    TypeTag.FLOAT64: _fixed("float64", 0.0, "d"),
    TypeTag.STRING: _variable("string", "", lambda data, pos: _text(data, pos, _U32),
                              lambda prefix, v: prefix + _u32_prefixed(v.encode("utf-8"))),
    TypeTag.STRING_ARRAY: _variable("string[]", [], _strings, _write_strings),
    TypeTag.BYTES: _variable("bytes", b"", _blob, lambda prefix, v: prefix + _u32_prefixed(bytes(v))),
    TypeTag.INT32_ARRAY: _variable("int32[]", [], _int32s, lambda prefix, vs: b"".join(
        [prefix, _count(vs), struct.pack(f">{len(vs)}i", *vs)])),
}
TAG_BY_NAME = {t.name: tag for tag, t in FIELD_TYPES.items()}


# ---------------------------------------------------------------------------
# schema and records


@dataclass(frozen=True)
class FieldDescriptor:
    name: str
    tag: TypeTag
    transient: bool = False
    default: Any = None

    def __post_init__(self) -> None:
        raw = self.name.encode("utf-8")
        if not 1 <= len(raw) <= 255:
            raise WireError(f"field name must be 1-255 UTF-8 bytes: {self.name!r}")
        if self.tag not in FIELD_TYPES:
            raise WireError(f"unknown type tag {self.tag!r} for field {self.name!r}")
        if self.transient and self.default is None:
            # transient fields always carry a hard-coded default
            object.__setattr__(self, "default", field_default(self))


def field_default(f: FieldDescriptor) -> Any:
    """The value a record starts with in field ``f``: a transient's declared
    default, else its type's zero value.

    Lists are copied, so no record shares one with the schema or another record.
    """
    value = f.default if f.transient and f.default is not None else FIELD_TYPES[f.tag].zero
    return _own(value)


def _own(value: Any) -> Any:
    return list(value) if isinstance(value, list) else value


def _prefix(f: FieldDescriptor) -> bytes:
    """What precedes a persistent field's value: its name (u8 length + UTF-8) and type tag."""
    raw = f.name.encode("utf-8")
    return bytes([len(raw)]) + raw + bytes([f.tag])


def schema_hash(fields: Iterable[FieldDescriptor]) -> int:
    """CRC-32 over the ordered persistent field names and type tags."""
    return zlib.crc32(b"".join(_prefix(f) for f in fields if not f.transient)) & 0xFFFFFFFF


class Schema(tuple):
    """A kind's fields: an immutable tuple of ``FieldDescriptor``s with distinct names. It
    compiles its codec on its first encode or decode and keeps it for all that hold it."""

    def __new__(cls, fields: Iterable[FieldDescriptor] = ()) -> "Schema":
        if type(fields) is cls:
            return fields
        schema = super().__new__(cls, fields)
        if len({f.name for f in schema}) != len(schema):
            raise WireError("duplicate field names in record")
        return schema

    @cached_property  # once built, the codec is read from the instance without a call
    def codec(self) -> "_Codec":
        return _Codec(self)


@dataclass
class StateRecord:
    """An agent's typed fields plus identity; the unit of serialization.

    A field missing from ``values`` starts at ``field_default``.
    """

    kind_name: str
    namespace: str = ""
    fields: Schema = field(default_factory=Schema)  # a list passed in is made one
    values: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.fields = Schema(self.fields)
        for f in self.fields:
            if f.name not in self.values:
                self.values[f.name] = field_default(f)

    def persistent_fields(self) -> list[FieldDescriptor]:
        return [f for f in self.fields if not f.transient]

    def schema_hash(self) -> int:
        return schema_hash(self.fields)

    def get(self, name: str) -> Any:
        return self.values[name]

    def set(self, name: str, value: Any) -> None:
        if name not in self.values:
            raise KeyError(name)
        self.values[name] = value

    def copy(self) -> "StateRecord":
        record = StateRecord.__new__(StateRecord)  # __post_init__ checked this one when it was built
        vars(record).update(vars(self), values={k: _own(v) for k, v in self.values.items()})
        return record


# ---------------------------------------------------------------------------
# the state image, one codec compiled per schema: kind_name and namespace (each u16 len +
# bytes), a tail of schema_hash (u32) and persistent field count (u16), then for each
# persistent field a prefix of name (u8 len + bytes) and type tag (u8) before its value


class _Codec:
    """One schema compiled: its hash and tail, each persistent field's prefix, reader
    and writer, the transients' defaults, and ``head``: the kind, namespace and header
    bytes of the last image it wrote or read, one tuple that is swapped whole."""

    def __init__(self, fields: Schema) -> None:
        persistent = [f for f in fields if not f.transient]
        if len(persistent) > 0xFFFF:
            raise WireError("too many persistent fields")
        self.hash = schema_hash(fields)
        self.tail = _U32.pack(self.hash) + _U16.pack(len(persistent))
        pairs = [(f, _prefix(f)) for f in persistent]
        self.readers = [(prefix, f.name, FIELD_TYPES[f.tag].decode) for f, prefix in pairs]
        self.writers = [(f.name, FIELD_TYPES[f.tag].writer(prefix)) for f, prefix in pairs]
        transients = [f for f in fields if f.transient]
        self.defaults = {f.name: f.default for f in transients if not isinstance(f.default, list)}
        self.lists = [(f.name, f.default) for f in transients if isinstance(f.default, list)]
        self.head = ("", "", bytes(4) + self.tail)  # the empty kind and namespace

    def header(self, kind: str, namespace: str) -> bytes:
        head = self.head
        if head[0] != kind or head[1] != namespace:
            head = self.head = (kind, namespace, _u16_str(kind) + _u16_str(namespace) + self.tail)
        return head[2]


def encode_state(record: StateRecord) -> bytes:
    """Serialize the persistent part of a record to its canonical bytes."""
    codec, values = record.fields.codec, record.values
    header = codec.header(record.kind_name, record.namespace)
    return b"".join([header, *[write(values[name]) for name, write in codec.writers]])


def peek_kind_name(data: bytes) -> str:
    """Read the kind name off the front of a state image without full decode."""
    return _text(data, 0)[0]


def decode_state(data: bytes, schema: Iterable[FieldDescriptor]) -> StateRecord:
    """Rebuild a record of ``schema``: persistent fields from the wire, transients at
    defaults. A schema given as a list is compiled for this call only. An image that
    starts with the codec's kept header bytes has its kind and namespace, checked when
    it was kept; any other image's header is read and checked, then kept."""
    schema = schema if type(schema) is Schema else Schema(schema)  # no call on every hop's path
    codec = schema.codec
    kind, namespace, header = codec.head
    if data.startswith(header):
        pos = len(header)
    else:
        kind, pos = _text(data, 0)
        namespace, pos = _text(data, pos)
        if not data.startswith(codec.tail, pos):  # the hash, else the count, differs
            embedded, pos = _u32(data, pos)
            if embedded != codec.hash:
                raise SchemaMismatchError(f"schema hash 0x{embedded:08X} != expected "
                                          f"0x{codec.hash:08X} (code/state version skew)")
            raise SchemaMismatchError(
                f"field count {_u16(data, pos)[0]} != schema's {len(codec.readers)}")
        pos += len(codec.tail)
        codec.head = (kind, namespace, data[:pos])
    values: dict[str, Any] = {}
    for prefix, name, read in codec.readers:
        if not data.startswith(prefix, pos):  # the name or the tag differs
            wire_name, pos = _text(data, pos, _U8)
            tag = _u8(data, pos)[0]
            if tag not in FIELD_TYPES:
                raise WireError(f"unknown type tag 0x{tag:02X}")
            raise SchemaMismatchError(f"field {wire_name!r}/0x{tag:02X} does not match schema")
        values[name], pos = read(data, pos + len(prefix))
    if pos != len(data):
        raise WireError(f"{len(data) - pos} trailing bytes after state image")
    values.update(codec.defaults)
    for name, default in codec.lists:
        values[name] = list(default)
    record = StateRecord.__new__(StateRecord)  # the schema and this decoder made __post_init__'s checks
    vars(record).update(kind_name=kind, namespace=namespace, fields=schema, values=values)
    return record


@dataclass
class SizeBreakdown:
    total: int
    header_bytes: int
    per_field: dict[str, int]


def measure_state(record: StateRecord) -> SizeBreakdown:
    """Exact byte accounting of the encoded state, per field."""
    codec = record.fields.codec
    header = len(codec.header(record.kind_name, record.namespace))
    per_field = {name: len(write(record.values[name])) for name, write in codec.writers}
    return SizeBreakdown(header + sum(per_field.values()), header, per_field)


# ---------------------------------------------------------------------------
# compression (RFC 1952 container)


def compress_payload(data: bytes) -> bytes:
    # level 6, zlib's default; mtime pinned so identical inputs give identical containers
    return gzip.compress(data, compresslevel=6, mtime=0)


def decompress_payload(data: bytes) -> bytes:
    """Inflate one gzip member; refuse one that inflates past ``MAX_INFLATED_BYTES``.
    It inflates in ``INFLATE_STEP`` steps into one buffer, so refusing holds the cap once."""
    inflater = zlib.decompressobj(16 + zlib.MAX_WBITS)  # 16+: expect the gzip header and trailer
    out, pending = bytearray(), data
    try:
        while not inflater.eof:
            step = inflater.decompress(pending, INFLATE_STEP)
            if not step and len(inflater.unconsumed_tail) == len(pending):
                break  # truncated: no input taken, nothing produced
            out += step
            pending = inflater.unconsumed_tail
            if len(out) > MAX_INFLATED_BYTES:
                raise WireError(f"gzip container inflates past {MAX_INFLATED_BYTES} bytes")
    except zlib.error as exc:
        raise WireError(f"corrupt gzip container: {exc}") from exc
    if not inflater.eof or inflater.unused_data:
        raise WireError("corrupt gzip container: truncated, or bytes after its end")
    return bytes(out)


# ---------------------------------------------------------------------------
# frame envelope


@dataclass(frozen=True, init=False)
class Frame:
    kind: FrameKind
    payload: bytes = b""
    flags: int = 0
    _encoded: ClassVar[Optional[bytes]] = None  # an instance's own once encoded() keeps it

    def __init__(self, kind: FrameKind, payload: bytes = b"", flags: int = 0) -> None:
        # one write of the instance dict, where a frozen __init__ sets each field apart
        self.__dict__.update(kind=kind, payload=payload, flags=flags)

    def encoded(self) -> bytes:
        """``encode_frame(self)``, made on first use and kept when the payload is
        ``bytes``, which cannot change under it: a frame sent to many peers is
        encoded once. A plain attribute, as ``cached_property`` locks."""
        data = self._encoded
        if data is None:
            data = encode_frame(self)
            if type(self.payload) is bytes:
                object.__setattr__(self, "_encoded", data)
        return data


_FRAME_HEADER = struct.Struct(">4sBBBxI")  # magic, version, kind, flags, reserved, payload_len


def encode_frame(frame: Frame) -> bytes:
    if frame.kind not in FrameKind._value2member_map_:
        raise WireError(f"unsupported frame kind {frame.kind!r}")
    header = _FRAME_HEADER.pack(MAGIC, VERSION, frame.kind, frame.flags, len(frame.payload))
    crc = zlib.crc32(frame.payload, zlib.crc32(header))  # over the parts: no copy only to CRC
    return b"".join([header, frame.payload, _U32.pack(crc)])


def frame_length(header: bytes) -> int:
    """Length of the whole frame that starts with this ``HEADER_LEN``-byte header, magic and
    ``MAX_FRAME_BYTES`` checked, so no peer makes a reader buffer more."""
    if header[:4] != MAGIC:
        raise WireError(f"bad magic {header[:4]!r}")
    end = FRAME_OVERHEAD + _U32.unpack_from(header, 8)[0]
    if end > MAX_FRAME_BYTES:
        raise WireError(f"frame of {end} bytes exceeds the limit of {MAX_FRAME_BYTES}")
    return end


def decode_frame(data: bytes) -> Frame:
    if len(data) < FRAME_OVERHEAD:
        raise TruncatedError(f"frame needs at least {FRAME_OVERHEAD} bytes, got {len(data)}")
    magic, version, kind, flags, payload_len = _FRAME_HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported version {version}")
    member = FrameKind._value2member_map_.get(kind)
    if member is None:
        raise WireError(f"unknown frame kind 0x{kind:02X}")
    if len(data) != FRAME_OVERHEAD + payload_len:
        raise TruncatedError(f"frame length {len(data)} != {FRAME_OVERHEAD + payload_len} "
                             "implied by header")
    payload = data[HEADER_LEN : HEADER_LEN + payload_len]
    crc = _U32.unpack_from(data, HEADER_LEN + payload_len)[0]
    expected = zlib.crc32(payload, zlib.crc32(data[:HEADER_LEN]))
    if crc != expected:
        raise WireError(f"crc mismatch: 0x{crc:08X} != 0x{expected:08X}")
    return Frame(member, payload, flags)


# ---------------------------------------------------------------------------
# payload codecs for each frame kind (artifact plumbing, also big-endian)


@dataclass(frozen=True)
class CodePushPayload:
    kind_name: str
    digest: bytes
    code: bytes

    def encode(self) -> bytes:
        if len(self.digest) != DIGEST_LEN:
            raise WireError("digest must be 32 bytes")
        return _u16_str(self.kind_name) + self.digest + _u32_prefixed(self.code)

    @classmethod
    def decode(cls, data: bytes) -> "CodePushPayload":
        return cls(*_whole(data, (_text, _digest, _blob)))


@dataclass(frozen=True, init=False)
class AgentTransferPayload:
    agent_id: bytes
    digest: bytes
    hop_index: int
    state: bytes

    PREFIX = struct.Struct(f">{AGENT_ID_LEN}s{DIGEST_LEN}sH")
    HEADER_LEN = PREFIX.size

    def __init__(self, agent_id: bytes, digest: bytes, hop_index: int, state: bytes) -> None:
        self.__dict__.update(agent_id=agent_id, digest=digest, hop_index=hop_index, state=state)

    @classmethod
    def pack(cls, agent_id: bytes, digest: bytes, hop_index: int, state: bytes) -> bytes:
        """The payload's bytes, with no payload object: the hop path's encoder."""
        if len(agent_id) != AGENT_ID_LEN or len(digest) != DIGEST_LEN:
            raise WireError("agent_id must be 16 bytes, digest 32 bytes")
        return cls.PREFIX.pack(agent_id, digest, hop_index) + state

    @classmethod
    def fields(cls, data: bytes) -> tuple[bytes, bytes, int, bytes]:
        """(agent_id, digest, hop_index, state), with no payload object: the hop path's decoder."""
        if len(data) < cls.HEADER_LEN:
            _each(data, 0, (_agent_id, _digest, _u16))  # raises its TruncatedError
        return (*cls.PREFIX.unpack_from(data), data[cls.HEADER_LEN :])

    def encode(self) -> bytes:
        return self.pack(self.agent_id, self.digest, self.hop_index, self.state)

    @classmethod
    def decode(cls, data: bytes) -> "AgentTransferPayload":
        return cls(*cls.fields(data))


@dataclass(frozen=True)
class ErrorPayload:
    code: int
    message: str = ""
    agent_id: bytes = b"\x00" * AGENT_ID_LEN

    def encode(self) -> bytes:
        return bytes([self.code]) + self.agent_id + _u16_str(self.message)

    @classmethod
    def decode(cls, data: bytes) -> "ErrorPayload":
        code, agent_id, message = _whole(data, (_u8, _agent_id, _text))
        return cls(code=code, message=message, agent_id=agent_id)


ACK = Frame(FrameKind.ACK)  # the plain positive reply; encoded() makes its bytes once


def nack(code: int, message: str, agent_id: bytes = b"\x00" * AGENT_ID_LEN) -> Frame:
    """An ``ERROR`` frame, a refusal or a failure reported to an agent's origin;
    the one place such a frame is built."""
    return Frame(FrameKind.ERROR, ErrorPayload(code, message, agent_id).encode())


@dataclass(frozen=True)
class ForwardTarget:
    address: str
    port: int
    link_id: str


@dataclass(frozen=True)
class ForwardRequestPayload:
    """Asks a relay agency to fan a cached code image out to its segment hosts."""

    kind_name: str
    digest: bytes
    targets: tuple[ForwardTarget, ...]

    def encode(self) -> bytes:
        return b"".join([_u16_str(self.kind_name), self.digest, _U16.pack(len(self.targets))] + [
            _u16_str(t.address) + _U16.pack(t.port) + _u16_str(t.link_id) for t in self.targets
        ])

    @classmethod
    def decode(cls, data: bytes) -> "ForwardRequestPayload":
        target = _array(lambda d, p: _each(d, p, (_text, _u16, _text)))
        kind_name, digest, targets = _whole(data, (_text, _digest, target))
        return cls(kind_name, digest, tuple(ForwardTarget(*t) for t in targets))


@dataclass(frozen=True)
class ForwardResult:
    address: str
    port: int
    ok: bool
    error_code: int = 0


def encode_forward_results(results: list[ForwardResult]) -> bytes:
    return _U16.pack(len(results)) + b"".join(
        _u16_str(r.address) + _U16.pack(r.port) + bytes([1 if r.ok else 0, r.error_code])
        for r in results
    )


def decode_forward_results(data: bytes) -> list[ForwardResult]:
    (rows,) = _whole(data, (_array(lambda d, p: _each(d, p, (_text, _u16, _u8, _u8))),))
    return [ForwardResult(address, port, ok != 0, code) for address, port, ok, code in rows]


# ---------------------------------------------------------------------------
# schema file format (JSON)


def schema_from_dict(doc: dict) -> tuple[str, str, list[FieldDescriptor]]:
    fields = []
    for entry in doc.get("fields", []):
        tag = TAG_BY_NAME.get(entry["type"])
        if tag is None:
            raise WireError(f"unknown field type {entry['type']!r}")
        transient = entry.get("persistence", "persistent") == "transient"
        default = entry.get("default")
        if tag == TypeTag.BYTES and isinstance(default, str):
            default = bytes.fromhex(default)
        fields.append(FieldDescriptor(entry["name"], tag, transient=transient, default=default))
    return doc["kind_name"], doc.get("namespace", ""), fields


def schema_to_dict(kind_name: str, namespace: str, fields: list[FieldDescriptor]) -> dict:
    entries = []
    for f in fields:
        entry: dict[str, Any] = {"name": f.name, "type": FIELD_TYPES[f.tag].name}
        entry["persistence"] = "transient" if f.transient else "persistent"
        if f.transient:
            entry["default"] = f.default.hex() if isinstance(f.default, bytes) else f.default
        entries.append(entry)
    return {"kind_name": kind_name, "namespace": namespace, "fields": entries}
