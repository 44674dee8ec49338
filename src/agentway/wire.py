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
from typing import Any, Callable, Iterable

MAGIC = b"MAMP"
VERSION = 1
FRAME_OVERHEAD = 16  # magic(4) + version/kind/flags/reserved(4) + payload_len(4) + crc32(4)

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
# low-level readers/writers

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedError(
                f"need {n} bytes at offset {self.pos}, have {len(self.data) - self.pos}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: struct.Struct) -> Any:
        return fmt.unpack(self.take(fmt.size))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return self.unpack(_U16)

    def u32(self) -> int:
        return self.unpack(_U32)

    def utf8(self, n: int) -> str:
        raw = self.take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"invalid UTF-8 at offset {self.pos - n}") from exc

    def done(self) -> bool:
        return self.pos == len(self.data)


def _u16_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WireError(f"string too long for u16 prefix: {len(raw)} bytes")
    return struct.pack(">H", len(raw)) + raw


def _u8_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if not 1 <= len(raw) <= 255:
        raise WireError(f"name must be 1-255 UTF-8 bytes, got {len(raw)}")
    return struct.pack(">B", len(raw)) + raw


def _u32_prefixed(raw: bytes) -> bytes:
    if len(raw) > 0xFFFFFFFF:
        raise WireError(f"value too long for u32 prefix: {len(raw)} bytes")
    return _U32.pack(len(raw)) + raw


def _u16_count(items: list) -> bytes:
    if len(items) > 0xFFFF:
        raise WireError(f"array too long for u16 count: {len(items)} items")
    return _U16.pack(len(items))


# ---------------------------------------------------------------------------
# field types


@dataclass(frozen=True)
class FieldType:
    """What a type tag means: its name in schema files, zero value, encoder and decoder."""

    name: str
    zero: Any
    encode: Callable[[Any], bytes]
    decode: Callable[[_Reader], Any]


FIELD_TYPES: dict[TypeTag, FieldType] = {
    TypeTag.BOOL: FieldType(
        "bool", False, lambda v: b"\x01" if v else b"\x00", lambda r: r.u8() != 0
    ),
    TypeTag.INT32: FieldType("int32", 0, _I32.pack, lambda r: r.unpack(_I32)),
    TypeTag.INT64: FieldType("int64", 0, _I64.pack, lambda r: r.unpack(_I64)),
    TypeTag.FLOAT64: FieldType("float64", 0.0, _F64.pack, lambda r: r.unpack(_F64)),
    TypeTag.STRING: FieldType(
        "string", "", lambda v: _u32_prefixed(v.encode("utf-8")), lambda r: r.utf8(r.u32())
    ),
    TypeTag.STRING_ARRAY: FieldType(
        "string[]",
        [],
        lambda v: _u16_count(v) + b"".join(_u32_prefixed(s.encode("utf-8")) for s in v),
        lambda r: [r.utf8(r.u32()) for _ in range(r.u16())],
    ),
    TypeTag.BYTES: FieldType(
        "bytes", b"", lambda v: _u32_prefixed(bytes(v)), lambda r: r.take(r.u32())
    ),
    TypeTag.INT32_ARRAY: FieldType(
        "int32[]",
        [],
        lambda v: _u16_count(v) + b"".join(_I32.pack(n) for n in v),
        lambda r: [r.unpack(_I32) for _ in range(r.u16())],
    ),
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


def schema_hash(fields: Iterable[FieldDescriptor]) -> int:
    """CRC-32 over the ordered persistent field names and type tags."""
    buf = bytearray()
    for f in fields:
        if f.transient:
            continue
        buf += _u8_str(f.name)
        buf.append(int(f.tag))
    return zlib.crc32(bytes(buf)) & 0xFFFFFFFF


@dataclass
class StateRecord:
    """An agent's typed fields plus identity; the unit of serialization.

    A field missing from ``values`` starts at ``field_default``.
    """

    kind_name: str
    namespace: str = ""
    fields: list[FieldDescriptor] = field(default_factory=list)
    values: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise WireError("duplicate field names in record")
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
        return StateRecord(
            kind_name=self.kind_name,
            namespace=self.namespace,
            fields=list(self.fields),
            values={k: _own(v) for k, v in self.values.items()},
        )


def _state_layout(record: StateRecord) -> tuple[bytes, list[tuple[str, bytes]]]:
    """The encoded header and each persistent field's encoding, in wire order.

    Header: kind_name (u16 len + bytes), namespace (u16 len + bytes),
    schema_hash (u32), persistent field count (u16). Field: name (u8 len +
    bytes), type tag (u8), value encoding.
    """
    persistent = record.persistent_fields()
    if len(persistent) > 0xFFFF:
        raise WireError("too many persistent fields")
    header = (
        _u16_str(record.kind_name)
        + _u16_str(record.namespace)
        + _U32.pack(record.schema_hash())
        + _U16.pack(len(persistent))
    )
    return header, [
        (f.name, _u8_str(f.name) + bytes([f.tag]) + FIELD_TYPES[f.tag].encode(record.get(f.name)))
        for f in persistent
    ]


def encode_state(record: StateRecord) -> bytes:
    """Serialize the persistent part of a record to its canonical bytes."""
    header, fields = _state_layout(record)
    return header + b"".join(encoded for _, encoded in fields)


def peek_kind_name(data: bytes) -> str:
    """Read the kind name off the front of a state image without full decode."""
    r = _Reader(data)
    return r.utf8(r.u16())


def decode_state(data: bytes, schema: list[FieldDescriptor]) -> StateRecord:
    """Rebuild a record: persistent fields from the wire, transients at defaults."""
    r = _Reader(data)
    kind_name = r.utf8(r.u16())
    namespace = r.utf8(r.u16())
    embedded_hash = r.u32()
    expected = schema_hash(schema)
    if embedded_hash != expected:
        raise SchemaMismatchError(
            f"schema hash 0x{embedded_hash:08X} != expected 0x{expected:08X} "
            "(code/state version skew)"
        )
    count = r.u16()
    persistent = [f for f in schema if not f.transient]
    if count != len(persistent):
        raise SchemaMismatchError(f"field count {count} != schema's {len(persistent)}")
    values: dict[str, Any] = {}
    for f in persistent:
        name = r.utf8(r.u8())
        tag = r.u8()
        ftype = FIELD_TYPES.get(tag)
        if ftype is None:
            raise WireError(f"unknown type tag 0x{tag:02X}")
        if name != f.name or tag != f.tag:
            raise SchemaMismatchError(f"field {name!r}/0x{tag:02X} does not match schema")
        values[name] = ftype.decode(r)
    if not r.done():
        raise WireError(f"{len(data) - r.pos} trailing bytes after state image")
    return StateRecord(kind_name=kind_name, namespace=namespace, fields=list(schema), values=values)


@dataclass
class SizeBreakdown:
    total: int
    header_bytes: int
    per_field: dict[str, int]


def measure_state(record: StateRecord) -> SizeBreakdown:
    """Exact byte accounting of the encoded state, per field."""
    header, fields = _state_layout(record)
    per_field = {name: len(encoded) for name, encoded in fields}
    return SizeBreakdown(len(header) + sum(per_field.values()), len(header), per_field)


# ---------------------------------------------------------------------------
# compression (RFC 1952 container)


def compress_payload(data: bytes, level: int = 6) -> bytes:
    if not 0 <= level <= 9:
        raise ValueError(f"compression level must be 0-9, got {level}")
    # mtime pinned so identical inputs give identical containers
    return gzip.compress(data, compresslevel=level, mtime=0)


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


@dataclass(frozen=True)
class Frame:
    kind: FrameKind
    payload: bytes = b""
    flags: int = 0

    @property
    def compressed(self) -> bool:
        return bool(self.flags & FLAG_COMPRESSED)


def encode_frame(frame: Frame) -> bytes:
    if frame.kind not in FrameKind._value2member_map_:
        raise WireError(f"unsupported frame kind {frame.kind!r}")
    header = MAGIC + bytes([VERSION, int(frame.kind), frame.flags, 0])
    header += struct.pack(">I", len(frame.payload))
    crc = zlib.crc32(header + frame.payload) & 0xFFFFFFFF
    return header + frame.payload + struct.pack(">I", crc)


def decode_frame(data: bytes) -> Frame:
    if len(data) < FRAME_OVERHEAD:
        raise TruncatedError(f"frame needs at least {FRAME_OVERHEAD} bytes, got {len(data)}")
    if data[:4] != MAGIC:
        raise WireError(f"bad magic {data[:4]!r}")
    version, kind, flags, reserved = data[4], data[5], data[6], data[7]
    if version != VERSION:
        raise WireError(f"unsupported version {version}")
    if kind not in FrameKind._value2member_map_:
        raise WireError(f"unknown frame kind 0x{kind:02X}")
    payload_len = struct.unpack(">I", data[8:12])[0]
    if len(data) != FRAME_OVERHEAD + payload_len:
        raise TruncatedError(
            f"frame length {len(data)} != {FRAME_OVERHEAD + payload_len} implied by header"
        )
    payload = data[12 : 12 + payload_len]
    crc = struct.unpack(">I", data[12 + payload_len :])[0]
    expected = zlib.crc32(data[: 12 + payload_len]) & 0xFFFFFFFF
    if crc != expected:
        raise WireError(f"crc mismatch: 0x{crc:08X} != 0x{expected:08X}")
    return Frame(kind=FrameKind(kind), payload=payload, flags=flags)


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
        return (
            _u16_str(self.kind_name)
            + self.digest
            + struct.pack(">I", len(self.code))
            + self.code
        )

    @classmethod
    def decode(cls, data: bytes) -> "CodePushPayload":
        r = _Reader(data)
        kind_name = r.utf8(r.u16())
        digest = r.take(DIGEST_LEN)
        code = r.take(r.u32())
        return cls(kind_name=kind_name, digest=digest, code=code)


@dataclass(frozen=True)
class AgentTransferPayload:
    agent_id: bytes
    digest: bytes
    hop_index: int
    state: bytes

    HEADER_LEN = AGENT_ID_LEN + DIGEST_LEN + 2

    def encode(self) -> bytes:
        if len(self.agent_id) != AGENT_ID_LEN or len(self.digest) != DIGEST_LEN:
            raise WireError("agent_id must be 16 bytes, digest 32 bytes")
        return self.agent_id + self.digest + struct.pack(">H", self.hop_index) + self.state

    @classmethod
    def decode(cls, data: bytes) -> "AgentTransferPayload":
        r = _Reader(data)
        agent_id = r.take(AGENT_ID_LEN)
        digest = r.take(DIGEST_LEN)
        hop_index = r.u16()
        state = r.take(len(data) - r.pos)
        return cls(agent_id=agent_id, digest=digest, hop_index=hop_index, state=state)


@dataclass(frozen=True)
class ErrorPayload:
    code: int
    message: str = ""
    agent_id: bytes = b"\x00" * AGENT_ID_LEN

    def encode(self) -> bytes:
        return bytes([self.code]) + self.agent_id + _u16_str(self.message)

    @classmethod
    def decode(cls, data: bytes) -> "ErrorPayload":
        r = _Reader(data)
        code = r.u8()
        agent_id = r.take(AGENT_ID_LEN)
        message = r.utf8(r.u16())
        return cls(code=code, message=message, agent_id=agent_id)


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
        out = bytearray(_u16_str(self.kind_name))
        out += self.digest
        out += struct.pack(">H", len(self.targets))
        for t in self.targets:
            out += _u16_str(t.address)
            out += struct.pack(">H", t.port)
            out += _u16_str(t.link_id)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "ForwardRequestPayload":
        r = _Reader(data)
        kind_name = r.utf8(r.u16())
        digest = r.take(DIGEST_LEN)
        targets = []
        for _ in range(r.u16()):
            address = r.utf8(r.u16())
            port = r.u16()
            link_id = r.utf8(r.u16())
            targets.append(ForwardTarget(address, port, link_id))
        return cls(kind_name=kind_name, digest=digest, targets=tuple(targets))


@dataclass(frozen=True)
class ForwardResult:
    address: str
    port: int
    ok: bool
    error_code: int = 0


def encode_forward_results(results: list[ForwardResult]) -> bytes:
    out = bytearray(struct.pack(">H", len(results)))
    for res in results:
        out += _u16_str(res.address)
        out += struct.pack(">H", res.port)
        out.append(1 if res.ok else 0)
        out.append(res.error_code)
    return bytes(out)


def decode_forward_results(data: bytes) -> list[ForwardResult]:
    r = _Reader(data)
    results = []
    for _ in range(r.u16()):
        address = r.utf8(r.u16())
        port = r.u16()
        ok = r.u8() != 0
        code = r.u8()
        results.append(ForwardResult(address, port, ok, code))
    return results


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
