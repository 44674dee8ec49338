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
from typing import Any, Iterable

MAGIC = b"MAMP"
VERSION = 1
FRAME_OVERHEAD = 16  # magic(4) + version/kind/flags/reserved(4) + payload_len(4) + crc32(4)

FLAG_COMPRESSED = 0x01
FLAG_PROBE = 0x02  # AGENT_TRANSFER only: code-presence probe, no instantiation

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

_TYPE_NAMES = {
    TypeTag.BOOL: "bool",
    TypeTag.INT32: "int32",
    TypeTag.INT64: "int64",
    TypeTag.FLOAT64: "float64",
    TypeTag.STRING: "string",
    TypeTag.STRING_ARRAY: "string[]",
    TypeTag.BYTES: "bytes",
    TypeTag.INT32_ARRAY: "int32[]",
}
_TYPE_BY_NAME = {v: k for k, v in _TYPE_NAMES.items()}


class WireError(Exception):
    """Malformed or inconsistent wire data."""


class TruncatedError(WireError):
    pass


class SchemaMismatchError(WireError):
    pass


# ---------------------------------------------------------------------------
# low-level readers/writers


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

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

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


# ---------------------------------------------------------------------------
# field values


def encode_value(tag: TypeTag, value: Any) -> bytes:
    if tag == TypeTag.BOOL:
        return b"\x01" if value else b"\x00"
    if tag == TypeTag.INT32:
        return struct.pack(">i", value)
    if tag == TypeTag.INT64:
        return struct.pack(">q", value)
    if tag == TypeTag.FLOAT64:
        return struct.pack(">d", value)
    if tag == TypeTag.STRING:
        raw = value.encode("utf-8")
        if len(raw) > 0xFFFFFFFF:
            raise WireError("string too long")
        return struct.pack(">I", len(raw)) + raw
    if tag == TypeTag.STRING_ARRAY:
        if len(value) > 0xFFFF:
            raise WireError("string array too long")
        out = [struct.pack(">H", len(value))]
        for s in value:
            raw = s.encode("utf-8")
            out.append(struct.pack(">I", len(raw)) + raw)
        return b"".join(out)
    if tag == TypeTag.BYTES:
        if len(value) > 0xFFFFFFFF:
            raise WireError("byte array too long")
        return struct.pack(">I", len(value)) + bytes(value)
    if tag == TypeTag.INT32_ARRAY:
        if len(value) > 0xFFFF:
            raise WireError("int32 array too long")
        return struct.pack(">H", len(value)) + b"".join(
            struct.pack(">i", v) for v in value
        )
    raise WireError(f"unsupported type tag {tag!r}")


def decode_value(tag: int, r: _Reader) -> Any:
    if tag == TypeTag.BOOL:
        return r.u8() != 0
    if tag == TypeTag.INT32:
        return struct.unpack(">i", r.take(4))[0]
    if tag == TypeTag.INT64:
        return struct.unpack(">q", r.take(8))[0]
    if tag == TypeTag.FLOAT64:
        return struct.unpack(">d", r.take(8))[0]
    if tag == TypeTag.STRING:
        return r.utf8(r.u32())
    if tag == TypeTag.STRING_ARRAY:
        return [r.utf8(r.u32()) for _ in range(r.u16())]
    if tag == TypeTag.BYTES:
        return r.take(r.u32())
    if tag == TypeTag.INT32_ARRAY:
        return [struct.unpack(">i", r.take(4))[0] for _ in range(r.u16())]
    raise WireError(f"unknown type tag 0x{tag:02X}")


def encoded_value_size(tag: TypeTag, value: Any) -> int:
    return len(encode_value(tag, value))


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
        if self.transient and self.default is None:
            # transient fields always carry a hard-coded default
            object.__setattr__(self, "default", _zero_value(self.tag))


def _zero_value(tag: TypeTag) -> Any:
    return {
        TypeTag.BOOL: False,
        TypeTag.INT32: 0,
        TypeTag.INT64: 0,
        TypeTag.FLOAT64: 0.0,
        TypeTag.STRING: "",
        TypeTag.STRING_ARRAY: [],
        TypeTag.BYTES: b"",
        TypeTag.INT32_ARRAY: [],
    }[tag]


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
    """An agent's typed fields plus identity; the unit of serialization."""

    kind_name: str
    namespace: str = ""
    fields: list[FieldDescriptor] = field(default_factory=list)
    values: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise WireError("duplicate field names in record")
        for f in self.fields:
            self.values.setdefault(f.name, f.default if f.transient else _zero_value(f.tag))

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
            values={k: (list(v) if isinstance(v, list) else v) for k, v in self.values.items()},
        )


def encode_state(record: StateRecord) -> bytes:
    """Serialize the persistent part of a record to its canonical bytes.

    Layout: kind_name (u16 len + bytes), namespace (u16 len + bytes),
    schema_hash (u32), persistent field count (u16), then per field:
    name (u8 len + bytes), type tag (u8), value encoding.
    """
    persistent = record.persistent_fields()
    if len(persistent) > 0xFFFF:
        raise WireError("too many persistent fields")
    out = bytearray()
    out += _u16_str(record.kind_name)
    out += _u16_str(record.namespace)
    out += struct.pack(">I", record.schema_hash())
    out += struct.pack(">H", len(persistent))
    for f in persistent:
        out += _u8_str(f.name)
        out.append(int(f.tag))
        out += encode_value(f.tag, record.values[f.name])
    return bytes(out)


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
        if tag not in TypeTag._value2member_map_:
            raise WireError(f"unknown type tag 0x{tag:02X}")
        if name != f.name or tag != int(f.tag):
            raise SchemaMismatchError(f"field {name!r}/0x{tag:02X} does not match schema")
        values[name] = decode_value(tag, r)
    if not r.done():
        raise WireError(f"{len(data) - r.pos} trailing bytes after state image")
    for f in schema:
        if f.transient:
            values[f.name] = list(f.default) if isinstance(f.default, list) else f.default
    return StateRecord(kind_name=kind_name, namespace=namespace, fields=list(schema), values=values)


@dataclass
class SizeBreakdown:
    total: int
    header_bytes: int
    per_field: dict[str, int]


def measure_state(record: StateRecord) -> SizeBreakdown:
    """Exact byte accounting of the encoded state, per field."""
    encoded = encode_state(record)
    header = (
        2 + len(record.kind_name.encode("utf-8"))
        + 2 + len(record.namespace.encode("utf-8"))
        + 4 + 2
    )
    per_field = {}
    for f in record.persistent_fields():
        per_field[f.name] = (
            1 + len(f.name.encode("utf-8")) + 1 + encoded_value_size(f.tag, record.values[f.name])
        )
    breakdown = SizeBreakdown(total=len(encoded), header_bytes=header, per_field=per_field)
    assert breakdown.header_bytes + sum(per_field.values()) == breakdown.total
    return breakdown


# ---------------------------------------------------------------------------
# compression (RFC 1952 container)


def compress_payload(data: bytes, level: int = 6) -> bytes:
    if not 0 <= level <= 9:
        raise ValueError(f"compression level must be 0-9, got {level}")
    # mtime pinned so identical inputs give identical containers
    return gzip.compress(data, compresslevel=level, mtime=0)


def decompress_payload(data: bytes) -> bytes:
    try:
        return gzip.decompress(data)
    except (OSError, EOFError, zlib.error) as exc:
        raise WireError(f"corrupt gzip container: {exc}") from exc


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
        tag = _TYPE_BY_NAME.get(entry["type"])
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
        entry: dict[str, Any] = {"name": f.name, "type": _TYPE_NAMES[f.tag]}
        entry["persistence"] = "transient" if f.transient else "persistent"
        if f.transient:
            entry["default"] = f.default.hex() if isinstance(f.default, bytes) else f.default
        entries.append(entry)
    return {"kind_name": kind_name, "namespace": namespace, "fields": entries}
