import dataclasses
import random
import sys
import threading
import tracemalloc

import pytest

from agentway import wire
from agentway.wire import (
    FieldDescriptor,
    Frame,
    FrameKind,
    StateRecord,
    TypeTag,
    WireError,
)
from conftest import random_record


def rec(kind="MA", namespace="", fields=(), values=None):
    return StateRecord(kind_name=kind, namespace=namespace, fields=list(fields),
                       values=dict(values or {}))


class TestStateEncoding:
    def test_empty_record_is_12_bytes(self):
        assert len(wire.encode_state(rec())) == 12

    def test_one_int32_field_adds_9_bytes(self):
        base = rec()
        with_hop = rec(fields=[FieldDescriptor("hop", TypeTag.INT32)], values={"hop": 0})
        assert len(wire.encode_state(with_hop)) == len(wire.encode_state(base)) + 9

    def test_transient_field_never_emitted(self):
        plain = rec()
        with_transient = rec(
            fields=[FieldDescriptor("enc", TypeTag.BOOL, transient=True, default=True)],
            values={"enc": True},
        )
        assert wire.encode_state(with_transient) == wire.encode_state(plain)

    def test_deterministic(self):
        r = rec(fields=[FieldDescriptor("s", TypeTag.STRING)], values={"s": "abc"})
        assert wire.encode_state(r) == wire.encode_state(r)

    def test_name_longer_than_255_bytes_rejected(self):
        with pytest.raises(WireError):
            FieldDescriptor("x" * 256, TypeTag.INT32)

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(WireError):
            rec(fields=[FieldDescriptor("a", TypeTag.INT32), FieldDescriptor("a", TypeTag.BOOL)])


class TestStateDecoding:
    def test_roundtrip_identity(self):
        r = rec(
            kind="MAExample",
            namespace="MAPack",
            fields=[
                FieldDescriptor("it", TypeTag.STRING_ARRAY),
                FieldDescriptor("hop", TypeTag.INT32),
            ],
            values={"it": ["10.0.0.2:9001", "10.0.0.1:9001"], "hop": 3},
        )
        out = wire.decode_state(wire.encode_state(r), r.fields)
        assert out.kind_name == r.kind_name
        assert out.namespace == r.namespace
        assert out.values == r.values

    def test_transient_restored_to_default_not_serialized_value(self):
        fields = [FieldDescriptor("hop", TypeTag.INT32, transient=True, default=0)]
        r = rec(fields=fields, values={"hop": 5})
        out = wire.decode_state(wire.encode_state(r), fields)
        assert out.values["hop"] == 0

    def test_unknown_type_tag(self):
        fields = [FieldDescriptor("hop", TypeTag.INT32)]
        r = rec(fields=fields, values={"hop": 1})
        data = bytearray(wire.encode_state(r))
        # tag byte sits after kind(2+2), ns(2+0), hash(4), count(2), name(1+3)
        tag_offset = 2 + 2 + 2 + 4 + 2 + 1 + 3
        assert data[tag_offset] == TypeTag.INT32
        data[tag_offset] = 0x7F
        with pytest.raises(WireError):
            wire.decode_state(bytes(data), fields)

    def test_truncated_input(self):
        fields = [FieldDescriptor("s", TypeTag.STRING)]
        data = wire.encode_state(rec(fields=fields, values={"s": "hello"}))
        with pytest.raises(wire.TruncatedError):
            wire.decode_state(data[:-3], fields)

    def test_schema_hash_mismatch_signals_version_skew(self):
        fields_v1 = [FieldDescriptor("hop", TypeTag.INT32)]
        fields_v2 = [FieldDescriptor("hop", TypeTag.INT64)]
        data = wire.encode_state(rec(fields=fields_v1, values={"hop": 1}))
        with pytest.raises(wire.SchemaMismatchError):
            wire.decode_state(data, fields_v2)

    def test_roundtrip_100_random_records(self):
        rng = random.Random(4242)
        for _ in range(100):
            r = random_record(rng)
            out = wire.decode_state(wire.encode_state(r), r.fields)
            for f in r.fields:
                if f.transient:
                    assert out.values[f.name] == f.default
                else:
                    got, want = out.values[f.name], r.values[f.name]
                    assert got == pytest.approx(want) if isinstance(want, float) else got == want


class TestFieldTypes:
    def test_every_tag_has_one_entry_and_a_name(self):
        assert set(wire.FIELD_TYPES) == set(TypeTag)
        assert {wire.TAG_BY_NAME[t.name] for t in wire.FIELD_TYPES.values()} == set(TypeTag)

    def test_unknown_tag_rejected_at_the_descriptor(self):
        with pytest.raises(WireError, match="unknown type tag"):
            FieldDescriptor("x", 0x7F)

    @pytest.mark.parametrize("default", [None, ["declared"]])
    def test_each_record_gets_its_own_transient_list(self, default):
        schema = [
            FieldDescriptor("it", TypeTag.STRING_ARRAY),
            FieldDescriptor("seen", TypeTag.STRING_ARRAY, transient=True, default=default),
        ]
        declared = list(schema[1].default)
        first, second = rec(fields=schema), rec(fields=schema)
        first.get("seen").append("host1")
        first.get("it").append("10.0.0.1:9000")
        assert second.get("seen") == declared and second.get("it") == []
        assert schema[1].default == declared
        arrived = wire.decode_state(wire.encode_state(first), schema)
        assert arrived.get("seen") == declared
        arrived.get("seen").append("host2")
        assert wire.decode_state(wire.encode_state(first), schema).get("seen") == declared
        copied = first.copy()
        copied.get("seen").append("host3")
        assert first.get("seen") == declared + ["host1"]


GOLDEN_FIELDS = [
    FieldDescriptor("ok", TypeTag.BOOL),
    FieldDescriptor("n32", TypeTag.INT32),
    FieldDescriptor("n64", TypeTag.INT64),
    FieldDescriptor("x", TypeTag.FLOAT64),
    FieldDescriptor("s", TypeTag.STRING),
    FieldDescriptor("it", TypeTag.STRING_ARRAY),
    FieldDescriptor("blob", TypeTag.BYTES),
    FieldDescriptor("ints", TypeTag.INT32_ARRAY),
    FieldDescriptor("none", TypeTag.STRING_ARRAY),
    FieldDescriptor("zero", TypeTag.INT32_ARRAY),
    FieldDescriptor("seen", TypeTag.STRING_ARRAY, transient=True, default=["home"]),
]
GOLDEN_HEX = (
    "00094d414578616d706c6500064d415061636baed9363b000a026f6b0101036e333202fffffffe036e3634"
    "03fffffefffffffff9017804bff80000000000000173050000000e68c3a96c6c6f2c20e4b896e7958c0269"
    "740600020000000d31302e302e302e323a3930303100000002c3a404626c6f62070000000200ff04696e74"
    "73080002ffffffff7fffffff046e6f6e65060000047a65726f080000"
)


class TestGoldenBytes:
    """One record over every type tag, pinned to the bytes the format has always had."""

    def record(self):
        return rec("MAExample", "MAPack", GOLDEN_FIELDS, {
            "ok": True, "n32": -2, "n64": -(2**40) - 7, "x": -1.5, "s": "héllo, 世界",
            "it": ["10.0.0.2:9001", "ä"], "blob": b"\x00\xff", "ints": [-1, 2**31 - 1],
            "seen": ["elsewhere"],
        })

    def test_encodes_to_the_pinned_bytes_and_back(self):
        data = wire.encode_state(self.record())
        assert data.hex() == GOLDEN_HEX
        out = wire.decode_state(data, GOLDEN_FIELDS)
        assert (out.kind_name, out.namespace) == ("MAExample", "MAPack")
        assert out.values == {**self.record().values, "seen": ["home"]}

    def test_every_proper_prefix_is_a_wire_error(self):
        data = bytes.fromhex(GOLDEN_HEX)
        for n in range(len(data)):
            with pytest.raises(WireError):
                wire.decode_state(data[:n], GOLDEN_FIELDS)

    def test_one_trailing_byte_is_a_wire_error(self):
        with pytest.raises(WireError, match="1 trailing bytes"):
            wire.decode_state(bytes.fromhex(GOLDEN_HEX) + b"\x00", GOLDEN_FIELDS)


class TestStateRobustness:
    """Whatever the bytes, decoding gives a record or a ``WireError``; a cut names what it cut."""

    def test_every_truncation_and_seeded_mutation_decodes_or_raises_a_wire_error(self):
        data = bytes.fromhex(GOLDEN_HEX)
        rng = random.Random(1818)
        inputs = [data[:n] for n in range(len(data))]
        for _ in range(20000):  # one to three bytes replaced, a fifth of them then cut short
            mutant = bytearray(data)
            for _ in range(rng.randint(1, 3)):
                mutant[rng.randrange(len(mutant))] = rng.randrange(256)
            inputs.append(bytes(mutant[: rng.randrange(len(mutant))] if rng.random() < 0.2 else mutant))
        decoded = 0
        for mutant in inputs:  # struct.error, IndexError, UnicodeDecodeError or OverflowError fails here
            try:
                wire.decode_state(mutant, GOLDEN_FIELDS)
                decoded += 1
            except WireError:
                pass
        assert 0 < decoded < len(inputs)

    def test_a_cut_length_or_body_names_its_offset(self):
        data = bytes.fromhex(GOLDEN_HEX)
        at = data.index(b"\x01s\x05") + 3  # field s: a u32 byte length, then 14 bytes of UTF-8
        ints = data.index(b"\x04ints\x08") + 6  # field ints: a u16 count, then two int32s
        it = data.index(b"\x02it\x06") + 4  # field it: a u16 count, then "10.0.0.2:9001" and "ä"
        cases = [(data[: at + 2], f"need 4 bytes at offset {at}, have 2"),
                 (data[: at + 10], f"need 14 bytes at offset {at + 4}, have 6"),
                 (data[: ints + 8], f"need 4 bytes at offset {ints + 6}, have 2"),
                 (data[: it + 1], f"need 2 bytes at offset {it}, have 1"),
                 (data[: it + 4], f"need 4 bytes at offset {it + 2}, have 2"),
                 (data[: it + 10], f"need 13 bytes at offset {it + 6}, have 4"),
                 (data[: it + 21], f"need 4 bytes at offset {it + 19}, have 2")]
        for cut, message in cases:
            with pytest.raises(wire.TruncatedError) as caught:
                wire.decode_state(cut, GOLDEN_FIELDS)
            assert str(caught.value) == message

    def test_invalid_utf8_in_a_string_array_item_names_the_items_first_byte(self):
        data = bytes.fromhex(GOLDEN_HEX)
        assert data.count("ä".encode()) == 1  # the second item of "it"
        at = data.index("ä".encode())
        with pytest.raises(WireError) as caught:
            wire.decode_state(data[:at] + b"\xff\xfe" + data[at + 2 :], GOLDEN_FIELDS)
        assert str(caught.value) == f"invalid UTF-8 at offset {at}"


class TestKeptHeader:
    """A codec keeps the header of the last image it wrote or read and knows it by its bytes."""

    @pytest.fixture(autouse=True)
    def fresh_schema(self):  # each test starts from a codec that kept nothing yet
        self.fields = wire.Schema([FieldDescriptor("it", TypeTag.STRING_ARRAY),
                                   FieldDescriptor("hop", TypeTag.INT32)])

    def image(self, kind, namespace, hop=1):
        record = StateRecord(kind, namespace, self.fields, {"it": ["10.0.0.2:7002", "ä"], "hop": hop})
        return wire.encode_state(record)

    def test_a_warm_decode_of_a_known_header_reads_no_text(self, monkeypatch):
        other = self.image("Other", "NS", 2)
        data = self.image("MAExample", "MAPack")  # encoding keeps its header
        calls, text = [], wire._text
        monkeypatch.setattr(wire, "_text", lambda data, pos, *more: calls.append(pos) or text(data, pos, *more))
        out = wire.decode_state(data, self.fields)
        assert calls == [] and (out.kind_name, out.namespace) == ("MAExample", "MAPack")
        assert out.values == {"it": ["10.0.0.2:7002", "ä"], "hop": 1}
        first = wire.decode_state(other, self.fields)  # another header is read, then kept
        assert calls == [0, 7] and (first.kind_name, first.namespace, first.get("hop")) == ("Other", "NS", 2)
        again = wire.decode_state(other, self.fields)
        assert calls == [0, 7] and again == first
        assert self.fields.codec.head == ("Other", "NS", other[:17])

    def test_a_header_that_fails_its_check_is_not_kept(self):
        data = self.image("MAExample", "MAPack")
        kept = self.fields.codec.head
        skewed = data[: len(kept[2]) - 2] + b"\x00\x09" + data[len(kept[2]) :]
        with pytest.raises(wire.SchemaMismatchError, match="^field count 9 != schema's 2$"):
            wire.decode_state(skewed, self.fields)
        assert self.fields.codec.head is kept  # a header that failed its check is not kept

    def test_one_schema_decodes_two_headers_alternating_from_8_threads(self):
        schema = wire.Schema(GOLDEN_FIELDS)
        golden = TestGoldenBytes().record()
        images = [(kind, namespace, wire.encode_state(dataclasses.replace(
            golden, kind_name=kind, namespace=namespace, fields=schema)))
            for kind, namespace in (("MAExample", "MAPack"), ("Other", "NS2"))]
        start, wrong, errors = threading.Barrier(8), [], []

        def worker(offset):
            try:
                start.wait()
                for i in range(200):
                    kind, namespace, data = images[(i + offset) % 2]
                    out = wire.decode_state(data, schema)
                    if (out.kind_name, out.namespace, out.get("it")) != (kind, namespace, golden.get("it")):
                        wrong.append((kind, out.kind_name, out.namespace))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert errors == [] and wrong == []
        assert images[0][2].hex() == GOLDEN_HEX
        assert wire.encode_state(dataclasses.replace(golden, fields=schema)).hex() == GOLDEN_HEX


class TestStringArrays:
    def test_the_longest_array_round_trips_and_one_more_item_is_refused(self):
        fields = [FieldDescriptor("it", TypeTag.STRING_ARRAY)]
        longest = rec(fields=fields, values={"it": ["a"] * 0xFFFF})
        assert wire.decode_state(wire.encode_state(longest), fields).get("it") == ["a"] * 0xFFFF
        with pytest.raises(WireError) as caught:
            wire.encode_state(rec(fields=fields, values={"it": [""] * 0x10000}))
        assert str(caught.value) == "array too long for u16 count: 65536 items"


class TestCodecTable:
    def test_a_thousand_schemas_leave_no_module_table_to_grow(self):
        def tables():
            return {name: len(value) for name, value in vars(wire).items()
                    if isinstance(value, (dict, list, set))}

        before = tables()
        for i in range(1000):
            fields = [  # a list default makes the descriptor unhashable
                FieldDescriptor(f"f{i}", TypeTag.INT32),
                FieldDescriptor("seen", TypeTag.STRING_ARRAY, transient=True, default=["home"]),
            ]
            record = rec(fields=fields, values={f"f{i}": -i})
            out = wire.decode_state(wire.encode_state(record), record.fields)
            assert out.values == {f"f{i}": -i, "seen": ["home"]}
            assert out.fields is record.fields and "codec" in vars(record.fields)
        assert tables() == before
        assert not hasattr(wire, "_codecs") and not hasattr(wire, "CODEC_TABLE_ENTRIES")

    def test_a_fresh_schema_decoded_from_8_threads_keeps_one_codec(self, codec_builds):
        schema, data = wire.Schema(GOLDEN_FIELDS), bytes.fromhex(GOLDEN_HEX)
        start, results, errors = threading.Barrier(8), [], []

        def worker():
            try:
                start.wait()
                for _ in range(50):
                    results.append(wire.decode_state(data, schema))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert errors == []
        assert len(results) == 400 and all(r == results[0] for r in results)
        assert results[0].values == TestGoldenBytes().record().values | {"seen": ["home"]}
        assert all(r.fields is schema for r in results)
        # at most one build per thread; a build that lost a race is dropped
        assert 1 <= len(codec_builds) <= 8 and all(s is schema for s in codec_builds)
        builds, kept = len(codec_builds), vars(schema)["codec"]
        assert wire.decode_state(data, schema) == results[0]
        assert len(codec_builds) == builds and schema.codec is kept  # the schema keeps one codec

    def test_equal_schemas_made_apart_decode_alike(self):
        def schema():
            return [FieldDescriptor("it", TypeTag.STRING_ARRAY), FieldDescriptor("hop", TypeTag.INT32)]

        data = wire.encode_state(rec(fields=schema(), values={"it": ["a"], "hop": 2}))
        assert wire.decode_state(data, schema()).values == {"it": ["a"], "hop": 2}

    def test_a_duplicate_name_in_a_schema_is_refused(self):
        data = wire.encode_state(rec(fields=[FieldDescriptor("a", TypeTag.INT32)]))
        with pytest.raises(WireError, match="duplicate"):
            wire.decode_state(data, [FieldDescriptor("a", TypeTag.INT32), FieldDescriptor("a", TypeTag.BOOL)])


class TestMeasure:
    def test_string_value_shrink_is_exact(self):
        long = rec(fields=[FieldDescriptor("s", TypeTag.STRING)], values={"s": "x" * 20})
        short = rec(fields=[FieldDescriptor("s", TypeTag.STRING)], values={"s": "x" * 3})
        assert wire.measure_state(short).total == wire.measure_state(long).total - 17

    def test_add_10_char_string_field_costs_17(self):
        base = rec()
        extra = rec(fields=[FieldDescriptor("s", TypeTag.STRING)], values={"s": "y" * 10})
        assert wire.measure_state(extra).total == wire.measure_state(base).total + 17

    def test_short_kind_name_saves_its_length(self):
        long = rec(kind="MobileAgentExample")
        short = rec(kind="MAExample")
        assert wire.measure_state(short).total == wire.measure_state(long).total - 9

    def test_per_field_bytes_sum_to_total(self):
        rng = random.Random(7)
        for _ in range(50):
            r = random_record(rng)
            b = wire.measure_state(r)
            assert b.header_bytes + sum(b.per_field.values()) == b.total
            assert b.total == len(wire.encode_state(r))

    def test_field_size_closed_form(self):
        r = rec(fields=[FieldDescriptor("hop", TypeTag.INT32)], values={"hop": 9})
        b = wire.measure_state(r)
        assert b.per_field["hop"] == 1 + 3 + 1 + 4

    def test_shortening_a_name_by_k_shrinks_by_k(self):
        rng = random.Random(11)
        for _ in range(20):
            r = random_record(rng)
            persistent = [f for f in r.fields if not f.transient and len(f.name) > 1]
            if not persistent:
                continue
            victim = rng.choice(persistent)
            short_name = victim.name[: max(1, len(victim.name) // 2)]
            if any(f.name == short_name for f in r.fields):
                continue
            k = len(victim.name.encode("utf-8")) - len(short_name.encode("utf-8"))
            renamed = StateRecord(
                kind_name=r.kind_name,
                namespace=r.namespace,
                fields=[
                    FieldDescriptor(short_name, f.tag, f.transient, f.default)
                    if f is victim else f
                    for f in r.fields
                ],
                values={(short_name if n == victim.name else n): v for n, v in r.values.items()},
            )
            assert len(wire.encode_state(renamed)) == len(wire.encode_state(r)) - k

    def test_making_a_field_transient_removes_its_full_size(self):
        rng = random.Random(13)
        for _ in range(20):
            r = random_record(rng)
            persistent = [f for f in r.fields if not f.transient]
            if not persistent:
                continue
            victim = rng.choice(persistent)
            field_bytes = wire.measure_state(r).per_field[victim.name]
            hollowed = StateRecord(
                kind_name=r.kind_name,
                namespace=r.namespace,
                fields=[
                    FieldDescriptor(f.name, f.tag, transient=True, default=r.values[f.name])
                    if f is victim else f
                    for f in r.fields
                ],
                values=dict(r.values),
            )
            assert len(wire.encode_state(hollowed)) == len(wire.encode_state(r)) - field_bytes

    def test_schema_hash_is_value_independent(self):
        fields = [FieldDescriptor("it", TypeTag.STRING_ARRAY), FieldDescriptor("hop", TypeTag.INT32)]
        a = rec(fields=fields, values={"it": ["x"], "hop": 1})
        b = rec(fields=fields, values={"it": ["y", "z"], "hop": 99})
        assert a.schema_hash() == b.schema_hash()


class TestCompression:
    def test_roundtrip_identity(self):
        rng = random.Random(21)
        for _ in range(40):
            data = rng.randbytes(rng.randint(0, 4096))
            assert wire.decompress_payload(wire.compress_payload(data)) == data

    def test_empty_input_is_20_byte_container(self):
        assert len(wire.compress_payload(b"")) == 20

    def test_repeated_pattern_compresses_below_200_bytes(self):
        payload = b"AGENTSTATEFIELD." * 250
        assert len(payload) == 4000
        assert len(wire.compress_payload(payload)) < 200

    def test_corrupt_container(self):
        good = wire.compress_payload(b"hello world")
        with pytest.raises(WireError):
            wire.decompress_payload(good[:-4] + b"\x00\x00\x00\x00")
        with pytest.raises(WireError):
            wire.decompress_payload(b"not gzip at all")

    def test_inflating_past_the_cap_is_refused(self, monkeypatch):
        cap = 4096
        monkeypatch.setattr(wire, "MAX_INFLATED_BYTES", cap)
        data = random.Random(5).randbytes(cap)
        assert wire.decompress_payload(wire.compress_payload(data)) == data
        with pytest.raises(WireError, match="inflates past"):
            wire.decompress_payload(wire.compress_payload(data + b"\x00"))

    def test_refusing_a_bomb_holds_the_cap_once(self, monkeypatch):
        cap = 1024 * 1024
        monkeypatch.setattr(wire, "MAX_INFLATED_BYTES", cap)
        bomb = wire.compress_payload(b"\x00" * (4 * cap))
        tracemalloc.start()
        try:
            with pytest.raises(WireError, match="inflates past"):
                wire.decompress_payload(bomb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * cap

    def test_every_truncation_and_trailing_bytes_are_refused(self):
        good = wire.compress_payload(random.Random(8).randbytes(300))
        for n in range(len(good)):
            with pytest.raises(WireError):
                wire.decompress_payload(good[:n])
        with pytest.raises(WireError, match="bytes after its end"):
            wire.decompress_payload(good + b"\x00")


class TestFrames:
    def test_empty_ack_is_exactly_16_bytes(self):
        assert len(wire.encode_frame(Frame(FrameKind.ACK))) == 16

    def test_roundtrip_100_random_frames_seed_42(self):
        rng = random.Random(42)
        kinds = list(FrameKind)
        for _ in range(100):
            f = Frame(rng.choice(kinds), rng.randbytes(rng.randint(0, 2048)),
                      rng.choice((0, wire.FLAG_COMPRESSED)))
            assert wire.decode_frame(wire.encode_frame(f)) == f

    def test_flipped_first_byte_is_bad_magic(self):
        data = bytearray(wire.encode_frame(Frame(FrameKind.ACK)))
        data[0] ^= 0xFF
        with pytest.raises(WireError, match="magic"):
            wire.decode_frame(bytes(data))

    def test_crc_mismatch(self):
        data = bytearray(wire.encode_frame(Frame(FrameKind.ACK, b"payload")))
        data[13] ^= 0x01  # flip a payload bit
        with pytest.raises(WireError, match="crc"):
            wire.decode_frame(bytes(data))

    def test_truncation(self):
        data = wire.encode_frame(Frame(FrameKind.ACK, b"payload"))
        with pytest.raises(wire.TruncatedError):
            wire.decode_frame(data[:-1])

    def test_unsupported_version(self):
        data = bytearray(wire.encode_frame(Frame(FrameKind.ACK)))
        data[4] = 9
        with pytest.raises(WireError, match="version"):
            wire.decode_frame(bytes(data))

    def test_the_reply_builders_make_the_bytes_a_frame_of_their_fields_does(self):
        assert wire.ACK == Frame(FrameKind.ACK)
        assert wire.ACK.encoded() is wire.ACK.encoded()  # made once
        assert wire.ACK.encoded() == wire.encode_frame(Frame(FrameKind.ACK))
        report = wire.nack(wire.ERR_SCHEMA_MISMATCH, "why", b"\x09" * 16)
        assert report == Frame(FrameKind.ERROR, wire.ErrorPayload(4, "why", b"\x09" * 16).encode())
        assert wire.ErrorPayload.decode(wire.nack(wire.ERR_BAD_FRAME, "").payload).agent_id == bytes(16)

    def test_overhead_is_constant(self):
        for n in (0, 1, 100, 5000):
            f = Frame(FrameKind.AGENT_TRANSFER, b"z" * n)
            assert len(wire.encode_frame(f)) == n + wire.FRAME_OVERHEAD


GOLDEN_TRANSFER_FRAME_HEX = (
    "4d414d500102010000000037000102030405060708090a0b0c0d0e0f202122232425262728292a2b2c2d"
    "2e2f303132333435363738393a3b3c3d3e3f00037374617465d5e475a4"
)


class TestValueTypes:
    """Frames and transfer payloads are frozen values however they are built."""

    AGENT_ID, DIGEST = bytes(range(16)), bytes(range(32, 64))

    def test_a_transfer_payload_built_by_position_or_keyword_is_one_value(self):
        by_position = wire.AgentTransferPayload(self.AGENT_ID, self.DIGEST, 3, b"state")
        by_keyword = wire.AgentTransferPayload(state=b"state", hop_index=3, digest=self.DIGEST,
                                               agent_id=self.AGENT_ID)
        assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
        assert by_position != dataclasses.replace(by_position, hop_index=4)
        assert repr(by_position) == (
            "AgentTransferPayload(agent_id=b'\\x00\\x01\\x02\\x03\\x04\\x05\\x06\\x07\\x08\\t\\n"
            "\\x0b\\x0c\\r\\x0e\\x0f', digest=b' !\"#$%&\\'()*+,-./0123456789:;<=>?', "
            "hop_index=3, state=b'state')"
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            by_position.hop_index = 4
        assert wire.AgentTransferPayload.decode(by_keyword.encode()) == by_position

    def test_a_frame_built_by_position_or_keyword_is_one_value(self):
        payload = wire.AgentTransferPayload(self.AGENT_ID, self.DIGEST, 3, b"state").encode()
        by_position = Frame(FrameKind.AGENT_TRANSFER, payload, wire.FLAG_COMPRESSED)
        by_keyword = Frame(flags=wire.FLAG_COMPRESSED, payload=payload, kind=FrameKind.AGENT_TRANSFER)
        assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
        assert by_position != Frame(FrameKind.AGENT_TRANSFER, payload)
        assert Frame(FrameKind.ACK) == Frame(FrameKind.ACK, b"", 0) == wire.ACK
        assert repr(Frame(FrameKind.ACK)) == "Frame(kind=<FrameKind.ACK: 3>, payload=b'', flags=0)"
        for field_name, value in (("kind", FrameKind.ACK), ("payload", b""), ("flags", 0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(by_position, field_name, value)
        assert by_keyword.encoded().hex() == GOLDEN_TRANSFER_FRAME_HEX
        assert wire.encode_frame(by_position).hex() == GOLDEN_TRANSFER_FRAME_HEX
        assert wire.decode_frame(bytes.fromhex(GOLDEN_TRANSFER_FRAME_HEX)) == by_position


class TestPayloadCodecs:
    def test_code_push_roundtrip(self):
        p = wire.CodePushPayload("MAExample", b"\x01" * 32, b"bytecode")
        assert wire.CodePushPayload.decode(p.encode()) == p

    def test_agent_transfer_roundtrip(self):
        p = wire.AgentTransferPayload(b"\x02" * 16, b"\x03" * 32, 7, b"stateimage")
        assert wire.AgentTransferPayload.decode(p.encode()) == p

    def test_every_truncated_transfer_payload_names_the_field_cut_short(self):
        data = wire.AgentTransferPayload(b"\x02" * 16, b"\x03" * 32, 7, b"stateimage").encode()
        for n in range(wire.AgentTransferPayload.HEADER_LEN):
            need, at = (16, 0) if n < 16 else (32, 16) if n < 48 else (2, 48)
            with pytest.raises(wire.TruncatedError) as caught:
                wire.AgentTransferPayload.decode(data[:n])
            assert str(caught.value) == f"need {need} bytes at offset {at}, have {n - at}"

    def test_pack_and_fields_agree_with_the_payload_object(self):
        rng = random.Random(25)
        for _ in range(500):
            agent_id, digest = rng.randbytes(16), rng.randbytes(32)
            hop_index, state = rng.randrange(0x10000), rng.randbytes(rng.randrange(300))
            data = wire.AgentTransferPayload.pack(agent_id, digest, hop_index, state)
            assert data == wire.AgentTransferPayload(agent_id, digest, hop_index, state).encode()
            decoded = wire.AgentTransferPayload.decode(data)
            assert wire.AgentTransferPayload.fields(data) == (
                decoded.agent_id, decoded.digest, decoded.hop_index, decoded.state
            ) == (agent_id, digest, hop_index, state)

    @pytest.mark.parametrize("agent_id, digest", [(b"\x02" * 15, b"\x03" * 32), (b"\x02" * 16, b"\x03" * 31)],
                             ids=["agent_id", "digest"])
    def test_pack_refuses_an_id_or_digest_of_the_wrong_length(self, agent_id, digest):
        with pytest.raises(WireError, match="^agent_id must be 16 bytes, digest 32 bytes$"):
            wire.AgentTransferPayload.pack(agent_id, digest, 0, b"state")

    def test_a_transfer_payload_of_its_prefix_alone_has_empty_state(self):
        p = wire.AgentTransferPayload(b"\x02" * 16, b"\x03" * 32, 0xFFFF, b"")
        assert len(p.encode()) == wire.AgentTransferPayload.HEADER_LEN == 50
        assert wire.AgentTransferPayload.decode(p.encode()) == p

    def test_error_roundtrip(self):
        p = wire.ErrorPayload(wire.ERR_CODE_MISSING, "no code", b"\x04" * 16)
        assert wire.ErrorPayload.decode(p.encode()) == p

    def test_forward_request_roundtrip(self):
        p = wire.ForwardRequestPayload(
            "MA", b"\x06" * 32,
            (wire.ForwardTarget("10.0.1.2", 9000, "local:seg1"),),
        )
        assert wire.ForwardRequestPayload.decode(p.encode()) == p

    def test_forward_results_roundtrip(self):
        results = [wire.ForwardResult("10.0.1.2", 9000, True), wire.ForwardResult("10.0.1.3", 9000, False, 5)]
        assert wire.decode_forward_results(wire.encode_forward_results(results)) == results

    @pytest.mark.parametrize("encoded, decode", [
        (wire.CodePushPayload("MA", b"\x01" * 32, b"code").encode(), wire.CodePushPayload.decode),
        (wire.ErrorPayload(wire.ERR_INTERNAL, "failed", b"\x04" * 16).encode(), wire.ErrorPayload.decode),
        (wire.ForwardRequestPayload("MA", b"\x06" * 32, (wire.ForwardTarget("10.0.1.2", 9000, "seg"),)).encode(),
         wire.ForwardRequestPayload.decode),
        (wire.encode_forward_results([wire.ForwardResult("10.0.1.2", 9000, True)]), wire.decode_forward_results),
    ], ids=["code_push", "error", "forward_request", "forward_results"])
    def test_trailing_bytes_are_refused(self, encoded, decode):
        decode(encoded)
        with pytest.raises(WireError, match="4 trailing bytes"):
            decode(encoded + b"junk")


class TestSchemaFiles:
    def test_roundtrip_through_json_dict(self):
        fields = [
            FieldDescriptor("it", TypeTag.STRING_ARRAY),
            FieldDescriptor("hop", TypeTag.INT32, transient=True, default=0),
        ]
        doc = wire.schema_to_dict("MAExample", "MAPack", fields)
        kind, ns, out = wire.schema_from_dict(doc)
        assert (kind, ns) == ("MAExample", "MAPack")
        assert out == fields
