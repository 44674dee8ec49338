import collections
import hashlib
import logging
import random
import socket
import struct
import sys
import threading
import time
import tracemalloc
import zlib

import pytest

from agentway import agency as agency_module
from agentway import transport as transport_module
from agentway import wire
from agentway.agency import (
    Agency,
    AgencyError,
    AdmissionError,
    Behavior,
    CodeCache,
    CodeImage,
    collector_behavior,
    pingpong_behavior,
)
from agentway.transport import Endpoint, InProcNetwork, ModeledTransport, SocketTransport, TransportOpts
from agentway.wire import FieldDescriptor, Frame, FrameKind, StateRecord, TypeTag
from conftest import Cluster, wait_until


def image(kind="A", code=b"code-A"):
    return CodeImage.from_code(kind, code)


class TestCodeImage:
    def test_digest_and_size(self):
        img = image("MA", b"\x01\x02\x03")
        assert img.digest == hashlib.sha256(b"\x01\x02\x03").digest()
        assert img.size_bytes == 3

    def test_verify_rejects_tampered_code(self):
        img = CodeImage("MA", hashlib.sha256(b"real").digest(), b"fake")
        for _ in range(2):  # a failed verify is not remembered
            with pytest.raises(AgencyError, match="digest"):
                img.verify()

    def test_an_image_keeps_its_code_when_the_callers_buffer_changes(self):
        buf = bytearray(b"original code")
        made = CodeImage.from_code("MA", buf)
        built = CodeImage("MA", bytearray(hashlib.sha256(buf).digest()), buf)
        built.verify()
        buf[:] = b"changed code!"
        for img in (made, built):
            assert img.code == b"original code" and type(img.code) is bytes
            assert img.digest == hashlib.sha256(b"original code").digest()
            img.verify()
        code = b"held as it is"
        assert CodeImage.from_code("MA", code).code is code


class TestCodeCache:
    def test_install_into_empty_cache(self):
        cache = CodeCache(capacity=2)
        outcome = cache.install(image("A"))
        assert outcome.action == "stored" and outcome.evicted == ()

    def test_a_tampered_image_is_refused_every_time(self):
        cache = CodeCache()
        img = CodeImage("A", hashlib.sha256(b"real").digest(), b"fake")
        for _ in range(2):
            with pytest.raises(AgencyError, match="digest"):
                cache.install(img)
        assert len(cache) == 0 and cache.lookup("A") is None

    def test_lookup_refreshes_lru_order(self):
        cache = CodeCache(capacity=2)
        cache.install(image("A", b"aa"))
        cache.install(image("B", b"bb"))
        assert cache.lookup("A") is not None
        outcome = cache.install(image("C", b"cc"))
        assert outcome.evicted == ("B",)
        assert cache.lookup("A") is not None
        assert cache.lookup("B") is None

    def test_reinstall_refreshes_without_eviction(self):
        cache = CodeCache(capacity=2)
        cache.install(image("A"))
        cache.install(image("B", b"bb"))
        outcome = cache.install(image("A"))
        assert outcome.action == "refreshed" and outcome.evicted == ()
        assert len(cache) == 2

    def test_lookup_counters(self):
        cache = CodeCache(capacity=2)
        cache.install(image("A"))
        cache.lookup("A")
        cache.lookup("nope")
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lookup_evicted_kind_is_absent(self):
        cache = CodeCache(capacity=1)
        cache.install(image("A"))
        cache.install(image("B", b"bb"))
        assert cache.lookup("A") is None

    def test_byte_ceiling_evicts(self):
        cache = CodeCache(capacity=10, byte_limit=100)
        cache.install(image("A", b"x" * 60))
        outcome = cache.install(image("B", b"y" * 60))
        assert outcome.evicted == ("A",)

    def test_digest_mismatch_rejected(self):
        cache = CodeCache(capacity=2)
        bad = CodeImage("A", b"\x00" * 32, b"whatever")
        with pytest.raises(AgencyError):
            cache.install(bad)

    def test_matches_reference_lru_simulation(self):
        rng = random.Random(99)
        kinds = [f"K{i}" for i in range(12)]
        for _ in range(200):
            capacity = rng.randint(1, 6)
            cache = CodeCache(capacity=capacity)
            reference: list[str] = []  # oldest first
            evictions, expected_evictions = [], []
            for _ in range(rng.randint(5, 40)):
                kind = rng.choice(kinds)
                if rng.random() < 0.5:
                    evictions.extend(cache.install(image(kind, kind.encode())).evicted)
                    if kind in reference:
                        reference.remove(kind)
                        reference.append(kind)
                    else:
                        reference.append(kind)
                        if len(reference) > capacity:
                            expected_evictions.append(reference.pop(0))
                else:
                    hit = cache.lookup(kind) is not None
                    assert hit == (kind in reference)
                    if hit:
                        reference.remove(kind)
                        reference.append(kind)
                assert len(cache) <= capacity
            assert evictions == expected_evictions

    def test_capacity_bound_under_concurrency(self):
        cache = CodeCache(capacity=4)
        violations = []

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(300):
                kind = f"K{rng.randint(0, 9)}"
                if rng.random() < 0.5:
                    cache.install(image(kind, kind.encode()))
                else:
                    cache.lookup(kind)
                if len(cache) > 4:
                    violations.append(len(cache))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert violations == []


def make_cluster(n=2, behavior="pingpong", opts=None):
    cluster = Cluster(n, opts=opts)
    record = StateRecord(
        kind_name="MAExample",
        namespace="MAPack",
        fields=[
            FieldDescriptor("it", TypeTag.STRING_ARRAY),
            FieldDescriptor("data", TypeTag.STRING_ARRAY),
            FieldDescriptor("hop", TypeTag.INT32),
        ],
    )
    img = CodeImage.from_code("MAExample", b"\xab" * 64)
    cluster.install_everywhere(img, record.fields, behavior=behavior)
    return cluster, record, img


def transfer_frame(record, img, hop_index=0, agent_id=b"\x07" * 16, flags=0, digest=None):
    state = wire.encode_state(record)
    payload = wire.AgentTransferPayload(agent_id, digest or img.digest, hop_index, state)
    return Frame(FrameKind.AGENT_TRANSFER, payload.encode(), flags)


class TestAdmission:
    def test_transfer_without_push_is_code_missing(self):
        cluster, record, img = make_cluster()
        try:
            stranger = Cluster(1, subnet="10.0.9")
            agency = stranger.agency(0)
            record.set("it", ["10.0.9.1:9000"])
            with pytest.raises(AdmissionError) as exc:
                agency.admit_agent(transfer_frame(record, img))
            assert exc.value.code == wire.ERR_CODE_MISSING
            stranger.stop()
        finally:
            cluster.stop()

    def test_transfer_after_push_succeeds(self):
        cluster, record, img = make_cluster()
        try:
            record.set("it", ["10.0.0.2:9000", "10.0.0.1:9000"])
            instance = cluster.agency(1).admit_agent(transfer_frame(record, img))
            assert instance is not None
            assert instance.state.kind_name == "MAExample"
        finally:
            cluster.stop()

    def test_nack_code_missing_over_the_wire(self):
        cluster, record, img = make_cluster()
        try:
            target = cluster.endpoints[1]
            cluster.agency(1).cache = CodeCache(capacity=1)  # empty cache
            record.set("it", [str(target), str(cluster.endpoints[0])])
            receipt = cluster.agency(0).transport.send_frame(
                target, transfer_frame(record, img), cluster.opts
            )
            assert not receipt.ok and receipt.error_code == wire.ERR_CODE_MISSING
        finally:
            cluster.stop()

    def test_nack_names_the_refused_agent_once_decoded(self):
        cluster, record, img = make_cluster()
        try:
            target, source = cluster.endpoints[1].key, cluster.endpoints[0].key
            cluster.agency(1).cache = CodeCache(capacity=1)  # empty cache
            frame = transfer_frame(record, img, agent_id=b"\x2a" * 16)
            with pytest.raises(AdmissionError) as exc:
                cluster.agency(1).admit_agent(frame)
            assert (exc.value.code, exc.value.agent_id) == (wire.ERR_CODE_MISSING, b"\x2a" * 16)
            for sent, code, agent_id in (
                (frame, wire.ERR_CODE_MISSING, b"\x2a" * 16),
                (Frame(FrameKind.AGENT_TRANSFER, b"\x2a" * 20), wire.ERR_DECODE_FAILED, b"\x00" * 16),
            ):
                reply = wire.decode_frame(cluster.network.deliver(target, wire.encode_frame(sent), source))
                nack = wire.ErrorPayload.decode(reply.payload)
                assert (reply.kind, nack.code, nack.agent_id) == (FrameKind.ERROR, code, agent_id)
        finally:
            cluster.stop()

    def test_a_cut_transfer_payload_is_nack_2_naming_the_field_cut_short(self):
        cluster, record, img = make_cluster()
        try:
            target, source = cluster.endpoints[1].key, cluster.endpoints[0].key
            whole = transfer_frame(record, img).payload
            for cut, message in (
                (0, "need 16 bytes at offset 0, have 0"),
                (16, "need 32 bytes at offset 16, have 0"),
                (49, "need 2 bytes at offset 48, have 1"),
            ):
                reply = cluster.agency(1).handle_frame(Frame(FrameKind.AGENT_TRANSFER, whole[:cut]), source)
                nack = wire.ErrorPayload.decode(reply.payload)
                assert (reply.kind, nack.code, nack.agent_id) == (FrameKind.ERROR, wire.ERR_DECODE_FAILED,
                                                                  b"\x00" * 16)
                assert nack.message == f"bad transfer payload: {message}"
                data = wire.encode_frame(Frame(FrameKind.AGENT_TRANSFER, whole[:cut]))
                assert wire.decode_frame(cluster.network.deliver(target, data, source)) == reply
            cluster.network.run()
            assert not cluster.agency(1).hops and not cluster.agency(1).failures
        finally:
            cluster.stop()

    def test_schema_mismatch_is_nack_4(self):
        cluster, record, img = make_cluster()
        try:
            other = StateRecord(
                kind_name="MAExample", namespace="MAPack",
                fields=[FieldDescriptor("x", TypeTag.INT64)],
            )
            other_frame = transfer_frame(other, img)
            with pytest.raises(AdmissionError) as exc:
                cluster.agency(1).admit_agent(other_frame)
            assert exc.value.code == wire.ERR_SCHEMA_MISMATCH
        finally:
            cluster.stop()

    def test_compressed_transfer_admits(self):
        opts = TransportOpts(compress=True)
        cluster, record, img = make_cluster(opts=opts)
        try:
            record.set("it", ["10.0.0.2:9000", "10.0.0.1:9000"])
            state = wire.compress_payload(wire.encode_state(record))
            payload = wire.AgentTransferPayload(b"\x07" * 16, img.digest, 0, state)
            frame = Frame(FrameKind.AGENT_TRANSFER, payload.encode(), wire.FLAG_COMPRESSED)
            instance = cluster.agency(1).admit_agent(frame)
            assert instance.state.values["it"] == ["10.0.0.2:9000", "10.0.0.1:9000"]
        finally:
            cluster.stop()

    def test_state_inflating_past_the_cap_is_nack_2(self, monkeypatch):
        cluster, record, img = make_cluster()
        try:
            target = cluster.endpoints[1]
            record.set("it", [str(target), str(cluster.endpoints[0])])
            record.set("data", ["x" * 4000])
            state = wire.encode_state(record)
            payload = wire.AgentTransferPayload(b"\x07" * 16, img.digest, 0, wire.compress_payload(state))
            frame = Frame(FrameKind.AGENT_TRANSFER, payload.encode(), wire.FLAG_COMPRESSED)
            monkeypatch.setattr(wire, "MAX_INFLATED_BYTES", len(state) - 1)
            receipt = cluster.agency(0).transport.send_frame(target, frame, cluster.opts)
            assert not receipt.ok and receipt.error_code == wire.ERR_DECODE_FAILED
            assert not cluster.agency(1).hops
            monkeypatch.setattr(wire, "MAX_INFLATED_BYTES", len(state))
            assert cluster.agency(0).transport.send_frame(target, frame, cluster.opts).ok
        finally:
            cluster.stop()

    def test_arrival_increments_hop(self):
        cluster, record, img = make_cluster()
        try:
            record.set("it", ["10.0.0.2:9000", "10.0.0.1:9000"])
            record.set("hop", 1)
            instance = cluster.agency(1).admit_agent(transfer_frame(record, img, hop_index=0))
            cluster.agency(1).run_hop(instance)
            assert instance.state.get("hop") == 2
        finally:
            cluster.stop()

    def test_probe_checks_code_without_instantiating(self):
        cluster, record, img = make_cluster()
        try:
            origin = cluster.agency(0)
            assert origin.probe_code(cluster.endpoints[1], "MAExample", img.digest)
            assert not origin.probe_code(cluster.endpoints[1], "MAExample", b"\x00" * 32)
        finally:
            cluster.stop()


class TestHops:
    def test_every_hop_at_an_agency_sees_its_one_host_context(self):
        cluster, record, img = make_cluster()
        seen = []
        for agency in cluster.agencies.values():
            agency.register_behavior("MAExample", Behavior(
                "spy", list(record.fields), lambda state, ctx: seen.append(ctx), lambda state, ctx: None))
        try:
            for _ in range(2):
                cluster.agency(0).launch(record.copy(), [cluster.endpoints[1], cluster.endpoints[0]])
                cluster.network.run()
        finally:
            cluster.stop()
        origin, remote = cluster.agency(0), cluster.agency(1)
        assert [ctx.host_name for ctx in seen] == ["h1", "h0", "h1", "h0"]
        assert seen[0] is seen[2] is remote.context() and seen[1] is seen[3] is origin.context()
        assert (seen[0].address, seen[0].agency_id) == (remote.bind.address, remote.agency_id)

    def test_dispatch_to_next_then_complete_at_origin(self):
        cluster, record, img = make_cluster(behavior="collector")
        try:
            origin = cluster.agency(0)
            itinerary = [cluster.endpoints[1], cluster.endpoints[0]]
            agent_id = origin.launch(record.copy(), itinerary)
            cluster.network.run()
            done = origin.completions[agent_id]
            assert done["data"] == ["h1", "h0"]
            # each agency logged what it ran, with the times it measured itself
            launch, back = origin.hops
            (there,) = cluster.agency(1).hops
            assert [(h.agent_id, h.hop_index, h.status, h.error) for h in (launch, there, back)] == [
                (agent_id, -1, "launched", None),
                (agent_id, 0, "dispatched", None),
                (agent_id, 1, "completed", None),
            ]
            assert launch.decode_ns == 0 and launch.encode_ns > 0
            assert there.decode_ns > 0 and there.encode_ns > 0 and back.decode_ns > 0
            assert launch.send_bytes == origin.transport.link_stats(cluster.endpoints[1]).bytes_sent
            assert there.send_bytes > launch.send_bytes  # the collector added "h1"
            assert back.send_bytes == back.send_ns == 0  # nothing sent on
            assert [origin.wait(agent_id, i, 0) for i in (-1, 1)] == [launch, back]
            assert cluster.agency(1).wait(agent_id, 0, 0) is there
        finally:
            cluster.stop()

    def test_compressed_round_trip_through_dispatch(self):
        cluster, record, img = make_cluster(opts=TransportOpts(compress=True))
        transfers = []
        cluster.network.add_tap(
            lambda key, frame: transfers.append(frame) if frame.kind == FrameKind.AGENT_TRANSFER else None
        )
        try:
            origin = cluster.agency(0)
            record.set("data", ["carried both ways " * 8])
            agent_id = origin.launch(record, [cluster.endpoints[1], cluster.endpoints[0]])
            cluster.network.run()
            assert origin.wait(agent_id, 1, 0).status == "completed"
            assert len(transfers) == 2 and all(f.flags & wire.FLAG_COMPRESSED for f in transfers)
            sent = wire.AgentTransferPayload.decode(transfers[0].payload).state
            assert wire.decompress_payload(sent) == wire.encode_state(record)
            assert len(sent) < len(wire.encode_state(record))
            # the pingpong behavior bumps the persistent hop count once per arrival
            assert origin.completions[agent_id]["state"].values == {**record.values, "hop": 2}
        finally:
            cluster.stop()

    def test_the_admitted_digest_travels_on(self):
        """B swaps its copy of the kind mid-hop; the agent carries on with the digest
        it was admitted with, which A, holding the original, accepts."""
        from agentway.agency import Behavior

        cluster, record, img = make_cluster()
        try:
            origin, agency_b = cluster.agency(0), cluster.agency(1)

            def replace_code(state, ctx):
                agency_b.install_code(CodeImage.from_code("MAExample", b"\xcd" * 64))

            agency_b.register_behavior("MAExample", Behavior("swap", record.fields, replace_code, replace_code))
            lookups = [agency.cache.hits + agency.cache.misses for agency in (origin, agency_b)]
            agent_id = origin.launch(record, [cluster.endpoints[1], cluster.endpoints[0]])
            cluster.network.run()
            assert origin.wait(agent_id, 1, 0).status == "completed"
            # one lookup at launch, one per admission
            assert [agency.cache.hits + agency.cache.misses - n
                    for agency, n in zip((origin, agency_b), lookups)] == [2, 1]
            assert agency_b.lookup_code("MAExample").digest != img.digest
        finally:
            cluster.stop()

    def test_collector_appends_exactly_one_entry(self):
        cluster, record, img = make_cluster(behavior="collector")
        try:
            record.set("it", ["10.0.0.2:9000", "10.0.0.1:9000"])
            record.set("data", ["pre"])
            agency_b = cluster.agency(1)
            instance = agency_b.admit_agent(transfer_frame(record, img, hop_index=0))
            agency_b.run_hop(instance)
            assert instance.state.get("data") == ["pre", "h1"]
        finally:
            cluster.stop()

    def test_agent_conservation(self):
        cluster, record, img = make_cluster(behavior="pingpong")
        try:
            transfers = []
            cluster.network.add_tap(
                lambda dest, frame: transfers.append(dest)
                if frame.kind == FrameKind.AGENT_TRANSFER else None
            )
            hops = 7
            itinerary = [cluster.endpoints[i % 2] for i in range(1, hops)] + [cluster.endpoints[0]]
            assert len(itinerary) == hops
            agent_id = cluster.agency(0).launch(record.copy(), itinerary)
            cluster.network.run()
            assert agent_id in cluster.agency(0).completions
            assert agent_id not in cluster.agency(0).failures
            assert len(transfers) == hops
        finally:
            cluster.stop()

    def test_transient_reset_every_hop(self):
        cluster = Cluster(3)
        fields = [
            FieldDescriptor("it", TypeTag.STRING_ARRAY),
            FieldDescriptor("data", TypeTag.STRING_ARRAY),
            FieldDescriptor("scratch", TypeTag.INT32, transient=True, default=41),
        ]
        img = CodeImage.from_code("Scratchy", b"s" * 16)
        observed = []

        def poke(state, ctx):
            observed.append(state.get("scratch"))
            state.set("scratch", 1000)  # must not survive the next hop

        from agentway.agency import Behavior

        for agency in cluster.agencies.values():
            agency.install_code(img)
            agency.register_behavior("Scratchy", Behavior("poke", fields, poke, lambda s, c: None))
        try:
            record = StateRecord(kind_name="Scratchy", fields=fields)
            itinerary = [cluster.endpoints[1], cluster.endpoints[2], cluster.endpoints[0]]
            cluster.agency(0).launch(record, itinerary)
            cluster.network.run()
            assert observed == [41, 41, 41]
        finally:
            cluster.stop()

    def test_behavior_failure_reports_error_to_origin(self):
        cluster = Cluster(2)
        fields = [FieldDescriptor("it", TypeTag.STRING_ARRAY)]
        img = CodeImage.from_code("Bomb", b"b" * 16)

        def boom(state, ctx):
            raise RuntimeError("kaboom")

        from agentway.agency import Behavior

        for agency in cluster.agencies.values():
            agency.install_code(img)
            agency.register_behavior("Bomb", Behavior("boom", fields, boom, lambda s, c: None))
        try:
            record = StateRecord(kind_name="Bomb", fields=fields)
            agent_id = cluster.agency(0).launch(
                record, [cluster.endpoints[1], cluster.endpoints[0]]
            )
            cluster.network.run()
            assert agent_id not in cluster.agency(0).completions
            assert "kaboom" in cluster.agency(0).failures[agent_id]
            (failed,) = cluster.agency(1).hops
            assert (failed.agent_id, failed.hop_index, failed.status, failed.error) == (
                agent_id, 0, "failed", "kaboom"
            )
            for agency, hop_index in ((cluster.agency(0), 1), (cluster.agency(1), 0)):
                with pytest.raises(AgencyError, match="^kaboom$"):  # reported, and failed here
                    agency.wait(agent_id, hop_index, 0)
        finally:
            cluster.stop()

    def test_malformed_itinerary_fails_the_hop(self, caplog):
        cluster, record, img = make_cluster()
        try:
            record.set("it", ["10.0.0.2:9000", "not-an-endpoint"])
            agency_b = cluster.agency(1)
            instance = agency_b.admit_agent(transfer_frame(record, img, agent_id=b"\x0b" * 16))
            result = agency_b.run_hop(instance)
            assert result.status == "failed" and "bad itinerary" in result.error
            assert agency_b.hops[-1] is result
            assert "bad itinerary" in agency_b.failures[b"\x0b" * 16]
            assert ("0b" * 16) in caplog.text
            # delivered over the network, the deferred hop fails the same way instead of raising
            frame = transfer_frame(record, img, agent_id=b"\x0c" * 16)
            assert cluster.agency(0).transport.send_frame(cluster.endpoints[1], frame).ok
            cluster.network.run()
            assert "bad itinerary" in agency_b.failures[b"\x0c" * 16]
            record.set("it", [])  # no origin at all
            instance = agency_b.admit_agent(transfer_frame(record, img, agent_id=b"\x0d" * 16))
            assert agency_b.run_hop(instance).status == "failed"
        finally:
            cluster.stop()

    @pytest.mark.parametrize("hop_index", [7, 3, 2])
    def test_an_agent_completes_only_at_its_origin(self, caplog, hop_index):
        """A transfer past the end of its itinerary, or at its end but not at its
        origin, fails here: it is logged, kept out of completions and not reported."""
        cluster, record, img = make_cluster(n=3, behavior="collector")
        reports = []
        cluster.network.add_tap(lambda key, frame: reports.append(key) if frame.kind == FrameKind.ERROR else None)
        try:
            record.set("it", [str(ep) for ep in cluster.endpoints[1:]] + [str(cluster.endpoints[0])])
            agency_b = cluster.agency(1)  # 10.0.0.2, the first of three stops
            frame = transfer_frame(record, img, hop_index=hop_index, agent_id=b"\x0e" * 16)
            assert cluster.agency(0).transport.send_frame(cluster.endpoints[1], frame).ok
            cluster.network.run()
            assert agency_b.completions == {} and cluster.agency(0).completions == {}
            assert agency_b.hops[-1].status == "failed"
            assert f"hop {hop_index} of an itinerary ending at {cluster.endpoints[0]}" in agency_b.failures[b"\x0e" * 16]
            assert ("0e" * 16) in caplog.text
            assert reports == []  # the named origin is not told
        finally:
            cluster.stop()

    def test_a_refused_onward_hop_fails_the_agent_at_its_origin(self):
        cluster, record, img = make_cluster(n=3)
        origin, third = cluster.agency(0), cluster.agency(2)
        third.cache = CodeCache()  # the middle stop lacks the code
        try:
            itinerary = [cluster.endpoints[1], cluster.endpoints[2], cluster.endpoints[0]]
            agent_id = origin.launch(record.copy(), itinerary)
            cluster.network.run()
            with pytest.raises(AgencyError, match=f"^hop refused with code {wire.ERR_CODE_MISSING}: "):
                origin.wait(agent_id, 2, 0)
            assert cluster.agency(1).hops[-1].status == "failed"
            assert agent_id not in origin.completions and list(third.hops) == []
        finally:
            cluster.stop()

    def test_a_failure_at_the_origin_is_recorded_there_and_not_reported(self):
        cluster, record, img = make_cluster()
        origin = cluster.agency(0)

        def boom(state, ctx):
            raise RuntimeError("kaboom at home")

        origin.register_behavior("MAExample", Behavior("boom", list(record.fields), boom, boom))
        reports = []
        cluster.network.add_tap(lambda key, frame: reports.append(key) if frame.kind == FrameKind.ERROR else None)
        try:
            agent_id = origin.launch(record.copy(), [cluster.endpoints[1], cluster.endpoints[0]])
            cluster.network.run()
            with pytest.raises(AgencyError, match="^kaboom at home$"):
                origin.wait(agent_id, 1, 0)
            assert origin.hops[-1].status == "failed" and agent_id not in origin.completions
            assert reports == []  # the origin does not send itself an ERROR frame
        finally:
            cluster.stop()

    def test_failure_report_that_cannot_be_sent_is_logged(self, caplog):
        cluster, record, img = make_cluster()
        try:
            origin = cluster.agency(0)
            agent_id = origin.launch(record.copy(), [cluster.endpoints[1], cluster.endpoints[0]])
            origin.stop()  # the origin goes away while its agent is at the first stop
            cluster.network.run()
            assert "dispatch failed" in cluster.agency(1).failures[agent_id]
            assert f"agent {agent_id.hex()} hop 0: failure report to {cluster.endpoints[0]} not sent" in caplog.text
        finally:
            cluster.stop()

    def test_hop_log_keeps_the_newest_records(self, monkeypatch):
        cap = 8
        monkeypatch.setattr(agency_module, "HOP_LOG_RECORDS", cap)
        cluster, record, img = make_cluster(behavior="pingpong")
        try:
            origin = cluster.agency(0)
            for _ in range(cap + 50):
                agent_id = origin.launch(record.copy(), [cluster.endpoints[1], cluster.endpoints[0]])
                cluster.network.run()
                assert origin.completions.pop(agent_id)
            assert len(origin.hops) == len(cluster.agency(1).hops) == cap
            assert (origin.hops[-1].agent_id, origin.hops[-1].status) == (agent_id, "completed")
        finally:
            cluster.stop()

    def test_failures_keep_the_newest_entries(self, monkeypatch, caplog):
        cap = 8
        monkeypatch.setattr(agency_module, "HOP_LOG_RECORDS", cap)
        cluster = Cluster(2)
        fields = [FieldDescriptor("it", TypeTag.STRING_ARRAY)]
        img = CodeImage.from_code("Bomb", b"b" * 16)

        def boom(state, ctx):
            raise RuntimeError("kaboom")

        from agentway.agency import Behavior

        for agency in cluster.agencies.values():
            agency.install_code(img)
            agency.register_behavior("Bomb", Behavior("boom", fields, boom, lambda s, c: None))
        origin, remote = cluster.agency(0), cluster.agency(1)
        try:
            launched = []
            for _ in range(cap + 20):  # each fails at the remote, which reports it to the origin
                record = StateRecord(kind_name="Bomb", fields=fields)
                launched.append(origin.launch(record, [cluster.endpoints[1], cluster.endpoints[0]]))
                cluster.network.run()
            assert list(remote.failures) == list(origin.failures) == launched[-cap:]
            unsolicited = [bytes([i]) * 16 for i in range(1, cap + 21)]
            for agent_id in unsolicited:
                report = wire.ErrorPayload(wire.ERR_INTERNAL, "unsolicited", agent_id)
                data = wire.encode_frame(Frame(FrameKind.ERROR, report.encode()))
                reply = cluster.network.deliver(cluster.endpoints[0].key, data, cluster.endpoints[1].key)
                assert wire.decode_frame(reply).kind == FrameKind.ACK
            assert list(origin.failures) == unsolicited[-cap:]
            assert unsolicited[0].hex() in caplog.text  # every received report is logged
        finally:
            cluster.stop()

    def test_completions_keep_the_newest_entries(self, monkeypatch):
        cap = 8
        monkeypatch.setattr(agency_module, "HOP_LOG_RECORDS", cap)
        cluster, record, img = make_cluster()
        try:
            target, source = cluster.endpoints[1], cluster.endpoints[0]
            record.set("it", [str(target)])  # one stop, which is also the origin: the final hop
            unsolicited = [bytes([i]) * 16 for i in range(1, cap + 21)]
            for agent_id in unsolicited:
                data = wire.encode_frame(transfer_frame(record, img, agent_id=agent_id))
                reply = cluster.network.deliver(target.key, data, source.key)
                assert wire.decode_frame(reply).kind == FrameKind.ACK
            cluster.network.run()
            assert list(cluster.agency(1).completions) == unsolicited[-cap:]
        finally:
            cluster.stop()

    def test_completions_hold_at_most_their_byte_cap_of_state(self, monkeypatch):
        cap = 4 * 1024 * 1024
        monkeypatch.setattr(agency_module, "COMPLETIONS_STATE_BYTES", cap)
        cluster = Cluster(2)
        schema = [FieldDescriptor("it", TypeTag.STRING_ARRAY), FieldDescriptor("s", TypeTag.STRING)]
        img = CodeImage.from_code("MAExample", b"\xab" * 64)
        cluster.install_everywhere(img, schema, behavior="pingpong")
        target, source = cluster.endpoints[1], cluster.endpoints[0]
        record = StateRecord("MAExample", "MAPack", schema, {"it": [str(target)], "s": "x" * 2**20})
        state = wire.compress_payload(wire.encode_state(record))
        assert len(state) < 1200  # about a thousand bytes held per byte received
        unsolicited = [bytes([i]) * 16 for i in range(1, 33)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for agent_id in unsolicited:
                payload = wire.AgentTransferPayload(agent_id, img.digest, 0, state)
                frame = Frame(FrameKind.AGENT_TRANSFER, payload.encode(), wire.FLAG_COMPRESSED)
                reply = cluster.network.deliver(target.key, wire.encode_frame(frame), source.key)
                assert wire.decode_frame(reply).kind == FrameKind.ACK
                cluster.network.run()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            cluster.stop()
        assert held < cap + 1024 * 1024
        assert list(cluster.agency(1).completions)[-1] == unsolicited[-1]  # the newest stays

    @pytest.mark.parametrize("caller_pops", [False, True])
    def test_a_completion_weighs_the_kept_ones_only_when_their_tally_passes_the_cap(
            self, monkeypatch, caller_pops):
        class Weighed(dict):
            passes = 0

            def values(self):
                self.passes += 1
                return super().values()

        cluster, record, img = make_cluster()
        target, source = cluster.endpoints[1], cluster.endpoints[0]
        record.set("it", [str(target)])  # one stop, which is also the origin: the final hop
        state_len = len(wire.encode_state(record))
        if caller_pops:  # the tally, never told of a pop, passes the cap every 500 completions
            monkeypatch.setattr(agency_module, "COMPLETIONS_STATE_BYTES", 500 * state_len)
        completions = cluster.agency(1).completions = Weighed()
        try:
            for i in range(2000):
                agent_id = i.to_bytes(16, "big")
                data = wire.encode_frame(transfer_frame(record, img, agent_id=agent_id))
                assert wire.decode_frame(cluster.network.deliver(target.key, data, source.key)).kind == FrameKind.ACK
                cluster.network.run()
                if caller_pops:
                    assert completions.pop(agent_id)["state_len"] == state_len
        finally:
            cluster.stop()
        assert completions.passes <= 4
        assert len(completions) == (0 if caller_pops else agency_module.HOP_LOG_RECORDS)

    def test_a_malformed_failure_report_is_refused_and_leaves_nothing(self):
        cluster, record, img = make_cluster()
        try:
            report = wire.ErrorPayload(wire.ERR_INTERNAL, "hop failed", b"\x21" * 16).encode()
            for payload in (report[:10], report[:-1], report[:17] + b"\x00\x02\xff\xfe"):
                data = wire.encode_frame(Frame(FrameKind.ERROR, payload))
                reply = wire.decode_frame(
                    cluster.network.deliver(cluster.endpoints[0].key, data, cluster.endpoints[1].key)
                )
                nack = wire.ErrorPayload.decode(reply.payload)
                assert (reply.kind, nack.code) == (FrameKind.ERROR, wire.ERR_DECODE_FAILED)
                assert nack.message.startswith("bad error report: ")
            assert cluster.agency(0).failures == {}
        finally:
            cluster.stop()

    def test_the_first_failure_reported_for_an_agent_is_kept(self):
        cluster, record, img = make_cluster()
        origin, reporter = cluster.endpoints[0].key, cluster.endpoints[1].key
        agent_id = b"\x33" * 16
        try:
            for message in ("first", "second"):
                report = wire.ErrorPayload(wire.ERR_INTERNAL, message, agent_id)
                data = wire.encode_frame(Frame(FrameKind.ERROR, report.encode()))
                assert wire.decode_frame(cluster.network.deliver(origin, data, reporter)).kind == FrameKind.ACK
            assert cluster.agency(0).failures == {agent_id: "first"}
            with pytest.raises(AgencyError, match="^first$"):
                cluster.agency(0).wait(agent_id, 1, 0.1)
        finally:
            cluster.stop()

    def test_retired_timing_report_kind_is_refused_and_leaves_nothing(self):
        cluster, record, img = make_cluster()
        try:
            payload = b"\x05" * 16 + struct.pack(">QQQ", 1, 2, 3)  # the retired kind's payload
            header = wire.MAGIC + bytes([wire.VERSION, 0x05, 0, 0]) + struct.pack(">I", len(payload))
            data = header + payload + struct.pack(">I", zlib.crc32(header + payload))
            for _ in range(100):
                reply = wire.decode_frame(
                    cluster.network.deliver(cluster.endpoints[1].key, data, cluster.endpoints[0].key)
                )
                assert reply.kind == FrameKind.ERROR
                assert wire.ErrorPayload.decode(reply.payload).code == wire.ERR_BAD_FRAME
            receiver = cluster.agency(1)
            assert not receiver.hops and receiver.failures == {} and receiver.completions == {}
        finally:
            cluster.stop()

    def test_launch_requires_itinerary_ending_at_origin(self):
        cluster, record, img = make_cluster()
        try:
            with pytest.raises(AgencyError, match="end at"):
                cluster.agency(0).launch(record.copy(), [cluster.endpoints[1]])
        finally:
            cluster.stop()

    def test_launch_without_code_sends_nothing(self):
        cluster, record, img = make_cluster()
        try:
            origin = cluster.agency(0)
            origin.cache = CodeCache()
            with pytest.raises(AgencyError, match="no cached code for 'MAExample'"):
                origin.launch(record, [cluster.endpoints[1], cluster.endpoints[0]])
            assert origin.transport.total_stats().frames_sent == 0
            assert not origin.hops
        finally:
            cluster.stop()


class TestItineraryTable:
    def test_each_itinerary_is_parsed_once(self, monkeypatch):
        parsed = []
        parse = agency_module.parse_endpoint
        monkeypatch.setattr(agency_module, "parse_endpoint", lambda text: parsed.append(text) or parse(text))
        stops = ["10.99.0.1:1", "10.99.0.2:2"]
        state = StateRecord("K", "", [FieldDescriptor("it", TypeTag.STRING_ARRAY)], {"it": stops})
        first = agency_module.itinerary_endpoints(state)
        again = agency_module.itinerary_endpoints(state)
        assert first == again == [Endpoint("10.99.0.1", 1), Endpoint("10.99.0.2", 2)]
        assert parsed == stops
        state.set("it", stops[::-1])  # the same stops in another order are another itinerary
        assert agency_module.itinerary_endpoints(state) == first[::-1]
        assert parsed == stops + stops[::-1]

    def test_a_bad_stop_is_refused_every_time_and_not_kept(self):
        state = StateRecord("K", "", [FieldDescriptor("it", TypeTag.STRING_ARRAY)],
                            {"it": ["10.99.0.1:1", "no-port"]})
        for _ in range(2):
            with pytest.raises(ValueError, match="address:port"):
                agency_module.itinerary_endpoints(state)

    def test_the_table_holds_at_most_its_text_cap(self):
        state = StateRecord("K", "", [FieldDescriptor("it", TypeTag.STRING_ARRAY)])
        for i in range(10_000):
            state.set("it", [f"10.{i >> 8}.{i & 0xFF}.7:{i}", "10.0.0.1:9000"])
            assert agency_module.itinerary_endpoints(state)[0].port == i
            assert agency_module._itinerary_chars <= agency_module.ITINERARY_TABLE_CHARS
        held = sum(len(stop) for stops in agency_module._itineraries for stop in stops)
        assert held == agency_module._itinerary_chars
        assert len(agency_module._itineraries) < 10_000

    def test_threads_keep_the_table_bounded_and_counted(self, monkeypatch):
        monkeypatch.setattr(agency_module, "ITINERARY_TABLE_CHARS", 2_000)
        errors = []

        def worker(n):
            try:
                for i in range(300):
                    stops = [f"10.{n}.{i & 0xFF}.1:{i % 7}", "10.0.0.1:9000"]
                    fields = [FieldDescriptor("it", TypeTag.STRING_ARRAY)]
                    image = wire.encode_state(StateRecord("K", "", fields, {"it": stops}))
                    state = wire.decode_state(image, fields)
                    assert agency_module.itinerary_endpoints(state)[0].port == i % 7
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
        assert errors == []
        held = sum(len(stop) for stops in agency_module._itineraries for stop in stops)
        assert held == agency_module._itinerary_chars <= 2_000


class TestWait:
    def test_times_out_on_a_hop_never_logged(self):
        cluster, record, img = make_cluster()
        try:
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                cluster.agency(0).wait(b"\x01" * 16, 1, 0.05)
            assert 0.05 <= time.monotonic() - start < 2.0
        finally:
            cluster.stop()

    def test_blocked_waits_return_once_another_thread_runs_the_hops(self):
        cluster, record, img = make_cluster()
        origin, itinerary = cluster.agency(0), [cluster.endpoints[1], cluster.endpoints[0]]
        agent_ids, returned = [bytes([i]) * 16 for i in range(1, 7)], []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            waiters = [threading.Thread(target=lambda a=a: returned.append(origin.wait(a, 1, 10.0)))
                       for a in agent_ids]
            for waiter in waiters:
                waiter.start()
            for agent_id in agent_ids:
                origin.launch(record.copy(), itinerary, agent_id=agent_id)
            runner = threading.Thread(target=cluster.network.run)
            runner.start()
            for thread in (runner, *waiters):
                thread.join(5.0)
                assert not thread.is_alive()
            assert sorted((h.agent_id, h.status) for h in returned) == [
                (agent_id, "completed") for agent_id in agent_ids
            ]
        finally:
            sys.setswitchinterval(switch)
            cluster.stop()


class CountingCondition(threading.Condition):
    """A condition that counts its waits and its ``notify_all`` calls."""

    def __init__(self, lock=None):
        super().__init__(lock)
        self.waits = self.notifies = 0

    def wait(self, timeout=None):
        self.waits += 1  # counted with the lock held, so a recorder comes after the wait blocks
        return super().wait(timeout)

    def notify_all(self):
        self.notifies += 1
        super().notify_all()


def counted_cluster(monkeypatch):
    """A modeled pair whose origin waits and wakes through a ``CountingCondition``."""
    made = []

    def condition(lock=None):
        made.append(CountingCondition(lock))
        return made[-1]

    with monkeypatch.context() as patch:
        patch.setattr(threading, "Condition", condition)
        cluster, record, img = make_cluster()
    assert len(made) == 2  # one per agency
    return cluster, record, made[0]


class TestNotify:
    @pytest.mark.parametrize("switch_interval", [None, 1e-6])
    def test_a_blocked_wait_is_woken_by_a_hop_recorded_on_another_thread(
        self, monkeypatch, switch_interval
    ):
        cluster, record, changed = counted_cluster(monkeypatch)
        origin, itinerary = cluster.agency(0), [cluster.endpoints[1], cluster.endpoints[0]]
        returned, switch = [], sys.getswitchinterval()
        try:
            if switch_interval:
                sys.setswitchinterval(switch_interval)
            agent_id = origin.launch(record.copy(), itinerary)
            waiter = threading.Thread(target=lambda: returned.append(origin.wait(agent_id, 1, 10.0)))
            waiter.start()
            assert wait_until(lambda: changed.waits >= 1)
            runner = threading.Thread(target=cluster.network.run)
            runner.start()
            for thread in (runner, waiter):
                thread.join(5.0)
                assert not thread.is_alive()
            assert [(h.agent_id, h.status) for h in returned] == [(agent_id, "completed")]
            assert changed.notifies >= 1
        finally:
            sys.setswitchinterval(switch)
            cluster.stop()

    def test_a_record_with_nobody_waiting_notifies_no_one(self, monkeypatch):
        cluster, record, changed = counted_cluster(monkeypatch)
        origin, itinerary = cluster.agency(0), [cluster.endpoints[1], cluster.endpoints[0]]
        try:
            agent_id = origin.launch(record.copy(), itinerary)
            cluster.network.run()
            assert origin.wait(agent_id, 1, 1.0).status == "completed"
            assert (len(origin.hops), changed.waits, changed.notifies) == (2, 0, 0)
        finally:
            cluster.stop()


class TestThrowawayWork:
    def test_a_warm_round_trip_builds_no_counter_and_calls_no_frame_kind(self, monkeypatch):
        cluster, record, img = make_cluster()
        origin, itinerary = cluster.agency(0), [cluster.endpoints[1], cluster.endpoints[0]]
        counts = collections.Counter()
        init, call = transport_module.LinkStats.__init__, type(FrameKind).__call__

        def counted_init(self, *args):
            counts["LinkStats"] += 1
            init(self, *args)

        def counted_call(cls, *args, **kwargs):
            if cls is FrameKind:
                counts["FrameKind"] += 1
            return call(cls, *args, **kwargs)

        def round_trip():
            agent_id = origin.launch(record.copy(), itinerary)
            cluster.network.run()
            assert origin.wait(agent_id, 1, 1.0).status == "completed"

        try:
            round_trip()  # the warm-up makes each peer's counters
            monkeypatch.setattr(transport_module.LinkStats, "__init__", counted_init)
            monkeypatch.setattr(type(FrameKind), "__call__", counted_call)
            round_trip()
            assert counts == {}
        finally:
            cluster.stop()


class TestRelaySelf:
    """A relay refuses to forward to itself, named by its bind address or by a
    loopback or wildcard alias of it on its port, and sends to any other target."""

    @pytest.mark.parametrize("bind_address, target_address, port, is_self", [
        ("127.0.0.1", "127.0.0.1", 9000, True),
        ("0.0.0.0", "127.0.0.1", 9000, True),
        ("0.0.0.0", "0.0.0.0", 9000, True),
        ("0.0.0.0", "::1", 9000, True),
        ("::", "127.0.0.1", 9000, True),
        ("127.0.0.1", "0.0.0.0", 9000, True),
        ("::1", "::", 9000, True),
        ("0.0.0.0", "127.0.0.1", 9001, False),
        ("127.0.0.1", "127.0.0.2", 9000, False),
        ("10.0.0.1", "127.0.0.1", 9000, False),
        ("10.0.0.1", "0.0.0.0", 9000, False),
    ])
    def test_forward_to_itself_or_an_alias_is_refused(self, bind_address, target_address, port, is_self):
        network = InProcNetwork()
        relay = Agency("relay", Endpoint(bind_address, 9000), ModeledTransport(network), TransportOpts())
        img = image("Relayed", b"r" * 64)
        relay.install_code(img)
        relay.start()
        request = wire.ForwardRequestPayload(
            img.kind_name, img.digest, (wire.ForwardTarget(target_address, port, "seg"),))
        try:
            receipt = ModeledTransport(network).send_frame(
                relay.bind, Frame(FrameKind.FORWARD_REQUEST, request.encode()))
            [result] = wire.decode_forward_results(receipt.reply.payload)
            assert not result.ok  # nobody listens at any target that is not the relay
            assert result.error_code == (wire.ERR_BAD_FRAME if is_self else wire.ERR_INTERNAL)
        finally:
            relay.stop()


class TestRelayTargets:
    """Each target of a forward request gets its own result, and a target the
    relay could not send to is logged with the kind and the target."""

    def relay_and_host(self):
        cluster = Cluster(2)
        img = image("Relayed", b"r" * 64)
        cluster.agency(0).install_code(img)
        return cluster, img

    def forward(self, cluster, img, *targets):
        request = wire.ForwardRequestPayload(img.kind_name, img.digest, targets)
        receipt = cluster.agency(1).transport.send_frame(
            cluster.endpoints[0], Frame(FrameKind.FORWARD_REQUEST, request.encode()))
        assert receipt.ok
        return [(r.address, r.ok, r.error_code) for r in wire.decode_forward_results(receipt.reply.payload)]

    def test_a_target_that_is_no_ip_literal_fails_alone(self):
        cluster, img = self.relay_and_host()
        try:
            results = self.forward(cluster, img, wire.ForwardTarget("10.0.0.2", 9000, "seg"),
                                   wire.ForwardTarget("host", 9000, "seg"))
            assert results == [("10.0.0.2", True, 0), ("host", False, wire.ERR_BAD_FRAME)]
            assert cluster.agency(1).lookup_code("Relayed") == img
        finally:
            cluster.stop()

    def test_a_target_not_reached_is_logged_with_kind_and_target(self, caplog):
        cluster, img = self.relay_and_host()
        try:
            with caplog.at_level(logging.WARNING, logger="agentway.agency"):
                results = self.forward(cluster, img, wire.ForwardTarget("10.0.0.9", 9000, "seg"))
            assert results == [("10.0.0.9", False, wire.ERR_INTERNAL)]
            [record] = [r for r in caplog.records if r.name == "agentway.agency"]
            assert "'Relayed'" in record.getMessage() and "10.0.0.9:9000" in record.getMessage()
        finally:
            cluster.stop()


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def forward_request(img, *targets):
    request = wire.ForwardRequestPayload(
        img.kind_name, img.digest, tuple(wire.ForwardTarget("127.0.0.1", port, "seg") for port in targets)
    )
    return Frame(FrameKind.FORWARD_REQUEST, request.encode())


class TestRoundTripOverSockets:
    def test_round_trip_with_default_opts(self):
        a, b = (Agency(name, Endpoint("127.0.0.1", 0), SocketTransport(), TransportOpts())
                for name in ("a", "b"))
        img = image("MAExample", b"u" * 64)
        fields = [FieldDescriptor("it", TypeTag.STRING_ARRAY), FieldDescriptor("data", TypeTag.STRING_ARRAY)]
        try:
            for agency in (a, b):
                agency.start()
                agency.install_code(img)
                agency.register_behavior("MAExample", collector_behavior(fields))
            record = StateRecord(kind_name="MAExample", fields=fields)
            agent_id = a.launch(record, [b.bind, a.bind])
            assert a.wait(agent_id, 1, 5.0).status == "completed"
            assert b.wait(agent_id, 0, 5.0).status == "dispatched"  # logged once A acknowledged
            assert a.completions[agent_id]["data"] == ["b", "a"]
            assert not a.failures and not b.failures
        finally:
            a.stop()
            b.stop()


class TestRelayOverSockets:
    def test_relay_forwards_code_to_a_target(self):
        relay, target = (Agency(name, Endpoint("127.0.0.1", 0), SocketTransport(), TransportOpts())
                         for name in ("relay", "target"))
        img = CodeImage.from_code("Relayed", b"r" * 64)
        relay.install_code(img)
        client = SocketTransport()
        try:
            relay.start()
            target.start()
            receipt = client.send_frame(relay.bind, forward_request(img, target.bind.port))
            assert receipt.ok
            [result] = wire.decode_forward_results(receipt.reply.payload)
            assert (result.port, result.ok) == (target.bind.port, True)
            assert target.lookup_code("Relayed") == img
        finally:
            client.close()
            relay.stop()
            target.stop()

    @pytest.mark.parametrize("bind_address", ["127.0.0.1", "0.0.0.0"])
    def test_forward_request_naming_the_relay_itself_is_refused_promptly(self, bind_address):
        port = free_port()
        opts = TransportOpts(connect_timeout_s=2.0)
        relay = Agency("relay", Endpoint(bind_address, port), SocketTransport(), opts)
        img = CodeImage.from_code("Relayed", b"r" * 64)
        relay.install_code(img)
        relay.start()
        client = SocketTransport()
        try:
            start = time.monotonic()
            receipt = client.send_frame(Endpoint("127.0.0.1", port), forward_request(img, port), opts)
            elapsed = time.monotonic() - start
            assert receipt.ok
            [result] = wire.decode_forward_results(receipt.reply.payload)
            assert (result.port, result.ok) == (port, False)
            assert elapsed < 1.0
        finally:
            client.close()
            relay.stop()

    def test_forward_to_a_silent_target_does_not_hold_up_the_relay(self):
        opts = TransportOpts(connect_timeout_s=1.5)
        relay = Agency("relay", Endpoint("127.0.0.1", free_port()), SocketTransport(), opts)
        img = CodeImage.from_code("Relayed", b"r" * 64)
        relay.install_code(img)
        relay.start()
        client = SocketTransport()
        with socket.socket() as silent:  # accepts connections, never answers
            silent.bind(("127.0.0.1", 0))
            silent.listen(4)
            forwarded = []
            forward = threading.Thread(target=lambda: forwarded.append(
                client.send_frame(relay.bind, forward_request(img, silent.getsockname()[1]),
                                  TransportOpts(connect_timeout_s=5.0))
            ))
            try:
                forward.start()
                time.sleep(0.2)  # the relay is now waiting on the silent target
                other = SocketTransport()
                start = time.monotonic()
                push = wire.CodePushPayload(img.kind_name, img.digest, img.code)
                assert other.send_frame(relay.bind, Frame(FrameKind.CODE_PUSH, push.encode()), opts).ok
                assert time.monotonic() - start < 0.5
                other.close()
                forward.join(timeout=5)
                [result] = wire.decode_forward_results(forwarded[0].reply.payload)
                assert not result.ok  # the silent target timed out
            finally:
                forward.join(timeout=5)
                client.close()
                relay.stop()


HELD_FIELDS = [FieldDescriptor("it", TypeTag.STRING_ARRAY), FieldDescriptor("data", TypeTag.STRING_ARRAY)]


def held_behavior(host_name, entered, release):
    """A behavior whose task, at ``host_name``, signals ``entered`` and waits for ``release``."""

    def task(state, ctx):
        if ctx.host_name == host_name and not release.is_set():
            entered.release()
            release.wait(10)

    return Behavior("held", HELD_FIELDS, on_arrival=lambda state, ctx: None, task=task)


def tcp_pair(behavior):
    a, b = (Agency(name, Endpoint("127.0.0.1", 0), SocketTransport(), TransportOpts(no_delay=True))
            for name in ("a", "b"))
    img = image("MAExample", b"h" * 64)
    for agency in (a, b):
        agency.start()
        agency.install_code(img)
        agency.register_behavior("MAExample", behavior)
    return a, b


def launch(origin, itinerary):
    return origin.launch(StateRecord(kind_name="MAExample", fields=HELD_FIELDS), itinerary)


class TestHopWorkersOverSockets:
    """Admitted hops run on a transport's hop threads: kept workers, one more thread per hop
    that finds them all busy up to ``MAX_HOP_THREADS``, then a bounded queue."""

    def test_a_full_hop_queue_refuses_the_next_transfer_busy(self, monkeypatch):
        monkeypatch.setattr(transport_module, "MAX_HOP_THREADS", transport_module.HOP_WORKERS)
        monkeypatch.setattr(transport_module, "MAX_QUEUED_HOPS", 1)
        entered, release = threading.Semaphore(0), threading.Event()
        a, b = tcp_pair(held_behavior("a", entered, release))
        busy = f"code {wire.ERR_INTERNAL}: busy"
        try:
            held = []
            for _ in range(transport_module.HOP_WORKERS):  # each of A's workers holds a hop from B
                held.append(launch(b, [a.bind, b.bind]))
                assert entered.acquire(timeout=5)
            held.append(launch(b, [a.bind, b.bind]))  # fills A's queue of one
            with pytest.raises(AgencyError, match=busy):  # a launch refused at its first stop
                launch(b, [a.bind, b.bind])
            [refused_launch] = {hop.agent_id for hop in list(b.hops)} - set(held)
            onward = launch(a, [b.bind, a.bind])  # B runs its hop and is refused at A, the origin
            with pytest.raises(AgencyError, match=busy):
                a.wait(onward, 1, 5)
            assert busy in a.failures[onward]
            monkeypatch.undo()  # so B, where the held agents end, refuses none of them
            release.set()
            for agent_id in held:
                assert b.wait(agent_id, 1, 5).status == "completed"
            admitted = {(hop.agent_id, hop.hop_index) for agency in (a, b) for hop in list(agency.hops)}
            assert (onward, 1) not in admitted and (onward, 0) in admitted
            assert not [i for agent_id, i in admitted if agent_id == refused_launch and i >= 0]
            assert refused_launch not in a.failures and refused_launch not in b.failures
            assert set(b.completions) == set(held) and not a.completions
        finally:
            release.set()
            a.stop()
            b.stop()

    def test_held_hops_wait_on_a_bounded_set_of_threads(self, monkeypatch):
        monkeypatch.setattr(transport_module, "MAX_HOP_THREADS", 4)
        before = set(threading.enumerate())
        entered, release = threading.Semaphore(0), threading.Event()
        a, b = tcp_pair(held_behavior("b", entered, release))
        try:
            agents = [launch(a, [b.bind, a.bind]) for _ in range(32)]
            for _ in range(transport_module.MAX_HOP_THREADS):
                assert entered.acquire(timeout=5)
            assert not entered.acquire(timeout=0.1)  # the other 28 wait in B's queue
            connections = a._listener.open_connections + b._listener.open_connections
            # the accept threads, the hop threads of both agencies and a thread per open connection
            ceiling = len(before) + 2 + 2 * transport_module.MAX_HOP_THREADS + connections
            assert threading.active_count() <= ceiling
            release.set()
            for agent_id in agents:
                assert a.wait(agent_id, 1, 10).status == "completed"
        finally:
            release.set()
            a.stop()
            b.stop()
        assert set(threading.enumerate()) - before == set()

    def test_hops_to_a_stalled_stop_hold_up_no_other_hop(self):
        a, b = tcp_pair(pingpong_behavior(HELD_FIELDS))
        connects = []
        b.transport._connect = lambda endpoint, opts, connect=b.transport._connect: (
            connects.append(endpoint) or connect(endpoint, opts))
        with socket.socket() as stalled:  # accepts connections, never answers
            stalled.bind(("127.0.0.1", 0))
            stalled.listen(8)
            stop = Endpoint("127.0.0.1", stalled.getsockname()[1])
            try:
                stuck = [launch(a, [b.bind, stop, a.bind]) for _ in range(transport_module.HOP_WORKERS + 1)]
                assert wait_until(lambda: connects.count(stop) == len(stuck))  # each waits on its reply
                start = time.monotonic()
                assert a.wait(launch(a, [b.bind, a.bind]), 1, 3).status == "completed"
                assert time.monotonic() - start < 1.0
                assert not [agent_id for agent_id in stuck if agent_id in a.failures]
            finally:
                stalled.close()  # resets the connections it never accepted: each stuck hop fails
                for agent_id in stuck:
                    with pytest.raises(AgencyError, match="tcp send"):
                        a.wait(agent_id, 2, 10)
                a.stop()
                b.stop()

    def test_stop_waits_a_bounded_time_for_a_held_hop(self, monkeypatch, caplog):
        monkeypatch.setattr(transport_module, "CLOSE_WAIT_S", 0.2)
        before = set(threading.enumerate())
        entered, release = threading.Semaphore(0), threading.Event()
        a, b = tcp_pair(held_behavior("b", entered, release))
        try:
            agent_id = launch(a, [b.bind, a.bind])
            assert entered.acquire(timeout=5)
            start = time.monotonic()
            with caplog.at_level(logging.WARNING, logger="agentway.transport"):
                b.stop()
            assert time.monotonic() - start < 2.0
            assert "1 hop threads still busy" in caplog.text
            release.set()  # the hop goes on, and reaches A over a fresh connection
            assert a.wait(agent_id, 1, 5).status == "completed"
        finally:
            release.set()
            a.stop()
            b.stop()
        assert wait_until(lambda: set(threading.enumerate()) - before == set())

    def test_round_trips_connect_at_most_once_per_concurrent_send(self):
        a, b = tcp_pair(pingpong_behavior(HELD_FIELDS))
        connects = collections.Counter()
        for agency in (a, b):
            def counted(endpoint, opts, connect=agency.transport._connect, name=agency.host_name):
                connects[name] += 1
                return connect(endpoint, opts)

            agency.transport._connect = counted
        try:
            in_flight = collections.deque()
            for _ in range(200):
                if len(in_flight) == 2:
                    assert a.wait(in_flight.popleft(), 1, 5).status == "completed"
                in_flight.append(launch(a, [b.bind, a.bind]))
            for agent_id in in_flight:
                assert a.wait(agent_id, 1, 5).status == "completed"
        finally:
            a.stop()
            b.stop()
        # A sends from the launching thread only. B sends each agent on, at most 2 at once, but
        # one agent's send may still be reading its ACK when the next hop there sends
        assert connects["a"] == 1 and 1 <= connects["b"] <= transport_module.HOP_WORKERS + 1


def reading_pair(entered, release):
    """``tcp_pair`` with a behavior held at B as ``held_behavior``'s; it also returns the
    threads that read B's transfers and the threads that ran B's hops, in order."""
    readers, runners = [], []

    def task(state, ctx):
        if ctx.host_name == "b":
            runners.append(threading.get_ident())
            if not release.is_set():
                entered.release()
                release.wait(10)

    a, b = (Agency(name, Endpoint("127.0.0.1", 0), SocketTransport(), TransportOpts(no_delay=True))
            for name in ("a", "b"))

    def recorded(frame, source, handle=b.handle_frame):
        if frame.kind == FrameKind.AGENT_TRANSFER:
            readers.append(threading.get_ident())
        return handle(frame, source)

    b.handle_frame = recorded  # before start(), which serves it
    for agency in (a, b):
        agency.start()
        agency.install_code(image("MAExample", b"h" * 64))
        agency.register_behavior("MAExample", Behavior("held", HELD_FIELDS, lambda state, ctx: None, task))
    return a, b, readers, runners


class TestHopsOnTheReadingThread:
    """Over TCP a hop runs on the thread that read its frame, after the reply, and a parked
    follower reads the connection on; the first hop, which makes the followers, goes to
    the hop threads."""

    def test_the_hop_runs_where_its_frame_was_read_and_the_connection_reads_on(self):
        entered, release = threading.Semaphore(0), threading.Event()
        a, b, readers, runners = reading_pair(entered, release)
        connects = []
        a.transport._connect = lambda endpoint, opts, connect=a.transport._connect: (
            connects.append(endpoint) or connect(endpoint, opts))
        try:
            release.set()
            assert a.wait(launch(a, [b.bind, a.bind]), 1, 5).status == "completed"
            assert readers[0] != runners[0]  # it found no follower: a hop thread ran it
            release.clear()
            first = launch(a, [b.bind, a.bind])
            assert entered.acquire(timeout=5)
            assert readers[1] == runners[1]
            second = launch(a, [b.bind, a.bind])  # ACKed while the first hop is held
            assert entered.acquire(timeout=5)
            assert readers[2] == runners[2] != runners[1]
            assert len(connects) == 1 and b._listener.open_connections == 1  # one pooled connection
            release.set()
            for agent_id in (first, second):
                assert a.wait(agent_id, 1, 5).status == "completed"
        finally:
            release.set()
            a.stop()
            b.stop()

    def test_crossing_traffic_cannot_stall(self):
        # each hop takes a little while, so that hops overlap with frames arriving both ways
        a, b = tcp_pair(Behavior("slow", HELD_FIELDS, lambda state, ctx: None,
                                 lambda state, ctx: time.sleep(0.002)))
        agents, lock = {}, threading.Lock()

        def launch_four(origin, itinerary):
            for _ in range(4):
                agent_id = launch(origin, itinerary)
                with lock:
                    agents[agent_id] = origin

        launchers = [threading.Thread(target=launch_four, args=(a, [b.bind, a.bind, b.bind, a.bind])),
                     threading.Thread(target=launch_four, args=(b, [a.bind, b.bind, a.bind, b.bind]))]
        try:
            deadline = time.monotonic() + 10
            for thread in launchers:
                thread.start()
            for thread in launchers:
                thread.join(10)
                assert not thread.is_alive()
            assert len(agents) == 8
            for agent_id, origin in agents.items():
                assert origin.wait(agent_id, 3, max(0.0, deadline - time.monotonic())).status == "completed"
            assert not a.failures and not b.failures
        finally:
            a.stop()
            b.stop()

    def test_a_frame_read_ahead_goes_with_the_connection_to_the_follower(self):
        entered, release = threading.Semaphore(0), threading.Event()
        a, b = tcp_pair(held_behavior("b", entered, release))
        try:
            release.set()
            assert a.wait(launch(a, [b.bind, a.bind]), 1, 5).status == "completed"  # makes B's followers
            release.clear()
            record = StateRecord(kind_name="MAExample", fields=HELD_FIELDS)
            record.set("it", [str(b.bind), str(a.bind)])
            agent_id = b"\x01" * 16
            payload = wire.AgentTransferPayload(agent_id, b.lookup_code("MAExample").digest, 0,
                                                wire.encode_state(record))
            with socket.create_connection(b.bind.key, timeout=5) as client:
                # one write: the transfer and a frame B refuses, read together at B
                transfer = Frame(FrameKind.AGENT_TRANSFER, payload.encode()).encoded()
                client.sendall(transfer + wire.ACK.encoded())
                assert transport_module.read_frame_bytes(client) == wire.ACK.encoded()
                assert entered.acquire(timeout=5)
                refusal = wire.decode_frame(transport_module.read_frame_bytes(client))
                assert not release.is_set()  # answered by the follower while the hop is held
                assert wire.ErrorPayload.decode(refusal.payload).code == wire.ERR_BAD_FRAME
            release.set()
            assert a.wait(agent_id, 1, 5).status == "completed"
        finally:
            release.set()
            a.stop()
            b.stop()

    def test_concurrent_hops_leave_every_count_as_they_found_it(self):
        interval = sys.getswitchinterval()
        a, b = tcp_pair(pingpong_behavior(HELD_FIELDS))
        agents, lock = [], threading.Lock()

        def launch_some():
            for _ in range(25):
                agent_id = launch(a, [b.bind, a.bind])
                with lock:
                    agents.append(agent_id)

        launchers = [threading.Thread(target=launch_some) for _ in range(4)]
        try:
            sys.setswitchinterval(1e-5)
            for thread in launchers:
                thread.start()
            for thread in launchers:
                thread.join(20)
                assert not thread.is_alive()
            for agent_id in agents:
                assert a.wait(agent_id, 1, 10).status == "completed"
            sys.setswitchinterval(interval)
            # a lost update would leave a hop counted, or a thread neither parked nor ended
            workers = transport_module.HOP_WORKERS
            for agency in (a, b):
                hops, listener = agency.transport._hops, agency._listener
                assert wait_until(lambda: hops._pending == 0 and len(hops._threads) == workers)
                assert wait_until(lambda: len(listener._parked) == workers)
        finally:
            sys.setswitchinterval(interval)
            a.stop()
            b.stop()
