import hashlib
import random
import socket
import struct
import threading
import time
import zlib

import pytest

from agentway import agency as agency_module
from agentway import wire
from agentway.agency import (
    Agency,
    AgencyError,
    AdmissionError,
    CodeCache,
    CodeImage,
    collector_behavior,
    pingpong_behavior,
)
from agentway.transport import Endpoint, InProcNetwork, ModeledTransport, SocketTransport, TransportOpts
from agentway.wire import FieldDescriptor, Frame, FrameKind, StateRecord, TypeTag
from conftest import Cluster


def image(kind="A", code=b"code-A"):
    return CodeImage.from_code(kind, code)


class TestCodeImage:
    def test_digest_and_size(self):
        img = image("MA", b"\x01\x02\x03")
        assert img.digest == hashlib.sha256(b"\x01\x02\x03").digest()
        assert img.size_bytes == 3

    def test_verify_rejects_tampered_code(self):
        img = CodeImage("MA", hashlib.sha256(b"real").digest(), b"fake")
        with pytest.raises(AgencyError, match="digest"):
            img.verify()


class TestCodeCache:
    def test_install_into_empty_cache(self):
        cache = CodeCache(capacity=2)
        outcome = cache.install(image("A"))
        assert outcome.action == "stored" and outcome.evicted == ()

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
            state = wire.compress_payload(wire.encode_state(record), 6)
            payload = wire.AgentTransferPayload(b"\x07" * 16, img.digest, 0, state)
            frame = Frame(FrameKind.AGENT_TRANSFER, payload.encode(), wire.FLAG_COMPRESSED)
            instance = cluster.agency(1).admit_agent(frame)
            assert instance.state.values["it"] == ["10.0.0.2:9000", "10.0.0.1:9000"]
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


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def forward_request(img, *targets):
    request = wire.ForwardRequestPayload(
        img.kind_name, img.digest, tuple(wire.ForwardTarget("127.0.0.1", port, "seg") for port in targets)
    )
    return Frame(FrameKind.FORWARD_REQUEST, request.encode())


class TestRelayOverSockets:
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
