"""A seeded hostile-peer corpus at the frame boundary.

Valid frames of every kind an agency takes are mutated, 1-4 payload bytes
changed, inserted or deleted, and re-framed with a valid CRC, so each passes
the envelope check and reaches the agency's payload decoders. Each goes in
through ``_handle_raw``, the entry point both socket listeners and the modeled
network use, and part of the corpus also goes through a TCP listener. Only the
stdlib ``random`` makes the corpus, so it is the same on every run.
"""

import gc
import logging
import random
import socket
import threading
import time
import tracemalloc

from agentway import agency as agency_module
from agentway import wire
from agentway.agency import CodeImage
from agentway.transport import Endpoint, SocketTransport, _handle_raw, read_frame_bytes
from agentway.wire import FieldDescriptor, Frame, FrameKind, StateRecord, TypeTag
from conftest import Cluster

SEED = 20_000
MUTANTS_PER_KIND = 5000
SOCKET_MUTANTS_PER_KIND = 300  # the part of the corpus sent over one TCP connection
TRACED = 2000  # the last frames, sent once every bounded table has filled
KINDS = (FrameKind.AGENT_TRANSFER, FrameKind.CODE_PUSH, FrameKind.FORWARD_REQUEST, FrameKind.ERROR)
SCHEMA = [FieldDescriptor("it", TypeTag.STRING_ARRAY), FieldDescriptor("data", TypeTag.STRING_ARRAY)]
IMAGE = CodeImage.from_code("Fuzzed", b"\x5a" * 48)


def mutate(rng: random.Random, payload: bytes) -> bytes:
    """The payload with 1-4 bytes changed, inserted or deleted."""
    data = bytearray(payload)
    for _ in range(rng.randint(1, 4)):
        edit = rng.randrange(3)
        if edit == 0 and data:
            data[rng.randrange(len(data))] = rng.randrange(256)
        elif edit == 1:
            data.insert(rng.randrange(len(data) + 1), rng.randrange(256))
        elif data:
            del data[rng.randrange(len(data))]
    return bytes(data)


def corpus_seeds(cluster: Cluster) -> dict[FrameKind, list[tuple[bytes, int]]]:
    """Per kind, the valid (payload, flags) pairs the mutants are made from."""
    origin, receiver = cluster.endpoints
    record = StateRecord("Fuzzed", "FuzzPack", SCHEMA, {"it": [str(receiver), str(origin)], "data": ["x"]})
    state = wire.encode_state(record)
    agent_id = bytes(range(16))

    def transfer(state_bytes: bytes) -> bytes:
        return wire.AgentTransferPayload(agent_id, IMAGE.digest, 0, state_bytes).encode()

    targets = (wire.ForwardTarget(origin.address, origin.port, "seg"),
               wire.ForwardTarget("10.0.0.9", 9000, "seg"))
    return {
        FrameKind.AGENT_TRANSFER: [(transfer(state), 0),
                                   (transfer(wire.compress_payload(state)), wire.FLAG_COMPRESSED)],
        FrameKind.CODE_PUSH: [(wire.CodePushPayload(IMAGE.kind_name, IMAGE.digest, IMAGE.code).encode(), 0)],
        FrameKind.FORWARD_REQUEST: [
            (wire.ForwardRequestPayload(IMAGE.kind_name, IMAGE.digest, targets).encode(), 0)
        ],
        FrameKind.ERROR: [(wire.ErrorPayload(wire.ERR_INTERNAL, "hop failed", agent_id).encode(), 0)],
    }


def corpus(cluster: Cluster, per_kind: int = MUTANTS_PER_KIND) -> list[tuple[FrameKind, bytes]]:
    """``per_kind`` encoded frames per kind, the kinds taking turns."""
    rng = random.Random(SEED)
    seeds = corpus_seeds(cluster)
    frames = []
    for _ in range(per_kind):
        for kind in KINDS:
            payload, flags = rng.choice(seeds[kind])
            frames.append((kind, wire.encode_frame(Frame(kind, mutate(rng, payload), flags))))
    return frames


def test_no_mutant_gets_an_internal_error_or_leaves_anything_behind(caplog, monkeypatch):
    caplog.set_level(logging.ERROR)  # a logged warning is kept by the capture, not by the agency
    monkeypatch.setattr(agency_module, "HOP_LOG_RECORDS", 8)  # tables that fill early on
    monkeypatch.setattr(agency_module, "ITINERARY_TABLE_CHARS", 2048)
    cluster = Cluster(2)
    cluster.install_everywhere(IMAGE, SCHEMA)
    receiver = cluster.agency(1)
    source = cluster.endpoints[0].key
    deferred = []
    receiver.transport.defer = deferred.append  # the receiver's hops, run after each frame
    frames = corpus(cluster)

    def kept() -> tuple:
        return (len(receiver.hops), len(receiver.failures), len(receiver.completions),
                len(receiver.cache), receiver.cache.evictions, len(deferred),
                receiver.transport.total_stats().frames_sent)

    internal, refused, passed = [], 0, set()
    start = time.perf_counter()
    try:
        for n, (kind, data) in enumerate(frames):
            if n == len(frames) - TRACED:
                gc.collect()
                tracemalloc.start()
                traced_from = tracemalloc.get_traced_memory()[0]
            before = kept()
            reply = wire.decode_frame(_handle_raw(receiver.handle_frame, data, source))
            if reply.kind == FrameKind.ERROR:
                refused += 1
                nack = wire.ErrorPayload.decode(reply.payload)
                if nack.code == wire.ERR_INTERNAL:
                    internal.append((kind.name, nack.message))
                assert kept() == before, (kind.name, nack.message)
            else:
                passed.add(kind)
            for task in deferred:
                task()
            deferred.clear()
            cluster.network.run()
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - traced_from
    finally:
        tracemalloc.stop()
        cluster.stop()
    elapsed = time.perf_counter() - start
    assert internal == []
    assert refused > len(frames) // 2  # the corpus reaches the refusals
    # and past them, for every kind: 921 of the 20,000 are not refused, since a
    # mutant with bytes after its payload's last field is
    assert len(frames) - refused > len(frames) // 25 and passed == set(KINDS)
    assert growth < 64 * 1024, f"{growth} bytes held after the last {TRACED} frames"
    assert not caplog.records  # no handler failed
    print(f"{len(frames)} frames, {refused} refused, {growth} B grown, {elapsed:.2f} s")


def test_a_tcp_listener_answers_each_mutant_once_and_in_order_across_random_chunks():
    """Part of the corpus over one TCP connection, cut into seeded random chunks of
    1-300 bytes: each frame gets exactly one reply, in order, the one the same
    frame gets through ``_handle_raw`` at an agency in the same state."""
    direct, served = Cluster(2), Cluster(2)
    for cluster in (direct, served):
        cluster.install_everywhere(IMAGE, SCHEMA)
        cluster.agency(1).transport.defer = lambda task: None  # no hop runs: a reply rests on the frames alone
    frames = [data for _, data in corpus(direct, SOCKET_MUTANTS_PER_KIND)]
    source = direct.endpoints[0].key
    expected = [_handle_raw(direct.agency(1).handle_frame, data, source) for data in frames]
    stream, rng, chunks, pos = b"".join(frames), random.Random(SEED + 1), [], 0
    while pos < len(stream):
        size = rng.randint(1, 300)
        chunks.append(stream[pos:pos + size])
        pos += size

    before = set(threading.enumerate())
    transport = SocketTransport()
    listener = transport.serve(Endpoint("127.0.0.1", 0), served.agency(1).handle_frame)
    ep = Endpoint("127.0.0.1", listener.endpoint_port)
    try:
        with socket.create_connection(ep.key, timeout=10) as client:
            client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # each chunk its own segment
            writer = threading.Thread(target=lambda: [client.sendall(chunk) for chunk in chunks])
            writer.start()
            replies = [read_frame_bytes(client) for _ in frames]
            writer.join(10)
            client.shutdown(socket.SHUT_WR)
            assert client.recv(1) == b""  # nothing more than one reply per frame
        assert replies == expected
        codes = [wire.ErrorPayload.decode(reply.payload).code
                 for reply in map(wire.decode_frame, replies) if reply.kind == FrameKind.ERROR]
        assert wire.ERR_INTERNAL not in codes and len(codes) > len(frames) // 2
        push = Frame(FrameKind.CODE_PUSH, wire.CodePushPayload(IMAGE.kind_name, IMAGE.digest, IMAGE.code).encode())
        assert transport.send_frame(ep, push).ok  # a fresh client is served afterwards
    finally:
        transport.close()
        listener.close()
        direct.stop()
        served.stop()
    assert set(threading.enumerate()) - before == set()
