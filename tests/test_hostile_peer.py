"""A seeded hostile-peer corpus at the frame boundary.

Valid frames of every kind an agency takes are mutated, 1-4 payload bytes
changed, inserted or deleted, and re-framed with a valid CRC, so each passes
the envelope check and reaches the agency's payload decoders. Each goes in
through ``_handle_raw``, the entry point both socket listeners and the modeled
network use. Only the stdlib ``random`` makes the corpus, so it is the same on
every run.
"""

import gc
import logging
import random
import time
import tracemalloc

from agentway import agency as agency_module
from agentway import wire
from agentway.agency import CodeImage
from agentway.transport import _handle_raw
from agentway.wire import FieldDescriptor, Frame, FrameKind, StateRecord, TypeTag
from conftest import Cluster

SEED = 20_000
MUTANTS_PER_KIND = 5000
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


def corpus(cluster: Cluster) -> list[tuple[FrameKind, bytes]]:
    """``MUTANTS_PER_KIND`` encoded frames per kind, the kinds taking turns."""
    rng = random.Random(SEED)
    seeds = corpus_seeds(cluster)
    frames = []
    for _ in range(MUTANTS_PER_KIND):
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

    internal, refused = [], 0
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
    assert len(frames) - refused > len(frames) // 20  # and past them
    assert growth < 64 * 1024, f"{growth} bytes held after the last {TRACED} frames"
    assert not caplog.records  # no handler failed
    print(f"{len(frames)} frames, {refused} refused, {growth} B grown, {elapsed:.2f} s")
