import collections
import dataclasses
import gc
import logging
import socket
import struct
import sys
import threading
import time
import warnings
from types import SimpleNamespace

import pytest

from agentway import transport as transport_module
from agentway import wire
from agentway.transport import (
    HOP_WORKERS,
    BusyError,
    Endpoint,
    InProcNetwork,
    Link,
    LinkModel,
    ModeledTransport,
    OversizeError,
    SocketTransport,
    TransportError,
    TransportOpts,
    parse_endpoint,
    read_frame_bytes,
)
from agentway.wire import Frame, FrameKind
from conftest import wait_until

LOOP = "127.0.0.1"


def ack_handler(frame, source):
    return Frame(FrameKind.ACK)


def serve_tcp(handler=ack_handler):
    transport = SocketTransport()
    listener = transport.serve(Endpoint(LOOP, 0), handler)
    return transport, listener, Endpoint(LOOP, listener.endpoint_port)


def kernel_timeouts(sock):
    """A socket's ``SO_RCVTIMEO`` and ``SO_SNDTIMEO``, in seconds."""
    return tuple(sec + usec / 1e6 for sec, usec in (
        struct.unpack("@ll", sock.getsockopt(socket.SOL_SOCKET, option, struct.calcsize("@ll")))
        for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO)))


class TestEndpoint:
    def test_hostname_rejected(self):
        with pytest.raises(ValueError, match="literal"):
            Endpoint("example.com", 80)

    def test_parse(self):
        ep = parse_endpoint("10.0.0.1:9000")
        assert (ep.address, ep.port) == ("10.0.0.1", 9000)

    def test_the_key_is_address_and_port_and_no_part_of_the_value(self):
        ep = Endpoint("10.0.0.1", 9000)
        assert ep.key == ("10.0.0.1", 9000)
        assert repr(ep) == "Endpoint(address='10.0.0.1', port=9000)"
        assert ep == Endpoint("10.0.0.1", 9000) and ep != Endpoint("10.0.0.1", 9001)
        assert hash(ep) == hash(("10.0.0.1", 9000))  # the compared fields, no key
        assert [f.name for f in dataclasses.fields(Endpoint) if f.init or f.repr or f.compare] == [
            "address", "port"]
        moved = dataclasses.replace(ep, port=9001)
        assert moved.key == ("10.0.0.1", 9001) and ep.key == ("10.0.0.1", 9000)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ep.port = 9001

    def test_the_text_is_made_once_and_str_returns_it(self):
        ep = Endpoint("10.0.0.1", 9000)
        assert ep.text == "10.0.0.1:9000" and str(ep) is ep.text
        assert dataclasses.replace(ep, port=9001).text == "10.0.0.1:9001"
        assert str(Endpoint("::1", 80)) == "::1:80" and parse_endpoint(ep.text) == ep


class TestTransportOpts:
    # 1e12 and 1e300 are finite but past what a socket's timeout holds (threading.TIMEOUT_MAX)
    @pytest.mark.parametrize("value", [0, -1.0, float("inf"), float("nan"), "5", 1e12, 1e300])
    def test_a_timeout_must_be_a_positive_finite_number(self, value):
        with pytest.raises(ValueError, match="^connect_timeout_s must be a positive finite number"):
            TransportOpts(connect_timeout_s=value)

    @pytest.mark.parametrize("protocol", ["udp", "UDP", "Tcp", "sctp", ""])
    def test_any_protocol_but_tcp_is_refused_with_one_message(self, protocol):
        with pytest.raises(ValueError) as info:
            TransportOpts(protocol=protocol)
        assert str(info.value) == f"protocol must be 'tcp', not {protocol!r}: UDP was removed"

    def test_protocol_is_taken_at_init_and_not_kept(self):
        opts = TransportOpts(protocol="tcp", compress=True)
        assert vars(opts) == {"no_delay": False, "compress": True, "connect_timeout_s": 5.0}
        assert repr(opts) == "TransportOpts(no_delay=False, compress=True, connect_timeout_s=5.0)"
        assert dataclasses.asdict(opts) == vars(opts)
        # replace passes the init-only default, so a copy is still a TCP opts
        assert dataclasses.replace(opts, no_delay=True) == TransportOpts(no_delay=True, compress=True)

    def test_the_removed_ack_timeout_is_no_keyword(self):
        with pytest.raises(TypeError, match="ack_timeout_s"):
            TransportOpts(ack_timeout_s=1.0)

    def test_sends_at_the_longest_timeout_a_socket_holds_succeed(self):
        opts = TransportOpts(connect_timeout_s=threading.TIMEOUT_MAX)
        transport, listener, endpoint = serve_tcp()
        try:
            for _ in range(2):  # a new connection, then the pooled one
                assert transport.send_frame(endpoint, Frame(FrameKind.ACK), opts).ok
        finally:
            listener.close()
            transport.close()


class TestLinkModel:
    def test_formula(self):
        model = LinkModel(10_000_000, 0.001)
        assert model.delay_s(1000) == pytest.approx(0.0018)

    def test_deterministic(self):
        model = LinkModel(64_000, 0.01)
        assert model.delay_s(4096) == model.delay_s(4096)


class TestModeledTransport:
    def test_ack_roundtrip_and_stats(self):
        net = InProcNetwork()
        a = ModeledTransport(net, Endpoint("10.0.0.1", 1))
        b = ModeledTransport(net, Endpoint("10.0.0.2", 1))
        seen = []
        b.serve(Endpoint("10.0.0.2", 1), lambda f, s: (seen.append(f), Frame(FrameKind.ACK))[1])
        receipt = a.send_frame(Endpoint("10.0.0.2", 1), Frame(FrameKind.ACK))
        assert receipt.ok and receipt.bytes_on_wire == 16
        assert seen == [Frame(FrameKind.ACK)]
        stats = a.link_stats(("10.0.0.2", 1))
        assert stats.bytes_sent == 16 and stats.code_bytes_sent == 0

    def test_modeled_delay_matches_formula_exactly(self):
        net = InProcNetwork()
        ep = Endpoint("10.0.0.2", 1)
        t = ModeledTransport(net, Endpoint("10.0.0.1", 1),
                             link_model=LinkModel(10_000_000, 0.001))
        t.serve(ep, ack_handler)
        frame = Frame(FrameKind.AGENT_TRANSFER, b"x" * (1000 - 16))  # 1000 bytes on the wire
        receipt = t.send_frame(ep, frame)
        assert receipt.bytes_on_wire == 1000
        assert receipt.send_duration_s == 0.001 + 8000 / 10_000_000
        # bit-identical across repeats
        assert t.send_frame(ep, frame).send_duration_s == receipt.send_duration_s
        # a link without a model leaves the transport's model in charge
        assert t.send_frame(ep, frame, link=Link("plain")).send_duration_s == receipt.send_duration_s
        # a link's own model wins over the transport's
        slow = Link("slow", model=LinkModel(64_000, 0.01))
        assert t.send_frame(ep, frame, link=slow).send_duration_s == 0.01 + 8000 / 64_000

    def test_tcp_frame_over_the_cap_rejected_without_side_effects(self, monkeypatch):
        monkeypatch.setattr(transport_module, "MAX_FRAME_BYTES", 1000)
        net = InProcNetwork()
        ep = Endpoint("10.0.0.2", 1)
        t = ModeledTransport(net, Endpoint("10.0.0.1", 1))
        seen = []
        t.serve(ep, lambda f, s: (seen.append(f), Frame(FrameKind.ACK))[1])
        assert t.send_frame(ep, Frame(FrameKind.AGENT_TRANSFER, b"x" * (1000 - 16))).ok
        with pytest.raises(OversizeError):
            t.send_frame(ep, Frame(FrameKind.AGENT_TRANSFER, b"x" * (1001 - 16)))
        assert len(seen) == t.link_stats(ep).frames_sent == 1

    def test_no_listener_is_connection_refused(self):
        t = ModeledTransport(InProcNetwork(), Endpoint("10.0.0.1", 1))
        with pytest.raises(TransportError, match="refused"):
            t.send_frame(Endpoint("10.0.0.9", 1), Frame(FrameKind.ACK))

    def test_code_and_state_byte_partition(self):
        net = InProcNetwork()
        ep = Endpoint("10.0.0.2", 1)
        t = ModeledTransport(net, Endpoint("10.0.0.1", 1))
        t.serve(ep, ack_handler)
        t.send_frame(ep, Frame(FrameKind.CODE_PUSH, b"c" * 1024))
        stats = t.link_stats(ep)
        assert stats.code_bytes_sent == 1024 and stats.state_bytes_sent == 0
        t.send_frame(ep, Frame(FrameKind.AGENT_TRANSFER, b"s" * 100))
        stats = t.link_stats(ep)
        assert stats.state_bytes_sent == 100
        assert stats.code_bytes_sent + stats.state_bytes_sent <= stats.bytes_sent

    def test_two_identical_sends_double_the_counters(self):
        net = InProcNetwork()
        ep = Endpoint("10.0.0.2", 1)
        t = ModeledTransport(net, Endpoint("10.0.0.1", 1))
        t.serve(ep, ack_handler)
        t.send_frame(ep, Frame(FrameKind.CODE_PUSH, b"c" * 50))
        single = t.link_stats(ep)
        t.send_frame(ep, Frame(FrameKind.CODE_PUSH, b"c" * 50))
        double = t.link_stats(ep)
        assert double.frames_sent == 2 * single.frames_sent
        assert double.bytes_sent == 2 * single.bytes_sent
        assert double.code_bytes_sent == 2 * single.code_bytes_sent

    def test_unknown_peer_has_zeroed_stats(self):
        t = ModeledTransport(InProcNetwork())
        stats = t.link_stats(("10.9.9.9", 1))
        assert stats.bytes_sent == 0 and stats.frames_sent == 0


class TestTaskQueue:
    """``InProcNetwork.defer`` and ``run`` share a deque and take no lock."""

    def test_tasks_deferred_from_eight_threads_each_run_once(self):
        net, ran, per_thread = InProcNetwork(), [], 2000

        def deferrer(n):
            for i in range(per_thread):
                net.defer(lambda key=(n, i): ran.append(key))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=deferrer, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30.0
            while len(ran) < 8 * per_thread and time.monotonic() < deadline:
                net.run()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert collections.Counter(ran) == {(n, i): 1 for n in range(8) for i in range(per_thread)}
        assert not net._tasks  # the last run() returned on an empty queue, and nothing came after

    def test_run_returns_only_once_the_queue_is_empty(self):
        net, ran = InProcNetwork(), []
        for i in range(100):
            net.defer(lambda i=i: ran.append(i))
        net.run()
        assert ran == list(range(100)) and not net._tasks
        net.run()  # an empty queue: nothing to run
        assert len(ran) == 100

    def test_a_task_deferred_by_a_running_task_runs_in_the_same_run(self):
        net, ran = InProcNetwork(), []

        def first():
            ran.append("first")
            net.defer(lambda: ran.append("second"))

        net.defer(first)
        net.run()
        assert ran == ["first", "second"] and not net._tasks

    def test_threads_draining_at_once_run_each_task_once(self):
        net, ran, errors, fed = InProcNetwork(), [], [], threading.Event()

        def drain():
            try:
                while not fed.is_set() or net._tasks:
                    net.run()
            except Exception as exc:  # an IndexError from a lost race; reported below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=drain) for _ in range(3)]
            for thread in threads:
                thread.start()
            for i in range(20_000):  # the drainers empty the queue again and again
                net.defer(lambda i=i: ran.append(i))
            fed.set()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert errors == [] and sorted(ran) == list(range(20_000)) and not net._tasks


def replying(raw: bytes):
    """A modeled transport and the endpoint of a handler that answers every frame with ``raw``."""
    t = ModeledTransport(InProcNetwork(), Endpoint("10.0.0.1", 1))
    ep = Endpoint("10.0.0.2", 1)
    t.serve(ep, lambda frame, source: SimpleNamespace(encoded=lambda: raw))
    return t, ep


class TestReplies:
    def test_a_plain_ack_is_known_by_its_bytes(self, monkeypatch):
        decoded = []
        decode = wire.decode_frame
        monkeypatch.setattr(wire, "decode_frame", lambda data: decoded.append(data) or decode(data))
        t, ep = replying(wire.encode_frame(Frame(FrameKind.ACK)))
        sent = Frame(FrameKind.AGENT_TRANSFER, b"state")
        receipt = t.send_frame(ep, sent)
        assert receipt.ok and receipt.reply is wire.ACK
        assert decoded == [sent.encoded()]  # the listener's decode of the frame; none of the reply

    def test_an_ack_with_a_crc_byte_flipped_is_refused(self):
        raw = bytearray(wire.ACK.encoded())
        raw[-1] ^= 0x01
        t, ep = replying(bytes(raw))
        with pytest.raises(wire.WireError, match="crc mismatch"):
            t.send_frame(ep, Frame(FrameKind.ACK))

    def test_an_ack_that_carries_forward_results_is_decoded(self):
        results = wire.encode_forward_results([wire.ForwardResult("10.0.1.2", 9000, True)])
        t, ep = replying(wire.encode_frame(Frame(FrameKind.ACK, results)))
        receipt = t.send_frame(ep, Frame(FrameKind.FORWARD_REQUEST, b""))
        assert receipt.ok and receipt.reply == Frame(FrameKind.ACK, results)


class TestTcpSockets:
    def test_ack_over_loopback(self):
        transport, listener, ep = serve_tcp()
        try:
            receipt = transport.send_frame(ep, Frame(FrameKind.ACK), TransportOpts(no_delay=True))
            assert receipt.ok and receipt.bytes_on_wire == 16
            assert transport.link_stats(ep).bytes_sent == 16
        finally:
            listener.close()
            transport.close()

    def test_handler_sees_equal_frame_once(self):
        seen = []

        def handler(frame, source):
            seen.append(frame)
            return Frame(FrameKind.ACK)

        transport, listener, ep = serve_tcp(handler)
        try:
            sent = Frame(FrameKind.AGENT_TRANSFER, b"hello state")
            assert transport.send_frame(ep, sent).ok
            assert seen == [sent]
        finally:
            listener.close()
            transport.close()

    def test_header_over_the_frame_cap_gets_error_reply_and_close(self):
        header = wire.MAGIC + bytes([wire.VERSION, FrameKind.AGENT_TRANSFER, 0, 0])
        header += struct.pack(">I", 0x7FFFFFFF)  # a payload length far over MAX_FRAME_BYTES
        transport, listener, ep = serve_tcp()
        try:
            with socket.create_connection(ep.key, timeout=5) as sock:
                sock.sendall(header)
                reply = wire.decode_frame(read_frame_bytes(sock))
                assert sock.recv(1) == b""  # closed: the stream cannot be resynchronised
            assert reply.kind == FrameKind.ERROR
            assert wire.ErrorPayload.decode(reply.payload).code == wire.ERR_BAD_FRAME
            assert transport.send_frame(ep, Frame(FrameKind.ACK)).ok
        finally:
            listener.close()
            transport.close()
        # a client refuses such a reply header the same way, before reading on
        ours, theirs = socket.socketpair()
        with ours, theirs:
            theirs.sendall(header)
            with pytest.raises(wire.WireError, match="exceeds"):
                read_frame_bytes(ours)

    def test_serving_a_taken_port_closes_the_socket_it_made(self):
        transport, listener, ep = serve_tcp()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                with pytest.raises(TransportError, match="cannot bind"):
                    transport.serve(ep, ack_handler)
                gc.collect()
            assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        finally:
            listener.close()
            transport.close()

    def test_garbage_gets_error_reply_and_listener_survives(self):

        transport, listener, ep = serve_tcp()
        try:
            with socket.create_connection((ep.address, ep.port), timeout=5) as sock:
                sock.sendall(b"GARBAGEGARBAGE")
                reply = wire.decode_frame(read_frame_bytes(sock))
            assert reply.kind == FrameKind.ERROR
            assert wire.ErrorPayload.decode(reply.payload).code == wire.ERR_BAD_FRAME
            # still serving
            assert transport.send_frame(ep, Frame(FrameKind.ACK)).ok
        finally:
            listener.close()
            transport.close()

    def test_two_concurrent_senders_100_frames_each(self):
        count = threading.Lock(), [0]

        def handler(frame, source):
            with count[0]:
                count[1][0] += 1
            return Frame(FrameKind.ACK)

        transport, listener, ep = serve_tcp(handler)

        def blast():
            with SocketTransport() as mine:
                for _ in range(100):
                    assert mine.send_frame(ep, Frame(FrameKind.ACK, b"ping")).ok

        try:
            threads = [threading.Thread(target=blast) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert count[1][0] == 200
        finally:
            listener.close()
            transport.close()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs all of 127/8 on loopback")
    @pytest.mark.parametrize("bind, targets", [("0.0.0.0", ("127.0.0.1", "127.0.0.2")),
                                               ("::", ("::1", "127.0.0.2"))])
    def test_a_wildcard_listener_answers_at_every_address_it_hears(self, bind, targets):
        transport = SocketTransport()
        try:
            listener = transport.serve(Endpoint(bind, 0), ack_handler)
        except TransportError as exc:
            pytest.skip(f"no {bind} here: {exc}")
        if bind == "::" and listener._sock.getsockopt(socket.IPPROTO_IPV6, socket.IPV6_V6ONLY):
            targets = targets[:1]  # an IPv6-only socket hears no IPv4 connection
        try:
            for address in targets:
                ep = Endpoint(address, listener.endpoint_port)
                for _ in range(2):  # a new connection to this address, then the pooled one
                    assert transport.send_frame(ep, Frame(FrameKind.ACK)).ok, address
                assert transport.link_stats(ep).frames_sent == 2
        finally:
            listener.close()
            transport.close()

    def test_a_frame_over_the_cap_is_refused_before_connecting(self, monkeypatch):
        monkeypatch.setattr(transport_module, "MAX_FRAME_BYTES", 1000)
        seen = []
        transport, listener, ep = serve_tcp(lambda f, s: (seen.append(f), Frame(FrameKind.ACK))[1])
        connects = []
        real_connect = transport._connect
        monkeypatch.setattr(transport, "_connect", lambda *a: connects.append(a) or real_connect(*a))
        try:
            with pytest.raises(OversizeError):
                transport.send_frame(ep, Frame(FrameKind.AGENT_TRANSFER, b"x" * (1001 - 16)))
            assert (connects, seen, transport.total_stats().frames_sent) == ([], [], 0)
            assert transport.send_frame(ep, Frame(FrameKind.AGENT_TRANSFER, b"x" * (1000 - 16))).ok
            assert (len(connects), len(seen), transport.total_stats().frames_sent) == (1, 1, 1)
        finally:
            listener.close()
            transport.close()

    def test_connection_refused(self):
        transport = SocketTransport()
        with pytest.raises(TransportError):
            transport.send_frame(Endpoint(LOOP, 1), Frame(FrameKind.ACK),
                                 TransportOpts(connect_timeout_s=1.0))

    def test_nack_surfaces_peer_error_code(self):
        def handler(frame, source):
            return Frame(FrameKind.ERROR, wire.ErrorPayload(wire.ERR_CODE_MISSING, "nope").encode())

        transport, listener, ep = serve_tcp(handler)
        try:
            receipt = transport.send_frame(ep, Frame(FrameKind.ACK))
            assert not receipt.ok
            assert receipt.error_code == wire.ERR_CODE_MISSING
            assert receipt.error_message == "nope"
        finally:
            listener.close()
            transport.close()

    def test_a_failing_handler_is_answered_and_logged_with_kind_and_source(self, caplog):
        def handler(frame, source):
            raise RuntimeError("boom")

        data = wire.encode_frame(Frame(FrameKind.CODE_PUSH, b"x"))
        reply = wire.decode_frame(transport_module._handle_raw(handler, data, ("10.0.0.7", 4242)))
        assert wire.ErrorPayload.decode(reply.payload).code == wire.ERR_INTERNAL
        [record] = [r for r in caplog.records if r.name == "agentway.transport"]
        assert record.levelno == logging.ERROR and record.exc_info is not None
        assert "CODE_PUSH" in record.getMessage() and "10.0.0.7" in record.getMessage()

    def test_byte_by_byte_buffering_still_delivers(self):
        seen = []

        def handler(frame, source):
            seen.append(frame)
            return Frame(FrameKind.ACK)

        transport, listener, ep = serve_tcp(handler)
        sent = Frame(FrameKind.AGENT_TRANSFER, b"x" * 300)
        try:
            with socket.create_connection(ep.key, timeout=5) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # each byte its own segment
                for byte in wire.encode_frame(sent):
                    assert sock.send(bytes([byte])) == 1
                reply = wire.decode_frame(read_frame_bytes(sock))
            assert reply.kind == FrameKind.ACK
            assert seen == [sent]
        finally:
            listener.close()
            transport.close()


def serve_modeled():
    net = InProcNetwork()
    transport = ModeledTransport(net, Endpoint("10.0.0.1", 1))
    ep = Endpoint("10.0.0.2", 1)
    return transport, transport.serve(ep, ack_handler), ep


class TestAccounting:
    def test_bytes_sent_equals_sum_of_success_receipts(self):
        for transport, listener, ep in (serve_tcp(), serve_modeled()):
            link = Link("a--b")
            try:
                total = 0
                for n in (0, 10, 100, 1000):
                    receipt = transport.send_frame(ep, Frame(FrameKind.AGENT_TRANSFER, b"q" * n), link=link)
                    assert receipt.ok
                    total += receipt.bytes_on_wire
                transport.send_frame(ep, Frame(FrameKind.CODE_PUSH, b"c" * 64), link=link)
                per_peer = transport.link_stats(ep)
                assert per_peer.bytes_sent == total + 80
                # the link's counters are written at the same site as the peer's
                assert link.stats == per_peer
                assert (per_peer.frames_sent, per_peer.state_bytes_sent, per_peer.code_bytes_sent) == (5, 1110, 64)
            finally:
                listener.close()
                transport.close()


class TestListenerClose:
    def test_close_ends_the_listener_thread(self, monkeypatch):
        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        # compare sets, not counts: a thread left by an earlier test may end meanwhile
        before = set(threading.enumerate())
        transport = SocketTransport()
        for _ in range(3):
            listener = transport.serve(Endpoint(LOOP, 0), ack_handler)
            assert len(set(threading.enumerate()) - before) == 1
            listener.close()
            assert set(threading.enumerate()) - before == set()
        listener.close()  # closing twice is harmless
        assert crashes == []  # each thread ended by returning, not by an exception

    def test_a_reply_in_hand_goes_out_at_close(self):
        entered, release = threading.Event(), threading.Event()

        def handler(frame, source):
            entered.set()
            release.wait(5)
            return Frame(FrameKind.ACK)

        transport = SocketTransport()
        listener = transport.serve(Endpoint(LOOP, 0), handler)
        closer = threading.Thread(target=listener.close)
        try:
            with socket.create_connection((LOOP, listener.endpoint_port), timeout=5) as client:
                client.sendall(wire.encode_frame(Frame(FrameKind.AGENT_TRANSFER, b"state")))
                assert entered.wait(5)
                closer.start()
                closer.join(0.2)  # close() has stopped the reading by now
                assert closer.is_alive()  # and waits for the handler
                release.set()
                reply = read_frame_bytes(client)
                assert wire.decode_frame(reply).kind == FrameKind.ACK  # the sender hears it was admitted
            closer.join(5)
            assert not closer.is_alive()
        finally:
            release.set()
            listener.close()
            transport.close()


class TestTcpConnections:
    def test_one_connection_carries_many_frames(self):
        sources = []

        def handler(frame, source):
            sources.append(source)
            return Frame(FrameKind.ACK)

        transport, listener, ep = serve_tcp(handler)
        try:
            for i in range(50):
                assert transport.send_frame(ep, Frame(FrameKind.AGENT_TRANSFER, b"x" * i)).ok
            assert len(sources) == 50 and len(set(sources)) == 1
            assert listener.open_connections == 1
        finally:
            listener.close()
            transport.close()

    def test_close_releases_idle_connections(self):
        transport, listener, ep = serve_tcp()
        try:
            assert transport.send_frame(ep, Frame(FrameKind.ACK)).ok
            assert listener.open_connections == 1
            transport.close()
            assert wait_until(lambda: listener.open_connections == 0)
            assert transport.send_frame(ep, Frame(FrameKind.ACK)).ok  # reconnects on demand
        finally:
            listener.close()
            transport.close()

    def test_rebound_listener_is_reached_on_a_fresh_connection(self):
        sources = []

        def handler(frame, source):
            sources.append(source)
            return Frame(FrameKind.ACK)

        transport, listener, ep = serve_tcp(handler)
        assert transport.send_frame(ep, Frame(FrameKind.ACK)).ok
        listener.close()  # the pooled connection's peer is gone
        listener = transport.serve(ep, handler)
        try:
            assert transport.send_frame(ep, Frame(FrameKind.ACK)).ok
            assert len(sources) == 2 and sources[0] != sources[1]
        finally:
            listener.close()
            transport.close()

    def test_stalled_peer_does_not_delay_another(self):
        transport, listener, ep = serve_tcp()
        try:
            with socket.create_connection(ep.key, timeout=5) as stalled:
                stalled.sendall(wire.encode_frame(Frame(FrameKind.ACK))[:5])
                start = time.monotonic()
                receipt = transport.send_frame(ep, Frame(FrameKind.ACK), TransportOpts(connect_timeout_s=2.0))
                assert receipt.ok and time.monotonic() - start < 1.0
        finally:
            listener.close()
            transport.close()

    def test_peer_closing_mid_frame_is_dropped_quietly(self, monkeypatch):
        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        transport, listener, ep = serve_tcp()
        try:
            with socket.create_connection(ep.key, timeout=5) as quitter:
                quitter.sendall(wire.encode_frame(Frame(FrameKind.ACK))[:5])
                assert wait_until(lambda: listener.open_connections == 1)
            assert wait_until(lambda: listener.open_connections == 0)
            assert transport.send_frame(ep, Frame(FrameKind.ACK)).ok
        finally:
            listener.close()
            transport.close()
        assert crashes == []

    def test_many_concurrent_clients_a_thread_each(self):
        before = set(threading.enumerate())
        handler_threads = set()

        def handler(frame, source):
            handler_threads.add(threading.current_thread())
            return Frame(FrameKind.ACK)

        transport, listener, ep = serve_tcp(handler)
        clients = []
        try:
            # 24 connections, every frame written before any reply is read
            for _ in range(24):
                clients.append(socket.create_connection(ep.key, timeout=5))
            for sock in clients:
                sock.sendall(wire.encode_frame(Frame(FrameKind.AGENT_TRANSFER, b"hop")))
            for sock in clients:
                assert wire.decode_frame(read_frame_bytes(sock)).kind == FrameKind.ACK
            assert listener.open_connections == 24
            started = set(threading.enumerate()) - before
            # one thread per open connection, which runs its handlers, and the acceptor
            assert len(started) <= listener.open_connections + 1
            assert len(handler_threads) == 24 and handler_threads < started
        finally:
            for sock in clients:
                sock.close()
            listener.close()
        assert set(threading.enumerate()) - before == set()

    def test_a_slow_reader_waits_on_its_own_connection_thread(self):
        """A client that reads nothing while it pipelines thousands of frames fills the
        connection's small buffers; its thread waits in the send until the client reads,
        then answers the frames still waiting, in order."""
        before = set(threading.enumerate())
        answered, handler_threads = [], set()

        def handler(frame, source):
            answered.append(frame)
            handler_threads.add(threading.current_thread())
            return Frame(FrameKind.ACK, struct.pack(">I", len(answered) - 1))

        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)  # accepted connections inherit it
        sock.bind((LOOP, 0))
        sock.listen(4)
        listener = transport_module._TcpListener(sock, handler)
        n = 3000
        frames = wire.encode_frame(Frame(FrameKind.AGENT_TRANSFER)) * n  # 16 bytes each
        with socket.socket() as client:
            client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1024)
            client.connect((LOOP, listener.endpoint_port))
            client.settimeout(5)
            writer = threading.Thread(target=client.sendall, args=(frames,))
            try:
                writer.start()
                writer.join(timeout=5)
                assert not writer.is_alive()
                replies = [wire.decode_frame(read_frame_bytes(client)) for _ in range(n)]
                started = set(threading.enumerate()) - before
                assert listener.open_connections == 1
                assert len(started) <= 2  # the connection's thread and the acceptor
                assert len(handler_threads) == 1 and handler_threads < started
            finally:
                listener.close()
                writer.join(timeout=5)
        assert set(threading.enumerate()) - before == set()
        assert all(reply.kind == FrameKind.ACK for reply in replies)
        assert [struct.unpack(">I", reply.payload)[0] for reply in replies] == list(range(n))

    def test_close_waits_for_a_handler_in_progress(self):
        entered, release = threading.Event(), threading.Event()

        def handler(frame, source):
            entered.set()
            release.wait(5)
            return Frame(FrameKind.ACK)

        before = set(threading.enumerate())
        transport, listener, ep = serve_tcp(handler)
        closer = threading.Thread(target=listener.close)
        try:
            with socket.create_connection(ep.key, timeout=5) as client:
                client.sendall(wire.encode_frame(Frame(FrameKind.ACK)))
                assert entered.wait(5)
                closer.start()
                closer.join(0.2)
                assert closer.is_alive()  # the connection's thread is still in the handler
                release.set()
                closer.join(5)
                assert not closer.is_alive()
        finally:
            release.set()
            listener.close()
            transport.close()
        assert set(threading.enumerate()) - before == set()

    def test_a_handler_may_close_its_own_listener(self):
        closed = threading.Event()

        def handler(frame, source):
            listener.close()
            closed.set()
            return Frame(FrameKind.ACK)

        before = set(threading.enumerate())
        transport, listener, ep = serve_tcp(handler)
        try:
            with socket.create_connection(ep.key, timeout=5) as client:
                client.sendall(wire.encode_frame(Frame(FrameKind.ACK)))
                while client.recv(16):  # the reply, if it went out before the shutdown, then the end
                    pass
            assert closed.wait(5)
            assert wait_until(lambda: set(threading.enumerate()) - before == set())
        finally:
            transport.close()

    def test_connection_beyond_the_cap_is_closed(self, monkeypatch):
        monkeypatch.setattr(transport_module, "MAX_CONNECTIONS", 2)
        transport, listener, ep = serve_tcp()
        clients = []
        try:
            for _ in range(3):
                clients.append(socket.create_connection(ep.key, timeout=5))
            frame = wire.encode_frame(Frame(FrameKind.ACK))
            for sock in clients[:2]:
                sock.sendall(frame)
                assert wire.decode_frame(read_frame_bytes(sock)).kind == FrameKind.ACK
            try:
                clients[2].sendall(frame)
                assert clients[2].recv(16) == b""
            except ConnectionResetError:
                pass
            assert listener.open_connections == 2
        finally:
            for sock in clients:
                sock.close()
            listener.close()

    def test_silent_connections_are_closed_so_a_full_table_frees_itself(self, monkeypatch):
        monkeypatch.setattr(transport_module, "MAX_CONNECTIONS", 3)
        monkeypatch.setattr(transport_module, "CONN_TIMEOUT_S", 0.4)
        transport, listener, ep = serve_tcp()
        silent = [socket.create_connection(ep.key, timeout=5) for _ in range(3)]
        try:
            silent[0].sendall(wire.encode_frame(Frame(FrameKind.ACK))[:5])  # one stalls mid-frame
            assert wait_until(lambda: listener.open_connections == 3)
            with socket.create_connection(ep.key, timeout=5) as refused:
                try:
                    assert refused.recv(16) == b""  # the table is full
                except ConnectionResetError:
                    pass
            assert wait_until(lambda: listener.open_connections == 0, timeout_s=3.0)
            for sock in silent:
                assert sock.recv(16) == b""  # closed by the listener
            assert transport.send_frame(ep, Frame(FrameKind.ACK)).ok
        finally:
            for sock in silent:
                sock.close()
            listener.close()
            transport.close()

    def test_connection_idle_past_half_the_timeout_is_not_reused(self, monkeypatch):
        monkeypatch.setattr(transport_module, "CONN_TIMEOUT_S", 10.0)
        sources = []

        def handler(frame, source):
            sources.append(source)
            return Frame(FrameKind.ACK)

        transport, listener, ep = serve_tcp(handler)
        try:
            assert transport.send_frame(ep, Frame(FrameKind.ACK)).ok
            monkeypatch.setattr(transport_module, "CONN_TIMEOUT_S", 0.1)
            time.sleep(0.1)  # the pooled connection is now idle for more than half the timeout
            assert transport.send_frame(ep, Frame(FrameKind.ACK)).ok
            assert sources[0] != sources[1]
        finally:
            listener.close()
            transport.close()

    def test_idle_connections_are_bounded_over_all_peers(self, monkeypatch):
        """One put past ``MAX_IDLE`` idle connections closes the one idle longest."""
        monkeypatch.setattr(transport_module, "MAX_IDLE", 2)
        server, transport = SocketTransport(), SocketTransport()
        listeners = [server.serve(Endpoint(LOOP, 0), ack_handler) for _ in range(4)]
        try:
            for port in (listener.endpoint_port for listener in listeners):
                assert transport.send_frame(Endpoint(LOOP, port), Frame(FrameKind.ACK)).ok
            assert [peer[1] for (peer, _), *_ in transport._idle] == [
                listener.endpoint_port for listener in listeners[2:]]
            assert wait_until(lambda: [listener.open_connections for listener in listeners] == [0, 0, 1, 1])
        finally:
            for listener in listeners:
                listener.close()
            transport.close()

    def test_concurrent_sends_keep_the_idle_bound_and_leave_no_connection_open(self, monkeypatch):
        monkeypatch.setattr(transport_module, "MAX_IDLE", 2)
        interval = sys.getswitchinterval()
        server, transport = SocketTransport(), SocketTransport()
        listeners = [server.serve(Endpoint(LOOP, 0), ack_handler) for _ in range(3)]
        eps = [Endpoint(LOOP, listener.endpoint_port) for listener in listeners]
        receipts = []

        def send(n):
            for i in range(30):
                receipts.append(transport.send_frame(eps[(n + i) % 3], Frame(FrameKind.ACK)))

        senders = [threading.Thread(target=send, args=(n,)) for n in range(4)]
        try:
            sys.setswitchinterval(1e-6)
            for thread in senders:
                thread.start()
            for thread in senders:
                thread.join(10)
                assert not thread.is_alive()
            sys.setswitchinterval(interval)
            assert len(receipts) == 120 and all(receipt.ok for receipt in receipts)
            assert len(transport._idle) <= 2
            # a connection not kept idle was closed: the listeners serve only the kept ones
            assert wait_until(lambda: sum(listener.open_connections for listener in listeners)
                              == len(transport._idle))
        finally:
            sys.setswitchinterval(interval)
            for listener in listeners:
                listener.close()
            transport.close()

    def test_close_during_a_send_closes_that_connection_after_it(self):
        transport = SocketTransport()
        entered, release = threading.Event(), threading.Event()

        def handler(frame, source):
            entered.set()
            release.wait(5)
            return Frame(FrameKind.ACK)

        listener = SocketTransport().serve(Endpoint(LOOP, 0), handler)
        ep = Endpoint(LOOP, listener.endpoint_port)
        receipts = []
        sender = threading.Thread(target=lambda: receipts.append(transport.send_frame(ep, Frame(FrameKind.ACK))))
        try:
            sender.start()
            assert entered.wait(5)
            transport.close()  # the send is in flight
            release.set()
            sender.join(5)
            assert receipts[0].ok
            assert transport._idle == []
            assert wait_until(lambda: listener.open_connections == 0)
        finally:
            release.set()
            sender.join(5)
            listener.close()


class _ArrivedBytes:
    """Stands in for a connected socket whose peer's bytes have all arrived, in ``parts``
    (one receive takes from one part only); keeps what each receive returned."""

    def __init__(self, *parts):
        self.parts, self.returned = [bytearray(part) for part in parts if part], []

    @property
    def data(self):
        return b"".join(self.parts)

    @property
    def recvs(self):
        return len(self.returned)

    def recv(self, n):
        chunk = bytes(self.parts[0][:n]) if self.parts else b""
        if self.parts:
            del self.parts[0][:n]
            if not self.parts[0]:
                del self.parts[0]
        self.returned.append(chunk)
        return chunk


class TestSystemCallBudget:
    """A pooled exchange: the sender polls once for liveness, sends once and receives
    once; the listener receives once and sends once. Each socket blocks with its
    timeouts in the kernel, so each of those is one system call."""

    def test_an_arrived_frame_is_read_in_one_receive_and_the_next_from_the_buffer(self):
        ack = wire.ACK.encoded()
        transfer = Frame(FrameKind.AGENT_TRANSFER, b"x" * 120).encoded()
        assert len(transfer) == 136
        buffer = bytearray()
        sock = _ArrivedBytes(ack)
        assert read_frame_bytes(sock, buffer) == ack and sock.recvs == 1
        sock = _ArrivedBytes(transfer + ack)
        assert read_frame_bytes(sock, buffer) == transfer and sock.recvs == 1
        assert read_frame_bytes(sock, buffer) == ack and sock.recvs == 1  # already in the buffer
        assert buffer == b"" and sock.data == b""
        sock = _ArrivedBytes(ack + transfer)  # without a buffer, exactly the frame is read
        assert read_frame_bytes(sock) == ack and sock.data == transfer

    def test_a_receive_of_exactly_one_frame_is_returned_as_it_came(self):
        transfer = Frame(FrameKind.AGENT_TRANSFER, b"x" * 120).encoded()
        buffer = bytearray()
        sock = _ArrivedBytes(transfer)
        assert read_frame_bytes(sock, buffer) is sock.returned[0]
        assert sock.recvs == 1 and buffer == b""

    def test_a_frame_and_a_half_leaves_the_half_in_the_buffer(self):
        transfer = Frame(FrameKind.AGENT_TRANSFER, b"x" * 120).encoded()
        half = transfer[:len(transfer) // 2]
        buffer = bytearray()
        sock = _ArrivedBytes(transfer + half, transfer[len(half):])
        assert read_frame_bytes(sock, buffer) == transfer and sock.recvs == 1
        assert buffer == half
        assert read_frame_bytes(sock, buffer) == transfer and sock.recvs == 2
        assert buffer == b"" and sock.data == b""

    def test_a_frame_cut_inside_its_header_is_read_whole(self):
        transfer = Frame(FrameKind.AGENT_TRANSFER, b"x" * 120).encoded()
        buffer = bytearray()
        sock = _ArrivedBytes(transfer[:5], transfer[5:])
        assert read_frame_bytes(sock, buffer) == transfer and sock.recvs == 2
        assert buffer == b""

    @pytest.mark.parametrize("first", [wire.HEADER_LEN, 4], ids=["whole-header", "cut-header"])
    def test_a_bad_magic_is_refused_before_the_body_is_read(self, first):
        transfer = bytearray(Frame(FrameKind.AGENT_TRANSFER, b"x" * 120).encoded())
        transfer[:4] = b"NOPE"
        sock = _ArrivedBytes(transfer[:first], transfer[first:wire.HEADER_LEN], transfer[wire.HEADER_LEN:])
        with pytest.raises(wire.WireError, match="bad magic"):
            read_frame_bytes(sock, bytearray())
        assert sock.data == transfer[wire.HEADER_LEN:]  # the body is still unread

    def test_a_pooled_send_sends_once_receives_once_and_sets_no_timeout(self, monkeypatch):
        transport, listener, ep = serve_tcp()
        try:
            assert transport.send_frame(ep, Frame(FrameKind.ACK)).ok
            [(_, pooled, _, _)] = transport._idle
            calls = []
            for name in ("recv", "send", "settimeout", "gettimeout", "setsockopt"):
                def counted(sock, *args, _name=name, _method=getattr(socket.socket, name)):
                    if sock is pooled:
                        calls.append(_name)
                    return _method(sock, *args)

                monkeypatch.setattr(socket.socket, name, counted)
            assert transport.send_frame(ep, Frame(FrameKind.ACK)).ok
            assert calls == ["send", "recv"]
            # another connect_timeout_s on the same connection sets its two kernel timeouts once
            assert transport.send_frame(ep, Frame(FrameKind.ACK), TransportOpts(connect_timeout_s=2.0)).ok
            assert calls[2:] == ["setsockopt", "setsockopt", "send", "recv"]
            assert kernel_timeouts(pooled) == (2.0, 2.0)
            assert listener.open_connections == 1
        finally:
            listener.close()
            transport.close()

    def test_bytes_past_a_reply_close_the_connection(self):
        server = socket.create_server((LOOP, 0))
        server.settimeout(5)
        accepted = []

        def answer_with_junk():
            for _ in range(2):
                conn, _ = server.accept()
                accepted.append(conn)
                conn.settimeout(5)
                read_frame_bytes(conn)
                conn.sendall(wire.ACK.encoded() + b"junk")  # one write: the reply and its junk arrive together

        thread = threading.Thread(target=answer_with_junk, daemon=True)
        transport = SocketTransport()
        ep = Endpoint(LOOP, server.getsockname()[1])
        try:
            thread.start()
            receipt = transport.send_frame(ep, Frame(FrameKind.AGENT_TRANSFER, b"state"))
            assert receipt.ok and receipt.reply is wire.ACK
            assert transport._idle == []
            assert transport.send_frame(ep, Frame(FrameKind.ACK)).ok
            thread.join(5)
            assert len(accepted) == 2  # the second send opened a new connection
        finally:
            transport.close()
            server.close()
            thread.join(5)
            for conn in accepted:
                conn.close()


class TestStillOpen:
    """The liveness poll leaves the socket's mode and its kernel timeouts alone."""

    def connected(self):
        with socket.create_server((LOOP, 0)) as server:
            client = socket.create_connection(server.getsockname(), timeout=5)
            client.settimeout(None)
            transport_module._set_timeouts(client, 5.0)
            return client, server.accept()[0]

    def test_an_idle_open_connection_is_open_and_keeps_its_timeout(self):
        client, peer = self.connected()
        with client, peer:
            assert transport_module._still_open(client)
            assert client.gettimeout() is None and kernel_timeouts(client) == (5.0, 5.0)

    @pytest.mark.parametrize("peer_does", ["close", "write"])
    def test_a_connection_the_peer_closed_or_wrote_to_is_not_open(self, peer_does):
        client, peer = self.connected()
        with client, peer:
            if peer_does == "close":
                peer.close()
            else:
                peer.sendall(b"x")
            assert wait_until(lambda: not transport_module._still_open(client))
            assert client.gettimeout() is None and kernel_timeouts(client) == (5.0, 5.0)


class TestKernelTimeouts:
    """Every TCP connection blocks, with its timeout in the kernel; running out still reads as a timeout."""

    def test_every_served_and_pooled_connection_blocks_with_its_kernel_timeouts(self):
        transport, listener, ep = serve_tcp()
        other = SocketTransport()
        try:
            assert transport.send_frame(ep, Frame(FrameKind.ACK)).ok
            assert other.send_frame(ep, Frame(FrameKind.ACK), TransportOpts(connect_timeout_s=2.0)).ok
            served = list(listener._conns)
            assert len(served) == 2
            for sock in served:
                assert sock.gettimeout() is None
                assert kernel_timeouts(sock) == (transport_module.CONN_TIMEOUT_S,) * 2
            for client, timeout_s in ((transport, 5.0), (other, 2.0)):
                [(_, pooled, _, kept)] = client._idle
                assert pooled.gettimeout() is None
                assert kernel_timeouts(pooled) == (timeout_s, timeout_s) and kept == timeout_s
            assert transport.send_frame(ep, Frame(FrameKind.ACK), TransportOpts(connect_timeout_s=3.0)).ok
            [(_, pooled, _, kept)] = transport._idle
            assert kernel_timeouts(pooled) == (3.0, 3.0) and kept == 3.0
        finally:
            listener.close()
            transport.close()
            other.close()

    def test_a_timeout_under_a_microsecond_is_not_set_as_none(self):
        transport, listener, ep = serve_tcp()
        try:
            assert transport.send_frame(ep, Frame(FrameKind.ACK)).ok
            [(_, pooled, _, _)] = transport._idle
            transport_module._set_timeouts(pooled, 1e-9)
            assert 0 < kernel_timeouts(pooled)[0] <= 0.01  # one clock tick, where zero would wait forever
        finally:
            listener.close()
            transport.close()

    @pytest.mark.parametrize("payload_bytes", [0, 12 << 20], ids=["reply-never-sent", "frame-never-read"])
    def test_a_peer_that_never_answers_fails_the_send_as_a_timeout(self, payload_bytes):
        server = socket.create_server((LOOP, 0))
        server.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)  # accepted connections inherit it
        accepted = []
        acceptor = threading.Thread(target=lambda: accepted.append(server.accept()[0]), daemon=True)
        transport = SocketTransport()
        ep = Endpoint(LOOP, server.getsockname()[1])
        frame = Frame(FrameKind.AGENT_TRANSFER, bytes(payload_bytes))
        try:
            acceptor.start()
            start = time.monotonic()
            with pytest.raises(TransportError, match=r"tcp send to .* failed: timed out after 0.2 s$"):
                transport.send_frame(ep, frame, TransportOpts(connect_timeout_s=0.2))
            assert time.monotonic() - start < (1.0 if payload_bytes == 0 else 2.0)
            assert transport._idle == []
        finally:
            transport.close()
            acceptor.join(5)
            server.close()
            for conn in accepted:
                conn.close()

    def test_a_served_connection_silent_past_its_timeout_is_closed_and_logged(self, monkeypatch, caplog):
        monkeypatch.setattr(transport_module, "CONN_TIMEOUT_S", 0.3)
        caplog.set_level(logging.DEBUG, logger="agentway.transport")
        transport, listener, ep = serve_tcp()
        try:
            with socket.create_connection(ep.key, timeout=5) as silent:
                assert wait_until(lambda: listener.open_connections == 1)
                assert wait_until(lambda: listener.open_connections == 0, timeout_s=3.0)
                assert silent.recv(16) == b""  # closed by the listener
            assert any("silent for 0.3 s" in record.getMessage() for record in caplog.records
                       if record.name == "agentway.transport" and record.levelno == logging.DEBUG)
        finally:
            listener.close()
            transport.close()


class TestHopWorkers:
    """``SocketTransport.defer`` runs tasks on ``HOP_WORKERS`` kept threads, one more per
    task that finds every thread busy up to ``MAX_HOP_THREADS``, then a bounded queue."""

    def hold_the_threads(self, transport, n=HOP_WORKERS):
        """Defer ``n`` tasks that wait on the returned event; return once each runs."""
        entered, release = threading.Semaphore(0), threading.Event()

        def hold():
            entered.release()
            release.wait(5)

        for _ in range(n):  # one at a time: the queue may hold a single task
            transport.defer(hold)
            assert entered.acquire(timeout=5)
        return release

    def test_a_raising_task_is_reported_and_its_worker_runs_the_next(self, monkeypatch):
        monkeypatch.setattr(transport_module, "MAX_HOP_THREADS", HOP_WORKERS)
        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        before = set(threading.enumerate())
        transport, ran = SocketTransport(), threading.Event()

        def boom():
            raise ValueError("task failed")

        try:
            for _ in range(HOP_WORKERS + 1):  # more than the workers: one of them survives a raise
                transport.defer(boom)
            transport.defer(ran.set)
            assert ran.wait(5)
            workers = set(threading.enumerate()) - before
        finally:
            transport.close()
        assert [type(crash.exc_value) for crash in crashes] == [ValueError] * (HOP_WORKERS + 1)
        assert {crash.thread for crash in crashes} <= workers and len(workers) == HOP_WORKERS
        assert set(threading.enumerate()) - before == set()

    def test_a_task_that_finds_every_thread_busy_starts_one_more(self, monkeypatch):
        monkeypatch.setattr(transport_module, "MAX_HOP_THREADS", HOP_WORKERS + 1)
        before = set(threading.enumerate())
        transport, first, second = SocketTransport(), threading.Event(), threading.Event()
        release = self.hold_the_threads(transport)
        try:
            transport.defer(first.set)  # every worker is held: a thread of its own runs it
            assert first.wait(5)
            assert wait_until(lambda: len(set(threading.enumerate()) - before) == HOP_WORKERS)
            release.set()
            release = self.hold_the_threads(transport, HOP_WORKERS + 1)
            transport.defer(second.set)  # MAX_HOP_THREADS are held: it waits in the queue
            assert not second.wait(0.2)
            assert len(set(threading.enumerate()) - before) == HOP_WORKERS + 1
        finally:
            release.set()
        assert second.wait(5)
        transport.close()
        assert set(threading.enumerate()) - before == set()

    def test_concurrent_defers_run_each_admitted_task_once_and_the_counts_return(self):
        interval = sys.getswitchinterval()
        transport, lock, ran, refused = SocketTransport(), threading.Lock(), collections.Counter(), []

        def task(key):
            with lock:
                ran[key] += 1
            time.sleep(0.0001)

        def submit(n):
            for i in range(200):
                try:
                    transport.defer(lambda key=(n, i): task(key))
                except BusyError:
                    refused.append((n, i))

        submitters = [threading.Thread(target=submit, args=(n,)) for n in range(4)]
        try:
            sys.setswitchinterval(1e-6)
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(10)
                assert not thread.is_alive()
            hops = transport._hops
            # a lost update to the count of tasks in hand would leave it above 0, or an extra thread
            assert wait_until(lambda: hops._pending == 0 and len(hops._threads) == HOP_WORKERS)
        finally:
            sys.setswitchinterval(interval)
            transport.close()
        assert len(ran) + len(refused) == 800 and set(ran.values()) == {1}
        assert not set(ran) & set(refused)

    def test_a_full_queue_refuses_a_task_busy(self, monkeypatch):
        monkeypatch.setattr(transport_module, "MAX_HOP_THREADS", HOP_WORKERS)
        monkeypatch.setattr(transport_module, "MAX_QUEUED_HOPS", 1)
        transport, ran = SocketTransport(), []
        release = self.hold_the_threads(transport)
        try:
            transport.defer(lambda: ran.append("queued"))
            with pytest.raises(BusyError):
                transport.defer(lambda: ran.append("refused"))
        finally:
            release.set()
            transport.close()
        assert ran == ["queued"]

    def test_close_runs_the_queued_tasks_then_ends_every_worker(self, monkeypatch):
        monkeypatch.setattr(transport_module, "MAX_HOP_THREADS", HOP_WORKERS)
        before = set(threading.enumerate())
        transport, ran = SocketTransport(), []
        release = self.hold_the_threads(transport)
        for i in range(5):
            transport.defer(lambda i=i: ran.append(i))
        closer = threading.Thread(target=transport.close)
        try:
            closer.start()
            closer.join(0.2)
            assert closer.is_alive() and ran == []  # it waits for the held workers
        finally:
            release.set()
            closer.join(5)
        assert not closer.is_alive()
        assert sorted(ran) == list(range(5))
        assert set(threading.enumerate()) - before == set()

    def test_close_waits_at_most_close_wait_s_then_the_threads_end_on_their_own(self, monkeypatch, caplog):
        monkeypatch.setattr(transport_module, "MAX_HOP_THREADS", HOP_WORKERS)
        monkeypatch.setattr(transport_module, "CLOSE_WAIT_S", 0.2)
        before = set(threading.enumerate())
        transport, ran = SocketTransport(), threading.Event()
        release = self.hold_the_threads(transport)
        transport.defer(ran.set)
        try:
            start = time.monotonic()
            with caplog.at_level(logging.WARNING, logger="agentway.transport"):
                transport.close()
            assert time.monotonic() - start < 1.0 and not ran.is_set()
            assert f"{HOP_WORKERS} hop threads still busy" in caplog.text
        finally:
            release.set()
        assert ran.wait(5)  # the task queued before close() still runs
        assert wait_until(lambda: set(threading.enumerate()) - before == set())

    def test_after_close_a_defer_is_refused_and_a_send_keeps_nothing(self):
        transport, listener, ep = serve_tcp()
        before, ran = set(threading.enumerate()), threading.Event()
        try:
            transport.defer(ran.set)
            assert ran.wait(5)
            assert len(set(threading.enumerate()) - before) == HOP_WORKERS
            transport.close()
            assert set(threading.enumerate()) - before == set()
            with pytest.raises(TransportError, match="closed"):
                transport.defer(ran.set)
            assert set(threading.enumerate()) - before == set()  # no thread started for it
            assert transport.send_frame(ep, Frame(FrameKind.ACK)).ok
            assert transport._idle == []
        finally:
            listener.close()
            transport.close()

    def test_close_from_a_worker_returns_without_joining_itself(self):
        before = set(threading.enumerate())
        transport, closed = SocketTransport(), threading.Event()

        def close_here():
            transport.close()
            closed.set()

        transport.defer(close_here)
        assert closed.wait(5)
        assert wait_until(lambda: set(threading.enumerate()) - before == set())
