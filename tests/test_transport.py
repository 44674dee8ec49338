import gc
import logging
import socket
import struct
import threading
import time
import warnings

import pytest

from agentway import transport as transport_module
from agentway import wire
from agentway.transport import (
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

LOOP = "127.0.0.1"


def ack_handler(frame, source):
    return Frame(FrameKind.ACK)


def serve_tcp(handler=ack_handler):
    transport = SocketTransport()
    listener = transport.serve(Endpoint(LOOP, 0, "tcp"), handler)
    return transport, listener, Endpoint(LOOP, listener.endpoint_port, "tcp")


class TestEndpoint:
    def test_hostname_rejected(self):
        with pytest.raises(ValueError, match="literal"):
            Endpoint("example.com", 80)

    def test_parse(self):
        ep = parse_endpoint("10.0.0.1:9000", "udp")
        assert (ep.address, ep.port, ep.protocol) == ("10.0.0.1", 9000, "udp")


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
        a = ModeledTransport(net, Endpoint("10.0.0.1", 1, "tcp"))
        b = ModeledTransport(net, Endpoint("10.0.0.2", 1, "tcp"))
        seen = []
        b.serve(Endpoint("10.0.0.2", 1, "tcp"), lambda f, s: (seen.append(f), Frame(FrameKind.ACK))[1])
        receipt = a.send_frame(Endpoint("10.0.0.2", 1, "tcp"), Frame(FrameKind.ACK))
        assert receipt.ok and receipt.bytes_on_wire == 16
        assert seen == [Frame(FrameKind.ACK)]
        stats = a.link_stats(("10.0.0.2", 1))
        assert stats.bytes_sent == 16 and stats.code_bytes_sent == 0

    def test_modeled_delay_matches_formula_exactly(self):
        net = InProcNetwork()
        ep = Endpoint("10.0.0.2", 1, "tcp")
        t = ModeledTransport(net, Endpoint("10.0.0.1", 1, "tcp"),
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

    def test_udp_oversize_rejected_without_side_effects(self):
        net = InProcNetwork()
        ep = Endpoint("10.0.0.2", 1, "udp")
        t = ModeledTransport(net, Endpoint("10.0.0.1", 1, "udp"))
        t.serve(ep, ack_handler)
        with pytest.raises(OversizeError):
            t.send_frame(ep, Frame(FrameKind.AGENT_TRANSFER, b"x" * 70000))
        assert t.link_stats(ep).frames_sent == 0

    def test_tcp_frame_over_the_cap_rejected_without_side_effects(self, monkeypatch):
        monkeypatch.setattr(transport_module, "MAX_FRAME_BYTES", 1000)
        net = InProcNetwork()
        ep = Endpoint("10.0.0.2", 1, "tcp")
        t = ModeledTransport(net, Endpoint("10.0.0.1", 1, "tcp"))
        seen = []
        t.serve(ep, lambda f, s: (seen.append(f), Frame(FrameKind.ACK))[1])
        assert t.send_frame(ep, Frame(FrameKind.AGENT_TRANSFER, b"x" * (1000 - 16))).ok
        with pytest.raises(OversizeError):
            t.send_frame(ep, Frame(FrameKind.AGENT_TRANSFER, b"x" * (1001 - 16)))
        assert len(seen) == t.link_stats(ep).frames_sent == 1

    def test_no_listener_is_connection_refused(self):
        t = ModeledTransport(InProcNetwork(), Endpoint("10.0.0.1", 1, "tcp"))
        with pytest.raises(TransportError, match="refused"):
            t.send_frame(Endpoint("10.0.0.9", 1, "tcp"), Frame(FrameKind.ACK))

    def test_code_and_state_byte_partition(self):
        net = InProcNetwork()
        ep = Endpoint("10.0.0.2", 1, "tcp")
        t = ModeledTransport(net, Endpoint("10.0.0.1", 1, "tcp"))
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
        ep = Endpoint("10.0.0.2", 1, "tcp")
        t = ModeledTransport(net, Endpoint("10.0.0.1", 1, "tcp"))
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

    def test_connection_refused(self):
        transport = SocketTransport()
        with pytest.raises(TransportError):
            transport.send_frame(Endpoint(LOOP, 1, "tcp"), Frame(FrameKind.ACK),
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


class TestUdpSockets:
    def test_ack_over_loopback(self):
        transport = SocketTransport()
        opts = TransportOpts(protocol="udp")
        listener = transport.serve(Endpoint(LOOP, 0, "udp"), ack_handler)
        ep = Endpoint(LOOP, listener.endpoint_port, "udp")
        try:
            receipt = transport.send_frame(ep, Frame(FrameKind.AGENT_TRANSFER, b"state"), opts)
            assert receipt.ok
        finally:
            listener.close()

    def test_oversize_rejected_before_sending(self):
        transport = SocketTransport()
        with pytest.raises(OversizeError):
            transport.send_frame(Endpoint(LOOP, 9, "udp"),
                                 Frame(FrameKind.AGENT_TRANSFER, b"x" * 70000),
                                 TransportOpts(protocol="udp"))
        assert transport.total_stats().frames_sent == 0

    def test_silent_peer_times_out_after_retransmission(self):
        transport = SocketTransport()
        opts = TransportOpts(protocol="udp", ack_timeout_s=0.05)

        def mute(frame, source):
            raise SystemExit  # never replies


        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind((LOOP, 0))  # bound but nobody reads: no ICMP, no reply
        port = sock.getsockname()[1]
        try:
            with pytest.raises(TransportError):
                transport.send_frame(Endpoint(LOOP, port, "udp"), Frame(FrameKind.ACK), opts)
        finally:
            sock.close()

    def test_malformed_datagram_gets_error_and_listener_survives(self):

        transport = SocketTransport()
        opts = TransportOpts(protocol="udp")
        listener = transport.serve(Endpoint(LOOP, 0, "udp"), ack_handler)
        ep = Endpoint(LOOP, listener.endpoint_port, "udp")
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.settimeout(5)
                sock.sendto(b"junk", (ep.address, ep.port))
                reply, _ = sock.recvfrom(65535)
            assert wire.decode_frame(reply).kind == FrameKind.ERROR
            assert transport.send_frame(ep, Frame(FrameKind.ACK), opts).ok
        finally:
            listener.close()


def serve_modeled():
    net = InProcNetwork()
    transport = ModeledTransport(net, Endpoint("10.0.0.1", 1, "tcp"))
    ep = Endpoint("10.0.0.2", 1, "tcp")
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
        for protocol in ("tcp", "udp", "tcp", "udp", "tcp", "udp"):
            opts = TransportOpts(protocol=protocol)
            listener = transport.serve(Endpoint(LOOP, 0, protocol), ack_handler)
            if protocol == "udp":  # a UDP handler runs on the listener's own thread
                ep = Endpoint(LOOP, listener.endpoint_port, "udp")
                assert transport.send_frame(ep, Frame(FrameKind.ACK), opts).ok
            assert len(set(threading.enumerate()) - before) == 1
            listener.close()
            assert set(threading.enumerate()) - before == set()
        listener.close()  # closing twice is harmless
        assert crashes == []  # each thread ended by returning, not by an exception


def wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


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

    def test_close_during_a_send_closes_that_connection_after_it(self):
        transport = SocketTransport()
        entered, release = threading.Event(), threading.Event()

        def handler(frame, source):
            entered.set()
            release.wait(5)
            return Frame(FrameKind.ACK)

        listener = SocketTransport().serve(Endpoint(LOOP, 0, "tcp"), handler)
        ep = Endpoint(LOOP, listener.endpoint_port, "tcp")
        receipts = []
        sender = threading.Thread(target=lambda: receipts.append(transport.send_frame(ep, Frame(FrameKind.ACK))))
        try:
            sender.start()
            assert entered.wait(5)
            transport.close()  # the send is in flight
            release.set()
            sender.join(5)
            assert receipts[0].ok
            assert transport._idle == {}
            assert wait_until(lambda: listener.open_connections == 0)
        finally:
            release.set()
            sender.join(5)
            listener.close()
