"""Frame movement between agencies: real TCP/UDP sockets or a modeled link.

Both transports speak the same framing; the modeled transport replaces
socket I/O with computed delays so timing results are machine-independent
while exercising identical codec paths.
"""

from __future__ import annotations

import ipaddress
import logging
import selectors
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import wire
from .wire import Frame, FrameKind

log = logging.getLogger(__name__)

UDP_MAX_PAYLOAD = 65507

Handler = Callable[[Frame, tuple], Frame]


class TransportError(Exception):
    pass


class OversizeError(TransportError):
    pass


@dataclass(frozen=True)
class Endpoint:
    address: str
    port: int
    protocol: str = "tcp"

    def __post_init__(self) -> None:
        # addresses are literals; name resolution happens once, upstream
        try:
            ipaddress.ip_address(self.address)
        except ValueError as exc:
            raise ValueError(f"endpoint address must be an IP literal: {self.address!r}") from exc
        if not 0 <= self.port <= 0xFFFF:
            raise ValueError(f"port out of range: {self.port}")
        if self.protocol not in ("tcp", "udp"):
            raise ValueError(f"protocol must be 'tcp' or 'udp': {self.protocol!r}")

    @property
    def key(self) -> tuple[str, int]:
        return (self.address, self.port)

    def __str__(self) -> str:
        return f"{self.address}:{self.port}"


def parse_endpoint(text: str, protocol: str = "tcp") -> Endpoint:
    host, sep, port = text.rpartition(":")
    if not sep:
        raise ValueError(f"endpoint must look like 'address:port': {text!r}")
    return Endpoint(host, int(port), protocol)


@dataclass
class TransportOpts:
    protocol: str = "tcp"
    no_delay: bool = False  # TCP only
    buffer_size: int = 8192
    compress: bool = False
    compress_level: int = 6
    ack_timeout_s: float = 0.5  # UDP: one retransmission after this, then error
    connect_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if not 0 <= self.compress_level <= 9:
            raise ValueError("compress_level must be 0-9")


@dataclass(frozen=True)
class LinkModel:
    bandwidth_bits_per_s: float
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.bandwidth_bits_per_s > 0:
            raise ValueError("bandwidth must be > 0")
        if self.latency_s < 0:
            raise ValueError("latency must be >= 0")

    def delay_s(self, n_bytes: int) -> float:
        return self.latency_s + (8.0 * n_bytes) / self.bandwidth_bits_per_s


@dataclass
class LinkStats:
    frames_sent: int = 0
    bytes_sent: int = 0
    code_bytes_sent: int = 0
    state_bytes_sent: int = 0

    def record(self, kind: FrameKind, frame_bytes: int, payload_bytes: int) -> None:
        self.frames_sent += 1
        self.bytes_sent += frame_bytes
        if kind == FrameKind.CODE_PUSH:
            self.code_bytes_sent += payload_bytes
        elif kind == FrameKind.AGENT_TRANSFER:
            self.state_bytes_sent += payload_bytes

    def snapshot(self) -> "LinkStats":
        return LinkStats(self.frames_sent, self.bytes_sent, self.code_bytes_sent, self.state_bytes_sent)


@dataclass
class Link:
    """A topology link: its own send counters and, optionally, its own delay model."""

    link_id: str
    stats: LinkStats = field(default_factory=LinkStats)
    model: Optional[LinkModel] = None


class StatsRegistry:
    """Per-peer send counters, safe to update and read from any thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_peer: dict[tuple[str, int], LinkStats] = {}

    def record(self, peer: tuple[str, int], link: Optional[Link], frame: Frame, frame_bytes: int) -> None:
        """The one place a sent frame is counted: per peer, and on its link if it has one."""
        with self._lock:
            self._by_peer.setdefault(peer, LinkStats()).record(frame.kind, frame_bytes, len(frame.payload))
            if link is not None:
                link.stats.record(frame.kind, frame_bytes, len(frame.payload))

    def for_peer(self, peer: tuple[str, int]) -> LinkStats:
        with self._lock:
            stats = self._by_peer.get(peer)
            return stats.snapshot() if stats else LinkStats()

    def total(self) -> LinkStats:
        with self._lock:
            out = LinkStats()
            for stats in self._by_peer.values():
                out.frames_sent += stats.frames_sent
                out.bytes_sent += stats.bytes_sent
                out.code_bytes_sent += stats.code_bytes_sent
                out.state_bytes_sent += stats.state_bytes_sent
            return out


@dataclass
class Receipt:
    bytes_on_wire: int
    send_duration_s: float
    ack_status: str  # "ack" | "error"
    error_code: int = 0
    error_message: str = ""
    reply: Optional[Frame] = None

    @property
    def ok(self) -> bool:
        return self.ack_status == "ack"


def _reply_to_receipt(reply: Frame, bytes_on_wire: int, duration_s: float) -> Receipt:
    if reply.kind == FrameKind.ERROR:
        err = wire.ErrorPayload.decode(reply.payload)
        return Receipt(bytes_on_wire, duration_s, "error", err.code, err.message, reply)
    return Receipt(bytes_on_wire, duration_s, "ack", reply=reply)


def _error_reply(code: int, message: str) -> bytes:
    return wire.encode_frame(Frame(FrameKind.ERROR, wire.ErrorPayload(code, message).encode()))


def _handle_raw(handler: Handler, data: bytes, source: tuple) -> bytes:
    try:
        frame = wire.decode_frame(data)
    except wire.WireError as exc:
        return _error_reply(wire.ERR_BAD_FRAME, str(exc))
    try:
        return wire.encode_frame(handler(frame, source))
    except Exception as exc:  # handler errors become ERROR frames, never crashes
        return _error_reply(wire.ERR_INTERNAL, f"handler failed: {exc}")


class _Transport:
    """The send path both transports share. A subclass supplies ``_exchange``,
    which moves the encoded frame and returns the reply and the send's duration."""

    def __init__(self, stats: StatsRegistry) -> None:
        self.stats = stats

    def send_frame(
        self,
        endpoint: Endpoint,
        frame: Frame,
        opts: Optional[TransportOpts] = None,
        link: Optional[Link] = None,
    ) -> Receipt:
        """Encode once, refuse an oversize frame or datagram before any side effect,
        exchange, count the frame once, and turn the reply into a Receipt."""
        data = wire.encode_frame(frame)
        limit = UDP_MAX_PAYLOAD if endpoint.protocol == "udp" else MAX_FRAME_BYTES
        if len(data) > limit:
            raise OversizeError(
                f"frame of {len(data)} bytes exceeds the {endpoint.protocol} limit of {limit}"
            )
        reply_bytes, duration_s = self._exchange(endpoint, data, opts, link)
        self.stats.record(endpoint.key, link, frame, len(data))
        return _reply_to_receipt(wire.decode_frame(reply_bytes), len(data), duration_s)

    def link_stats(self, peer: Endpoint | tuple[str, int]) -> LinkStats:
        return self.stats.for_peer(peer.key if isinstance(peer, Endpoint) else peer)

    def total_stats(self) -> LinkStats:
        return self.stats.total()

    def close(self) -> None:
        """Release what the transport holds between sends; the modeled one holds nothing."""

    def __enter__(self) -> "_Transport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# in-process modeled transport


class InProcNetwork:
    """In-process frame fabric: registered listeners, a deferred-task queue,
    shared per-peer stats, and optional frame taps for instrumentation."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._handlers: dict[tuple[str, int], Handler] = {}
        self._tasks: deque[Callable[[], None]] = deque()
        self.stats = StatsRegistry()
        self._taps: list[Callable[[tuple[str, int], Frame], None]] = []

    def register(self, key: tuple[str, int], handler: Handler) -> None:
        with self._lock:
            if key in self._handlers:
                raise TransportError(f"address already bound: {key}")
            self._handlers[key] = handler

    def unregister(self, key: tuple[str, int]) -> None:
        with self._lock:
            self._handlers.pop(key, None)

    def add_tap(self, fn: Callable[[tuple[str, int], Frame], None]) -> None:
        self._taps.append(fn)

    def deliver(self, key: tuple[str, int], data: bytes, source: tuple) -> bytes:
        with self._lock:
            handler = self._handlers.get(key)
            if handler is None:
                raise TransportError(f"connection refused: no listener at {key}")
            if self._taps:
                frame = wire.decode_frame(data)
                for tap in self._taps:
                    tap(key, frame)
            return _handle_raw(handler, data, source)

    def defer(self, fn: Callable[[], None]) -> None:
        with self._lock:
            self._tasks.append(fn)

    def run(self) -> None:
        """Drain deferred tasks (agent hops and the like) until idle."""
        while True:
            with self._lock:
                if not self._tasks:
                    return
                task = self._tasks.popleft()
            task()


class _InProcListener:
    def __init__(self, network: InProcNetwork, key: tuple[str, int]) -> None:
        self._network = network
        self._key = key
        self.endpoint_port = key[1]

    def close(self) -> None:
        self._network.unregister(self._key)


class ModeledTransport(_Transport):
    """Delivers frames synchronously inside one process, recording deterministic
    modeled delays instead of performing socket I/O. A send's delay comes from
    its link's model if it has one, else from this transport's ``link_model``."""

    def __init__(
        self,
        network: InProcNetwork,
        local: Optional[Endpoint] = None,
        link_model: Optional[LinkModel] = None,
    ) -> None:
        super().__init__(network.stats)
        self.network = network
        self.local = local
        self.link_model = link_model

    # in each class's own namespace, so one transport's sends can be wrapped apart
    send_frame = _Transport.send_frame

    def _exchange(
        self, endpoint: Endpoint, data: bytes, opts: Optional[TransportOpts], link: Optional[Link]
    ) -> tuple[bytes, float]:
        model = link.model if link is not None and link.model is not None else self.link_model
        source = self.local.key if self.local else ("0.0.0.0", 0)
        reply_bytes = self.network.deliver(endpoint.key, data, source)
        return reply_bytes, model.delay_s(len(data)) if model else 0.0

    def serve(self, bind: Endpoint, opts: TransportOpts, handler: Handler) -> _InProcListener:
        self.network.register(bind.key, handler)
        return _InProcListener(self.network, bind.key)

    def defer(self, fn: Callable[[], None]) -> None:
        self.network.defer(fn)


# ---------------------------------------------------------------------------
# real sockets

MAX_IDLE_PER_PEER = 4  # idle TCP connections a SocketTransport keeps per (peer, no_delay)
MAX_CONNECTIONS = 64  # accepted TCP connections one listener serves at once
MAX_FRAME_BYTES = 16 * 1024 * 1024  # longest TCP frame, envelope included, sent or read
CONN_TIMEOUT_S = 30.0  # a served connection silent this long, idle or mid-frame, is closed
# kinds whose handler sends frames itself (a relay forwarding code): never run on the listener thread
_OFFLOADED_KINDS = frozenset({int(FrameKind.FORWARD_REQUEST)})
_HEADER_BYTES = 12
_RECV_BYTES = 65536


def _frame_end(header: bytes | bytearray) -> int:
    """Length of the whole frame that starts with this 12-byte header, magic and
    ``MAX_FRAME_BYTES`` checked, so no peer makes a reader buffer more."""
    if header[:4] != wire.MAGIC:
        raise wire.WireError(f"bad magic {bytes(header[:4])!r}")
    end = _HEADER_BYTES + struct.unpack_from(">I", header, 8)[0] + 4  # + CRC
    if end > MAX_FRAME_BYTES:
        raise wire.WireError(f"frame of {end} bytes exceeds the limit of {MAX_FRAME_BYTES}")
    return end


def _read_exactly(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise TransportError(f"connection closed after {len(buf)}/{n} bytes")
        buf += chunk
    return bytes(buf)


def read_frame_bytes(sock: socket.socket) -> bytes:
    """Read one complete frame off a TCP stream, validating the header first."""
    header = _read_exactly(sock, _HEADER_BYTES)
    return header + _read_exactly(sock, _frame_end(header) - _HEADER_BYTES)


def _send_buffered(sock: socket.socket, data: bytes, buffer_size: int) -> None:
    for off in range(0, len(data), buffer_size):
        sock.sendall(data[off : off + buffer_size])


def _still_open(sock: socket.socket) -> bool:
    """An idle connection is fit to carry a frame only while nothing can be read
    from it: a peer that closed it makes it readable (end of stream)."""
    sock.settimeout(0)
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return True
    except OSError:
        return False
    return False  # end of stream, or bytes nobody asked for


class _SocketListener:
    """A bound socket served by one thread; ``close`` wakes that thread and
    waits for it, and the thread closes what it served on its way out."""

    def __init__(self, sock: socket.socket, handler: Handler) -> None:
        self._sock = sock
        self._handler = handler
        self._closed = threading.Event()
        self.endpoint_port = sock.getsockname()[1]
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._closed.set()
        try:
            # closing alone leaves accept/select/recvfrom blocked; shutdown wakes them.
            # An unconnected UDP socket raises ENOTCONN here but is woken all the same.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if threading.current_thread() is not self._thread:  # a handler may close its own listener
            self._thread.join()


@dataclass(slots=True)
class _Conn:
    """An accepted connection: bytes received and not yet framed, reply bytes not
    yet sent, when it last moved a byte, and whether a reply is being made off
    the listener thread."""

    sock: socket.socket
    addr: tuple
    last_active: float
    inbox: bytearray = field(default_factory=bytearray)
    outbox: bytes = b""
    pending: bool = False


_WAKE = "wake"  # selector data of the socket that off-thread handlers write to


class _TcpListener(_SocketListener):
    """One thread serves the listening socket and every accepted connection.

    A selector says which sockets are ready. A connection carries any number
    of frames; the thread answers its complete frames in arrival order and runs
    the handler inline, so handlers run on this thread. The exception is a
    frame of a kind in ``_OFFLOADED_KINDS``: its handler sends frames itself
    (a relay forwarding code), so it runs on a thread of its own, and the
    connection is answered, and read on, when that thread is done. A peer that
    stalls mid-frame holds up nobody: its bytes wait in its own buffer. A
    connection whose reply cannot be written at once is not read again until
    the reply is out. At most ``MAX_CONNECTIONS`` connections are open at once
    (``open_connections``, written by this thread only); one accepted beyond
    that is closed at once. A connection that moves no byte for
    ``CONN_TIMEOUT_S``, idle or stalled mid-frame, is closed, so silent peers
    cannot keep the table full.
    """

    def __init__(self, sock: socket.socket, handler: Handler) -> None:
        sock.setblocking(False)
        self._done: deque[tuple[_Conn, bytes]] = deque()  # replies made off this thread
        self._wake: Optional[socket.socket] = None  # the pair off-thread handlers wake this thread by
        self._waker: Optional[socket.socket] = None
        self._selector = selectors.DefaultSelector()
        self._selector.register(sock, selectors.EVENT_READ)
        self.open_connections = 0
        super().__init__(sock, handler)

    def _loop(self) -> None:
        next_sweep = 0.0
        try:
            while not self._closed.is_set():
                for key, events in self._selector.select(CONN_TIMEOUT_S / 4):
                    if key.data is None:
                        self._accept()
                    elif key.data is _WAKE:
                        self._finish_offloaded()
                    else:
                        self._service(key.data, events)
                now = time.monotonic()
                if now >= next_sweep:
                    next_sweep = now + CONN_TIMEOUT_S / 4
                    self._sweep(now)
        finally:  # the listening socket, the wake pair and every connection
            for key in list(self._selector.get_map().values()):
                key.fileobj.close()
            self._selector.close()
            if self._waker is not None:
                self._waker.close()

    def _accept(self) -> None:
        try:
            sock, addr = self._sock.accept()
        except OSError:  # the peer gave up before we got to it, or close() shut the socket
            return
        if self.open_connections >= MAX_CONNECTIONS:
            log.warning("listener on port %d: %d connections open, closing one from %s",
                        self.endpoint_port, self.open_connections, addr)
            sock.close()
            return
        sock.setblocking(False)
        self._selector.register(sock, selectors.EVENT_READ, _Conn(sock, addr, time.monotonic()))
        self.open_connections += 1

    def _drop(self, conn: _Conn) -> None:
        self._selector.unregister(conn.sock)
        conn.sock.close()
        self.open_connections -= 1

    def _sweep(self, now: float) -> None:
        """Close every connection that has moved no byte for ``CONN_TIMEOUT_S``
        and is not waiting on an off-thread handler."""
        for key in list(self._selector.get_map().values()):
            conn = key.data
            if isinstance(conn, _Conn) and not conn.pending and now - conn.last_active > CONN_TIMEOUT_S:
                log.debug("listener on port %d: closing connection from %s, silent for %.0f s",
                          self.endpoint_port, conn.addr, now - conn.last_active)
                self._drop(conn)

    def _service(self, conn: _Conn, events: int) -> None:
        if events & selectors.EVENT_WRITE:
            if not self._send(conn, conn.outbox):
                return
        else:
            try:
                chunk = conn.sock.recv(_RECV_BYTES)
            except BlockingIOError:
                return
            except OSError:
                chunk = b""
            if not chunk:  # the peer closed, perhaps mid-frame: there is nobody to answer
                self._drop(conn)
                return
            conn.inbox += chunk
            conn.last_active = time.monotonic()
        self._answer(conn)

    def _answer(self, conn: _Conn) -> None:
        """Answer complete frames in arrival order until a reply cannot be written
        at once or is being made off this thread."""
        inbox = conn.inbox
        while not conn.pending and len(inbox) >= _HEADER_BYTES:
            try:
                end = _frame_end(inbox)
            except wire.WireError as exc:  # the stream cannot be resynchronised: answer, then close
                try:
                    conn.sock.send(_error_reply(wire.ERR_BAD_FRAME, str(exc)))
                except OSError:
                    pass
                self._drop(conn)
                return
            if len(inbox) < end:
                return
            data = bytes(inbox[:end])
            del inbox[:end]
            if data[5] in _OFFLOADED_KINDS:  # the kind byte
                self._offload(conn, data)
                return
            if not self._send(conn, _handle_raw(self._handler, data, conn.addr)):
                return

    def _offload(self, conn: _Conn, data: bytes) -> None:
        """Handle one frame on a thread of its own. The wake pair is made on first
        use: one per listener measurably slows setting up an agency."""
        if self._waker is None:
            self._wake, self._waker = socket.socketpair()
            self._wake.setblocking(False)
            self._waker.setblocking(False)
            self._selector.register(self._wake, selectors.EVENT_READ, _WAKE)
        conn.pending = True
        threading.Thread(target=self._handle_offloaded, args=(conn, data), daemon=True).start()

    def _handle_offloaded(self, conn: _Conn, data: bytes) -> None:
        self._done.append((conn, _handle_raw(self._handler, data, conn.addr)))
        try:
            self._waker.send(b"\0")
        except OSError:  # a wake byte is already waiting, or the listener has closed
            pass

    def _finish_offloaded(self) -> None:
        try:
            self._wake.recv(4096)
        except OSError:
            pass
        while self._done:
            conn, reply = self._done.popleft()
            conn.pending = False
            if conn.sock.fileno() < 0:  # the peer closed while it waited
                continue
            conn.last_active = time.monotonic()
            if self._send(conn, reply):
                self._answer(conn)

    def _send(self, conn: _Conn, data: bytes) -> bool:
        """Write what the socket takes now; True when nothing is left over.
        A leftover is kept, and the connection waits for writability instead of input."""
        try:
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._drop(conn)
            return False
        if sent:
            conn.last_active = time.monotonic()
        left = data[sent:]
        if bool(left) != bool(conn.outbox):
            self._selector.modify(conn.sock, selectors.EVENT_WRITE if left else selectors.EVENT_READ, conn)
        conn.outbox = left
        return not left


class _UdpListener(_SocketListener):
    def _loop(self) -> None:
        with self._sock:
            while True:
                try:
                    data, addr = self._sock.recvfrom(65535)
                except OSError:
                    return
                if self._closed.is_set():  # woken by close(): addr is None, nobody to answer
                    return
                try:
                    self._sock.sendto(_handle_raw(self._handler, data, addr), addr)
                except OSError:
                    pass


class SocketTransport(_Transport):
    """Frames over real sockets, one ACK/ERROR back for each.

    TCP connections are reused: a connection carries one frame at a time, its
    reply read before the connection joins the idle set kept per
    (peer, ``no_delay``), at most ``MAX_IDLE_PER_PEER`` of them. An idle
    connection is taken again only if the peer has not closed it meanwhile and
    it has been idle for less than half of ``CONN_TIMEOUT_S``, so it is never
    written just as the peer's listener closes it for silence. A frame is never
    written twice: a failure after the write is a ``TransportError``, so a hop
    runs at most once. UDP sends one datagram per frame, with one retransmission.
    """

    def __init__(self) -> None:
        super().__init__(StatsRegistry())
        self._idle_lock = threading.Lock()
        self._idle: dict[tuple, list[tuple[socket.socket, float]]] = {}  # (socket, idle since)
        self._generation = 0  # close() counts up; a connection taken before is not kept

    send_frame = _Transport.send_frame  # see ModeledTransport

    def close(self) -> None:
        """Close the idle connections, and each connection in use once its send
        is done; a later send connects afresh."""
        with self._idle_lock:
            idle, self._idle = self._idle, {}
            self._generation += 1
        for entries in idle.values():
            for sock, _ in entries:
                sock.close()

    def _exchange(
        self, endpoint: Endpoint, data: bytes, opts: Optional[TransportOpts], link: Optional[Link]
    ) -> tuple[bytes, float]:
        opts = opts or TransportOpts(protocol=endpoint.protocol)
        exchange = self._send_udp if endpoint.protocol == "udp" else self._send_tcp
        start = time.perf_counter()
        reply_bytes = exchange(endpoint, data, opts)
        return reply_bytes, time.perf_counter() - start

    def _take_idle(self, key: tuple) -> tuple[Optional[socket.socket], int]:
        """An idle connection fit for use, or None; and the generation it is taken in."""
        while True:
            with self._idle_lock:
                generation = self._generation
                idle = self._idle.get(key)
                if not idle:
                    return None, generation
                sock, since = idle.pop()
                if not idle:
                    del self._idle[key]
            if time.monotonic() - since < CONN_TIMEOUT_S / 2 and _still_open(sock):
                return sock, generation
            sock.close()

    def _put_idle(self, key: tuple, sock: socket.socket, generation: int) -> None:
        with self._idle_lock:
            if generation == self._generation:
                idle = self._idle.setdefault(key, [])
                if len(idle) < MAX_IDLE_PER_PEER:
                    idle.append((sock, time.monotonic()))
                    return
        sock.close()

    def _connect(self, endpoint: Endpoint, opts: TransportOpts) -> socket.socket:
        try:
            sock = socket.create_connection(endpoint.key, timeout=opts.connect_timeout_s)
        except OSError as exc:
            raise TransportError(f"tcp connect to {endpoint} failed: {exc}") from exc
        if opts.no_delay:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _send_tcp(self, endpoint: Endpoint, data: bytes, opts: TransportOpts) -> bytes:
        key = (endpoint.key, opts.no_delay)
        sock, generation = self._take_idle(key)
        sock = sock or self._connect(endpoint, opts)
        try:
            sock.settimeout(opts.connect_timeout_s)
            _send_buffered(sock, data, opts.buffer_size)
            reply = read_frame_bytes(sock)
        except OSError as exc:
            sock.close()
            raise TransportError(f"tcp send to {endpoint} failed: {exc}") from exc
        except BaseException:  # a reply cut short or malformed leaves the stream out of step
            sock.close()
            raise
        self._put_idle(key, sock, generation)
        return reply

    def _send_udp(self, endpoint: Endpoint, data: bytes, opts: TransportOpts) -> bytes:
        family = socket.AF_INET6 if ":" in endpoint.address else socket.AF_INET
        with socket.socket(family, socket.SOCK_DGRAM) as sock:
            sock.settimeout(opts.ack_timeout_s)
            for attempt in range(2):  # one retransmission, then error
                try:
                    sock.sendto(data, endpoint.key)
                    reply, _ = sock.recvfrom(65535)
                    return reply
                except socket.timeout:
                    continue
                except OSError as exc:
                    raise TransportError(f"udp send to {endpoint} failed: {exc}") from exc
        raise TransportError(f"no ack from {endpoint} after retransmission")

    def serve(self, bind: Endpoint, opts: TransportOpts, handler: Handler):
        family = socket.AF_INET6 if ":" in bind.address else socket.AF_INET
        udp = bind.protocol == "udp"
        sock = None
        try:
            sock = socket.socket(family, socket.SOCK_DGRAM if udp else socket.SOCK_STREAM)
            if not udp:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(bind.key)
            if not udp:
                sock.listen(32)
        except OSError as exc:
            if sock is not None:
                sock.close()
            raise TransportError(f"cannot bind {bind}: {exc}") from exc
        return _UdpListener(sock, handler) if udp else _TcpListener(sock, handler)

    def defer(self, fn: Callable[[], None]) -> None:
        threading.Thread(target=fn, daemon=True).start()
