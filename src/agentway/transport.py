"""Frame movement between agencies: real TCP/UDP sockets or a modeled link.

Both transports speak the same framing; the modeled transport replaces
socket I/O with computed delays so timing results are machine-independent
while exercising identical codec paths.
"""

from __future__ import annotations

import ipaddress
import logging
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import wire
from .wire import MAX_FRAME_BYTES, Frame, FrameKind

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
    protocol: str = "tcp"  # for parsing addresses (CLI, bench); an Endpoint carries its own
    no_delay: bool = False  # TCP only
    compress: bool = False
    ack_timeout_s: float = 0.5  # UDP: one retransmission after this, then error
    connect_timeout_s: float = 5.0  # TCP: also bounds each wait for the peer to take or send bytes


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
    reply: Frame
    error_code: int = 0  # an ERROR reply's code and message
    error_message: str = ""

    @property
    def ok(self) -> bool:
        return self.reply.kind == FrameKind.ACK


def _handle_raw(handler: Handler, data: bytes, source: tuple) -> bytes:
    try:
        frame = wire.decode_frame(data)
    except wire.WireError as exc:
        return wire.nack(wire.ERR_BAD_FRAME, str(exc)).encoded()
    try:
        return handler(frame, source).encoded()
    except Exception as exc:  # handler errors become ERROR frames, never crashes
        log.exception("handler failed on a %s frame from %s", frame.kind.name, source)
        return wire.nack(wire.ERR_INTERNAL, f"handler failed: {exc}").encoded()


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
        """Encode the frame once for all its sends, refuse an oversize frame or
        datagram before any side effect, exchange, count the frame once, and
        turn the reply into a Receipt."""
        data = frame.encoded()
        limit = UDP_MAX_PAYLOAD if endpoint.protocol == "udp" else MAX_FRAME_BYTES
        if len(data) > limit:
            raise OversizeError(
                f"frame of {len(data)} bytes exceeds the {endpoint.protocol} limit of {limit}"
            )
        reply_bytes, duration_s = self._exchange(endpoint, data, opts, link)
        self.stats.record(endpoint.key, link, frame, len(data))
        reply = wire.decode_frame(reply_bytes)
        if reply.kind == FrameKind.ERROR:
            err = wire.ErrorPayload.decode(reply.payload)
            return Receipt(len(data), duration_s, reply, err.code, err.message)
        return Receipt(len(data), duration_s, reply)

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

    def serve(self, bind: Endpoint, handler: Handler) -> _InProcListener:
        self.network.register(bind.key, handler)
        return _InProcListener(self.network, bind.key)

    def defer(self, fn: Callable[[], None]) -> None:
        self.network.defer(fn)


# ---------------------------------------------------------------------------
# real sockets

MAX_IDLE_PER_PEER = 4  # idle TCP connections a SocketTransport keeps per (peer, no_delay)
MAX_CONNECTIONS = 64  # accepted TCP connections one listener serves at once
CONN_TIMEOUT_S = 30.0  # a served connection's socket timeout: silent this long, idle or mid-frame, it is closed
_HEADER_BYTES = 12


def _frame_end(header: bytes) -> int:
    """Length of the whole frame that starts with this 12-byte header, magic and
    ``MAX_FRAME_BYTES`` checked, so no peer makes a reader buffer more."""
    if header[:4] != wire.MAGIC:
        raise wire.WireError(f"bad magic {header[:4]!r}")
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


def _send_whole(sock: socket.socket, data: bytes) -> None:
    """Hand the kernel all of the frame it will take at each call: a frame cut
    into writes waits on the peer's delayed ACK. The socket's timeout bounds
    each call, not the whole frame, as in ``_read_exactly``."""
    view = memoryview(data)
    while view:
        view = view[sock.send(view):]


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
            # closing alone leaves accept/recvfrom blocked; shutdown wakes them.
            # An unconnected UDP socket raises ENOTCONN here but is woken all the same.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if threading.current_thread() is not self._thread:  # a handler may close its own listener
            self._thread.join()


class _TcpListener(_SocketListener):
    """One thread accepts connections, and each accepted connection is served on
    a thread of its own, which reads a frame, answers it and reads the next.

    So a connection's frames are answered in arrival order, its handlers run on
    its thread, and a peer that stalls, does not read its replies, or sends a
    frame whose handler sends frames itself (a relay forwarding code) holds up
    only its own connection. At most ``MAX_CONNECTIONS`` connections are open
    at once (``open_connections``); one accepted beyond that is closed at once.
    ``CONN_TIMEOUT_S`` is each connection's socket timeout: a peer that moves no
    byte for that long, idle, stalled mid-frame or not reading its reply, is
    closed, so silent peers cannot keep the table full. ``close`` shuts every
    connection down and waits for its thread, a handler still running included.
    """

    def __init__(self, sock: socket.socket, handler: Handler) -> None:
        self._lock = threading.Lock()
        self._conns: dict[socket.socket, threading.Thread] = {}  # each open connection's thread
        super().__init__(sock, handler)

    @property
    def open_connections(self) -> int:
        return len(self._conns)

    def _loop(self) -> None:
        with self._sock:
            while True:
                try:
                    sock, addr = self._sock.accept()
                except OSError:  # close() shut the socket, or the peer gave up before we got to it
                    if self._closed.is_set():
                        return
                    continue
                with self._lock:  # close() admits no connection after it has taken the lock
                    full = len(self._conns) >= MAX_CONNECTIONS
                    if not full and not self._closed.is_set():
                        thread = threading.Thread(target=self._serve, args=(sock, addr), daemon=True)
                        self._conns[sock] = thread
                        thread.start()
                        continue
                if full:
                    log.warning("listener on port %d: %d connections open, closing one from %s",
                                self.endpoint_port, MAX_CONNECTIONS, addr)
                sock.close()

    def _serve(self, sock: socket.socket, addr: tuple) -> None:
        try:
            sock.settimeout(CONN_TIMEOUT_S)
            while True:
                try:
                    data = read_frame_bytes(sock)
                except wire.WireError as exc:  # the stream cannot be resynchronised: answer, then close
                    _send_whole(sock, wire.nack(wire.ERR_BAD_FRAME, str(exc)).encoded())
                    return
                _send_whole(sock, _handle_raw(self._handler, data, addr))
        except socket.timeout:
            log.debug("listener on port %d: closing connection from %s, silent for %.0f s",
                      self.endpoint_port, addr, CONN_TIMEOUT_S)
        except (OSError, TransportError):  # the peer closed, perhaps mid-frame, or close() shut it
            pass
        finally:
            with self._lock:
                del self._conns[sock]
            sock.close()

    def close(self) -> None:
        with self._lock:
            self._closed.set()
            threads = list(self._conns.values())
            for sock in self._conns:  # each thread closes its own socket, after it leaves the table
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        super().close()
        for thread in threads:
            if thread is not threading.current_thread():  # a handler may close its own listener
                thread.join()


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
    ``serve`` answers each TCP connection on a thread of its own (``_TcpListener``)
    and every UDP datagram on the listener's one thread.
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
        opts = opts or TransportOpts()
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
            _send_whole(sock, data)
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

    def serve(self, bind: Endpoint, handler: Handler):
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
