"""Frame movement between agencies: real TCP/UDP sockets or a modeled link.

Both transports speak the same framing; the modeled transport replaces
socket I/O with computed delays so timing results are machine-independent
while exercising identical codec paths.
"""

from __future__ import annotations

import ipaddress
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import wire
from .wire import Frame, FrameKind

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
        reply = handler(frame, source)
    except Exception as exc:  # handler errors become ERROR frames, never crashes
        return _error_reply(wire.ERR_INTERNAL, f"handler failed: {exc}")
    return wire.encode_frame(reply)


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
        """Encode once, refuse an oversize datagram before any side effect,
        exchange, count the frame once, and turn the reply into a Receipt."""
        data = wire.encode_frame(frame)
        if endpoint.protocol == "udp" and len(data) > UDP_MAX_PAYLOAD:
            raise OversizeError(f"frame of {len(data)} bytes exceeds one UDP datagram")
        reply_bytes, duration_s = self._exchange(endpoint, data, opts, link)
        self.stats.record(endpoint.key, link, frame, len(data))
        return _reply_to_receipt(wire.decode_frame(reply_bytes), len(data), duration_s)

    def link_stats(self, peer: Endpoint | tuple[str, int]) -> LinkStats:
        return self.stats.for_peer(peer.key if isinstance(peer, Endpoint) else peer)

    def total_stats(self) -> LinkStats:
        return self.stats.total()


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
    header = _read_exactly(sock, 12)
    if header[:4] != wire.MAGIC:
        raise wire.WireError(f"bad magic {header[:4]!r}")
    payload_len = struct.unpack(">I", header[8:12])[0]
    rest = _read_exactly(sock, payload_len + 4)
    return header + rest


def _send_buffered(sock: socket.socket, data: bytes, buffer_size: int) -> None:
    for off in range(0, len(data), buffer_size):
        sock.sendall(data[off : off + buffer_size])


class _SocketListener:
    """A bound socket served by one thread; ``close`` wakes that thread and waits for it."""

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
        self._sock.close()
        if threading.current_thread() is not self._thread:  # a UDP handler may close its own listener
            self._thread.join()


class _TcpListener(_SocketListener):
    def _loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, addr = self._sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve_conn, args=(conn, addr), daemon=True).start()

    def _serve_conn(self, conn: socket.socket, addr: tuple) -> None:
        with conn:
            try:
                conn.settimeout(30.0)
                try:
                    data = read_frame_bytes(conn)
                except wire.WireError as exc:
                    conn.sendall(_error_reply(wire.ERR_BAD_FRAME, str(exc)))
                    return
                conn.sendall(_handle_raw(self._handler, data, addr))
            except OSError:
                pass  # peer went away; keep serving others


class _UdpListener(_SocketListener):
    def _loop(self) -> None:
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
    """One frame per TCP connection or UDP datagram, one ACK/ERROR back."""

    def __init__(self) -> None:
        super().__init__(StatsRegistry())

    send_frame = _Transport.send_frame  # see ModeledTransport

    def _exchange(
        self, endpoint: Endpoint, data: bytes, opts: Optional[TransportOpts], link: Optional[Link]
    ) -> tuple[bytes, float]:
        opts = opts or TransportOpts(protocol=endpoint.protocol)
        exchange = self._send_udp if endpoint.protocol == "udp" else self._send_tcp
        start = time.perf_counter()
        reply_bytes = exchange(endpoint, data, opts)
        return reply_bytes, time.perf_counter() - start

    def _send_tcp(self, endpoint: Endpoint, data: bytes, opts: TransportOpts) -> bytes:
        try:
            with socket.create_connection(endpoint.key, timeout=opts.connect_timeout_s) as sock:
                if opts.no_delay:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                _send_buffered(sock, data, opts.buffer_size)
                return read_frame_bytes(sock)
        except OSError as exc:
            raise TransportError(f"tcp send to {endpoint} failed: {exc}") from exc

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
        try:
            if bind.protocol == "udp":
                sock = socket.socket(family, socket.SOCK_DGRAM)
                sock.bind(bind.key)
                return _UdpListener(sock, handler)
            sock = socket.socket(family, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(bind.key)
            sock.listen(32)
            return _TcpListener(sock, handler)
        except OSError as exc:
            raise TransportError(f"cannot bind {bind}: {exc}") from exc

    def defer(self, fn: Callable[[], None]) -> None:
        threading.Thread(target=fn, daemon=True).start()
