"""Frame movement between agencies: real TCP/UDP sockets or a modeled link.

Both transports speak the same framing; the modeled transport replaces
socket I/O with computed delays so timing results are machine-independent
while exercising identical codec paths.
"""

from __future__ import annotations

import ipaddress
import logging
import queue
import select
import socket
import struct
import sys
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


class BusyError(TransportError):
    """``defer`` queued nothing: ``MAX_QUEUED_HOPS`` tasks already wait for a thread."""


@dataclass(frozen=True)
class Endpoint:
    address: str
    port: int
    protocol: str = "tcp"
    key: tuple[str, int] = field(init=False, repr=False, compare=False)  # (address, port), made once
    text: str = field(init=False, repr=False, compare=False)  # "address:port", made once

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
        object.__setattr__(self, "key", (self.address, self.port))
        object.__setattr__(self, "text", f"{self.address}:{self.port}")

    def __str__(self) -> str:
        return self.text


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

    def __post_init__(self) -> None:
        for name in ("ack_timeout_s", "connect_timeout_s"):  # a socket holds up to TIMEOUT_MAX s
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and 0 < value <= threading.TIMEOUT_MAX):
                raise ValueError(f"{name} must be a positive finite number of seconds, at most "
                                 f"{threading.TIMEOUT_MAX:g}, not {value!r}")


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
            stats = self._by_peer.get(peer)
            if stats is None:
                stats = self._by_peer[peer] = LinkStats()
            stats.record(frame.kind, frame_bytes, len(frame.payload))
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
        # the plain ACK carries no payload, so its bytes say more than its CRC
        reply = wire.ACK if reply_bytes == wire.ACK.encoded() else wire.decode_frame(reply_bytes)
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

MAX_IDLE = 16  # idle TCP connections a SocketTransport keeps, over all peers
MAX_CONNECTIONS = 64  # accepted TCP connections one listener serves at once
CONN_TIMEOUT_S = 30.0  # a served connection's kernel timeouts: silent this long, idle or mid-frame, it is closed
HOP_WORKERS = 2  # threads kept to run a SocketTransport's deferred tasks (admitted hops)
MAX_HOP_THREADS = 32  # threads that may run them at once; those beyond HOP_WORKERS end when idle
MAX_QUEUED_HOPS = 64  # deferred tasks that may wait while MAX_HOP_THREADS run; one more is refused
CLOSE_WAIT_S = 5.0  # close() waits this long for those threads; one still busy ends on its own
RECV_CHUNK = 64 * 1024  # most that one receive into a connection's read buffer asks for
_here = threading.local()  # on a TCP connection's thread: conn, (listener, socket), and a hop claimed


def _fill(sock: socket.socket, buffer: bytearray, n: int, exact: bool) -> None:
    while len(buffer) < n:
        chunk = sock.recv(n - len(buffer) if exact else RECV_CHUNK)
        if not chunk:
            raise TransportError(f"connection closed after {len(buffer)}/{n} bytes")
        buffer += chunk


def read_frame_bytes(sock: socket.socket, buffer: Optional[bytearray] = None) -> bytes:
    """Read one complete frame off a TCP stream, validating the header first.

    With ``buffer``, a ``bytearray`` kept per connection, each receive asks for up to
    ``RECV_CHUNK`` bytes, so a frame that has arrived is read in one, and bytes past the
    frame stay in ``buffer`` for the next call. An empty ``buffer`` and a receive that
    brought exactly one whole frame return that receive's ``bytes`` as they are; any
    other amount goes through ``buffer``. Without one, exactly the frame is read."""
    exact = buffer is None
    if exact:
        buffer = bytearray()
    elif not buffer:
        chunk = sock.recv(RECV_CHUNK)
        if len(chunk) >= wire.HEADER_LEN and wire.frame_length(chunk) == len(chunk):
            return chunk
        buffer += chunk  # nothing (the peer closed), part of a frame, or more than one
    _fill(sock, buffer, wire.HEADER_LEN, exact)
    end = wire.frame_length(buffer)
    _fill(sock, buffer, end, exact)
    frame = bytes(buffer[:end])
    del buffer[:end]
    return frame


def _send_whole(sock: socket.socket, data: bytes) -> None:
    """Hand the kernel all of the frame it will take at each call: a frame cut
    into writes waits on the peer's delayed ACK. One send takes a frame the
    kernel has room for; only a frame it took part of is sent on from a
    ``memoryview``. The socket's kernel timeout bounds each call, not the
    whole frame, as in ``read_frame_bytes``."""
    sent = sock.send(data)
    if sent < len(data):
        view = memoryview(data)[sent:]
        while view:
            view = view[sock.send(view):]


def _set_timeouts(sock: socket.socket, timeout_s: float) -> None:
    """Bound each receive and each send on a blocking socket in the kernel
    (``SO_RCVTIMEO``, ``SO_SNDTIMEO``): one that runs out raises ``BlockingIOError``
    (EAGAIN). A Python timeout would make each call a poll plus the call, and
    release the GIL around each of the two."""
    usec = max(1, round(timeout_s * 1e6))  # a zero timeval means no timeout at all
    timeval = struct.pack("@ll", *divmod(usec, 1_000_000))
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)


def _still_open(sock: socket.socket) -> bool:
    """An idle connection is fit to carry a frame only while nothing can be read
    from it: a peer that closed it makes it readable (end of stream). One zero-timeout
    poll tells, which leaves the socket's mode and its kernel timeouts alone."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return not poller.poll(0)  # readable, or an error or hang-up, which poll always reports


class _HopThreads:
    """The threads that run a ``SocketTransport``'s deferred tasks (admitted hops).

    ``HOP_WORKERS`` threads wait for tasks until ``close``; a task deferred on a TCP
    connection's thread runs there instead, counted among them, if a parked follower
    takes the connection over (``_TcpListener.claim_follower``). A task that finds every
    thread busy starts one more, up to ``MAX_HOP_THREADS``. Unless a busy one comes
    free within a few of the interpreter's switch intervals, that thread takes tasks
    until none is queued, then ends; so a hop held up by its behavior or by a stalled
    peer holds up no other for longer than that. Beyond that ``MAX_QUEUED_HOPS`` tasks
    may wait, and one more is a ``BusyError``: ``submit`` never blocks. A task that
    raises goes to ``threading.excepthook``; its thread goes on.
    """

    def __init__(self) -> None:
        self._lock = threading.Condition(threading.Lock())  # notified as each task ends
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []  # with each connection's thread claimed to run a task
        self._pending, self._closed = 0, False  # tasks queued or running; whether close() has begun
        for _ in range(HOP_WORKERS):
            self._start(keep=True)

    def _start(self, keep: bool) -> None:
        self._threads.append(threading.Thread(target=self._run, args=(keep,), daemon=True))
        self._threads[-1].start()

    def submit(self, fn: Callable[[], None], conn: Optional[tuple] = None) -> None:
        """Queue ``fn``, or claim it for this thread, which serves ``conn`` (listener, socket)."""
        with self._lock:
            if self._pending >= MAX_HOP_THREADS + MAX_QUEUED_HOPS:
                raise BusyError(f"{MAX_QUEUED_HOPS} deferred tasks already wait for a thread")
            self._pending += 1
            room = len(self._threads) < MAX_HOP_THREADS
            if conn is not None and room and (inbox := conn[0].claim_follower(conn[1])) is not None:
                self._threads.append(threading.current_thread())
                _here.hop = (self, fn, inbox)
            else:
                self._tasks.put(fn)
                if self._pending > len(self._threads) and room:
                    self._start(keep=False)

    def run(self, task: Callable[[], None], claimed: bool = True) -> bool:
        """Run a task, by default one ``submit`` claimed for this thread; False once closed."""
        try:
            task()
        except Exception as exc:  # reported as a thread of its own would be
            threading.excepthook(threading.ExceptHookArgs(
                (type(exc), exc, exc.__traceback__, threading.current_thread())))
        with self._lock:
            self._pending -= 1
            self._lock.notify()
            if claimed:
                self._threads.remove(threading.current_thread())
            return not self._closed

    def _next(self, keep: bool) -> Optional[Callable[[], None]]:
        if keep:
            return self._tasks.get()
        with self._lock:  # submit() puts under it, so no task is left behind a thread that ends
            try:
                return self._tasks.get_nowait()
            except queue.Empty:
                self._threads.remove(threading.current_thread())
                return None

    def _freed_in_time(self) -> bool:
        """Wait a few switch intervals for a busy thread to come free (one done with its task
        may wait that long to run again); if one does, this one is not needed and ends."""
        with self._lock:
            if self._lock.wait_for(lambda: self._pending < len(self._threads), 4 * sys.getswitchinterval()):
                self._threads.remove(threading.current_thread())
                return True
        return False

    def _run(self, keep: bool) -> None:
        if not keep and self._freed_in_time():
            return
        while (task := self._next(keep)) is not None:
            self.run(task, claimed=False)

    def close(self) -> None:
        """Let the threads run the queued tasks and end. Wait up to ``CLOSE_WAIT_S`` for them,
        the calling thread aside, and log how many are still busy."""
        with self._lock:
            threads, self._closed = list(self._threads), True
        for _ in threads:
            self._tasks.put(None)
        deadline = time.monotonic() + CLOSE_WAIT_S
        others = [t for t in threads if t is not threading.current_thread()]
        for thread in others:
            thread.join(max(0.0, deadline - time.monotonic()))
        if busy := sum(t.is_alive() for t in others):
            log.warning("%d hop threads still busy after %.0f s; each ends after the queued tasks",
                        busy, CLOSE_WAIT_S)


class _SocketListener:
    """A bound socket served by one thread; ``close`` wakes that thread and
    waits for it, and the thread closes what it served on its way out. ``close``
    stops reading only, so a handler still running sends its reply; it may wait
    up to ``CONN_TIMEOUT_S`` for a reply that its peer does not read."""

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
            self._sock.shutdown(socket.SHUT_RD)
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
    Each connection's socket blocks, and ``CONN_TIMEOUT_S`` is its kernel receive
    and send timeout (``_set_timeouts``), so each read or write is one system
    call: a peer that moves no byte for that long, idle, stalled mid-frame or not
    reading its reply, is closed, so silent peers cannot keep the table full.
    A deferred hop runs on the thread that read its frame if a parked follower
    takes the connection over (``claim_follower``). ``close`` stops each
    connection's reading and waits for its thread, which answers the frame in
    hand only, and for the parked followers.
    """

    def __init__(self, sock: socket.socket, handler: Handler) -> None:
        self._lock = threading.Lock()
        self._conns: dict[socket.socket, threading.Thread] = {}  # each open connection's thread
        self._parked: Optional[list[tuple[threading.Thread, queue.SimpleQueue]]] = None  # made on first need
        super().__init__(sock, handler)

    @property
    def open_connections(self) -> int:
        return len(self._conns)

    def _loop(self) -> None:
        with self._sock:
            while True:
                try:
                    sock, addr = self._sock.accept()  # blocking, as the listening socket is
                    _set_timeouts(sock, CONN_TIMEOUT_S)
                except OSError:  # close() shut the socket, or the peer gave up before we got to it
                    if self._closed.is_set():
                        return
                    continue
                with self._lock:  # close() admits no connection after it has taken the lock
                    full = len(self._conns) >= MAX_CONNECTIONS
                    if not full and not self._closed.is_set():
                        thread = threading.Thread(target=self._work, daemon=True,
                                                  args=((sock, bytearray(), addr), queue.SimpleQueue()))
                        self._conns[sock] = thread
                        thread.start()
                        continue
                if full:
                    log.warning("listener on port %d: %d connections open, closing one from %s",
                                self.endpoint_port, MAX_CONNECTIONS, addr)
                sock.close()

    def claim_follower(self, sock: socket.socket) -> Optional[queue.SimpleQueue]:
        """The inbox of a parked follower, ``sock``'s thread from now, or None (the first need makes them)."""
        with self._lock:  # close() leaves an empty list
            if self._parked is None:
                self._parked = [(threading.Thread(target=self._work, args=(None, inbox), daemon=True), inbox)
                                for inbox in (queue.SimpleQueue() for _ in range(HOP_WORKERS))]
                for thread, _ in self._parked:
                    thread.start()
            elif self._parked:
                self._conns[sock], inbox = self._parked.pop()
                return inbox
        return None

    def _work(self, conn: Optional[tuple], inbox: queue.SimpleQueue) -> None:
        """Serve a connection till it closes, or till a hop claimed on it: hand it over, then run that."""
        while conn is not None or (conn := inbox.get()) is not None:
            (sock, buffer, addr), claimed, conn = conn, None, None
            _here.conn, _here.hop = (self, sock), None
            try:
                while claimed is None and not self._closed.is_set():  # queued bytes stay readable after SHUT_RD
                    try:
                        data = read_frame_bytes(sock, buffer)  # pipelined frames read ahead wait in buffer
                    except wire.WireError as exc:  # the stream cannot be resynchronised: answer, then close
                        _send_whole(sock, wire.nack(wire.ERR_BAD_FRAME, str(exc)).encoded())
                        break
                    reply = _handle_raw(self._handler, data, addr)
                    claimed, _here.hop = _here.hop, None
                    _send_whole(sock, reply)
            except BlockingIOError:  # EAGAIN: a kernel timeout ran out
                log.debug("listener on port %d: closing connection from %s, silent for %g s",
                          self.endpoint_port, addr, CONN_TIMEOUT_S)
            except (OSError, TransportError):  # the peer closed, perhaps mid-frame, or close() shut it
                pass
            finally:
                _here.conn = None
                if claimed is not None:  # written or not: a failed write fails the follower's read too
                    claimed[2].put((sock, buffer, addr))
                else:
                    with self._lock:
                        del self._conns[sock]
                    sock.close()
            if claimed is None or not claimed[0].run(claimed[1]):
                return
            with self._lock:
                if self._closed.is_set():
                    return
                self._parked.append((threading.current_thread(), inbox))

    def close(self) -> None:
        with self._lock:
            self._closed.set()
            threads = list(self._conns.values())
            for sock in self._conns:  # each thread closes its own socket, after it leaves the table
                try:
                    sock.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
            parked, self._parked = self._parked or [], []
        for _, inbox in parked:
            inbox.put(None)
        super().close()
        for thread in threads + [thread for thread, _ in parked]:
            if thread is not threading.current_thread():  # a handler may close its own listener
                thread.join()


# Per address family, the socket option with which a UDP listener receives, with each
# datagram, the address it arrived on (IP_PKTINFO is 8 on Linux; not every version of
# the socket module names it).
_PKTINFO = {
    socket.AF_INET: (socket.IPPROTO_IP, getattr(socket, "IP_PKTINFO", 8)),
    socket.AF_INET6: (socket.IPPROTO_IPV6, socket.IPV6_RECVPKTINFO),
}


def _reply_source(level: int, kind: int, info: bytes) -> tuple[int, int, bytes]:
    """A datagram's packet info, to send the reply from the address it arrived on: a
    listener bound to a wildcard address would otherwise answer from the address the
    routing picks, and a connected sender drops that. The interface index is zeroed,
    so the routing still picks the interface."""
    if level == socket.IPPROTO_IP:  # in_pktinfo: interface, local address, header destination
        return level, kind, bytes(4) + info[4:]
    return level, kind, info[:16] + bytes(4)  # in6_pktinfo: address, interface


class _UdpListener(_SocketListener):
    def _loop(self) -> None:
        with self._sock:
            while True:
                try:  # with room for one in6_pktinfo, the larger of the two records
                    data, info, _, addr = self._sock.recvmsg(65535, socket.CMSG_SPACE(20))
                except OSError:
                    return
                if self._closed.is_set():  # woken by close(): addr is None, nobody to answer
                    return
                try:
                    reply = _handle_raw(self._handler, data, addr)
                    self._sock.sendmsg([reply], [_reply_source(*item) for item in info], 0, addr)
                except OSError as exc:  # the sender retransmits or reports no ack
                    log.warning("listener on port %d: reply to %s not sent: %s", self.endpoint_port, addr, exc)


class SocketTransport(_Transport):
    """Frames over real sockets, one ACK/ERROR back for each.

    TCP connections are reused: a connection carries one frame at a time, its
    reply read (in one receive once it has arrived) before the connection joins
    the transport's one idle list, which holds at most ``MAX_IDLE`` over all
    peers; one put past that closes the connection idle longest, and one with
    bytes past its reply is closed, not put. A send takes the newest idle
    connection to its (peer, ``no_delay``), and only if the peer has not closed
    it meanwhile (``_still_open``) and it has been idle for less than half of
    ``CONN_TIMEOUT_S``, so it is never written just as the peer's listener
    closes it for silence. A connection blocks once it has connected, and
    ``connect_timeout_s`` is its kernel receive and send timeout
    (``_set_timeouts``), so its send and its receive are one system call each;
    its idle entry keeps that timeout, which is set again only for a send
    whose ``connect_timeout_s`` differs. A frame is never written
    twice: a failure after the write is a ``TransportError``, so a hop runs at
    most once. UDP sends one datagram per frame, with one retransmission.
    ``serve`` answers a TCP connection on a thread of its own (``_TcpListener``),
    a UDP datagram on the listener's one thread. ``defer`` runs a hop on the TCP
    connection thread that admitted it, after the reply, or else on
    ``_HopThreads``. ``close`` is final.
    """

    def __init__(self) -> None:
        super().__init__(StatsRegistry())
        self._lock = threading.Lock()
        self._idle: list[tuple[tuple, socket.socket, float, float]] = []  # (key, socket, idle since, timeout)
        self._hops: Optional[_HopThreads] = None  # from the first defer to close()
        self._closed = False

    send_frame = _Transport.send_frame  # see ModeledTransport

    def close(self) -> None:
        """Close the idle connections, and each in use once its send is done, and end the hop
        threads (``_HopThreads.close``). A later send connects and keeps nothing; a later
        ``defer`` is a ``TransportError``."""
        with self._lock:
            self._closed = True
            hops, self._hops = self._hops, None
            idle, self._idle = self._idle, []
        for _, sock, _, _ in idle:
            sock.close()
        if hops is not None:  # outside the lock, which a hop ending its send meanwhile takes
            hops.close()

    def _exchange(
        self, endpoint: Endpoint, data: bytes, opts: Optional[TransportOpts], link: Optional[Link]
    ) -> tuple[bytes, float]:
        opts = opts or TransportOpts()
        exchange = self._send_udp if endpoint.protocol == "udp" else self._send_tcp
        start = time.perf_counter()
        reply_bytes = exchange(endpoint, data, opts)
        return reply_bytes, time.perf_counter() - start

    def _take_idle(self, key: tuple) -> tuple[Optional[socket.socket], float]:
        """The newest idle connection for ``key`` that is fit for use and its timeout, or (None, 0)."""
        while True:
            with self._lock:
                mine = [i for i, entry in enumerate(self._idle) if entry[0] == key]
                if not mine:
                    return None, 0.0
                _, sock, since, timeout_s = self._idle.pop(mine[-1])
            if time.monotonic() - since < CONN_TIMEOUT_S / 2 and _still_open(sock):
                return sock, timeout_s
            sock.close()

    def _put_idle(self, key: tuple, sock: socket.socket, timeout_s: float) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append((key, sock, time.monotonic(), timeout_s))
                if len(self._idle) <= MAX_IDLE:
                    return
                sock = self._idle.pop(0)[1]  # the one idle longest
        sock.close()

    def _connect(self, endpoint: Endpoint, opts: TransportOpts) -> socket.socket:
        try:
            sock = socket.create_connection(endpoint.key, timeout=opts.connect_timeout_s)
        except OSError as exc:
            raise TransportError(f"tcp connect to {endpoint} failed: {exc}") from exc
        sock.settimeout(None)  # the connect keeps its Python timeout; each call after it, the kernel's
        if opts.no_delay:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _send_tcp(self, endpoint: Endpoint, data: bytes, opts: TransportOpts) -> bytes:
        key, timeout_s = (endpoint.key, opts.no_delay), opts.connect_timeout_s
        sock, pooled_timeout_s = self._take_idle(key)
        sock = sock or self._connect(endpoint, opts)
        buffer = bytearray()
        try:
            if pooled_timeout_s != timeout_s:  # a new connection, or a pooled one with another
                _set_timeouts(sock, timeout_s)
            _send_whole(sock, data)
            reply = read_frame_bytes(sock, buffer)
        except OSError as exc:
            sock.close()
            reason = f"timed out after {timeout_s:g} s" if isinstance(exc, BlockingIOError) else exc
            raise TransportError(f"tcp send to {endpoint} failed: {reason}") from exc
        except BaseException:  # a reply cut short or malformed leaves the stream out of step
            sock.close()
            raise
        if buffer:  # bytes past the reply: the stream is out of step
            sock.close()
        else:
            self._put_idle(key, sock, timeout_s)
        return reply

    def _send_udp(self, endpoint: Endpoint, data: bytes, opts: TransportOpts) -> bytes:
        family = socket.AF_INET6 if ":" in endpoint.address else socket.AF_INET
        with socket.socket(family, socket.SOCK_DGRAM) as sock:
            sock.settimeout(opts.ack_timeout_s)
            try:
                sock.connect(endpoint.key)  # the kernel then drops a datagram from any other source
                for _ in range(2):  # one retransmission, then error
                    try:
                        sock.send(data)
                        return sock.recv(65535)
                    except socket.timeout:
                        continue
            except OSError as exc:  # a refusal (ICMP port unreachable) among them
                raise TransportError(f"udp send to {endpoint} failed: {exc}") from exc
        raise TransportError(f"no ack from {endpoint} after retransmission")

    def serve(self, bind: Endpoint, handler: Handler):
        family = socket.AF_INET6 if ":" in bind.address else socket.AF_INET
        udp = bind.protocol == "udp"
        sock = None
        try:
            sock = socket.socket(family, socket.SOCK_DGRAM if udp else socket.SOCK_STREAM)
            if udp:
                sock.setsockopt(*_PKTINFO[family], 1)
            else:
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
        with self._lock:  # close() takes the threads under it, so no task lands behind its Nones
            if self._closed:
                raise TransportError("transport is closed")
            if self._hops is None:
                self._hops = _HopThreads()
            self._hops.submit(fn, getattr(_here, "conn", None))
