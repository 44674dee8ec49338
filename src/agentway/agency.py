"""Per-host agent runtime: admits transferred agents, instantiates them from
cached code, runs their behavior for one hop, and dispatches them onward.

Code images are carried, cached, digest-checked and counted but never
executed by the migration layer; behaviors are host-registered callables
bound by kind name. That registry is the seam where a real portable code
format would plug in.
"""

from __future__ import annotations

import hashlib
import ipaddress
import logging
import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Optional

from . import wire
from .transport import Endpoint, Receipt, TransportOpts, parse_endpoint
from .wire import Frame, FrameKind, FieldDescriptor, StateRecord

log = logging.getLogger(__name__)

DEFAULT_CACHE_ENTRIES = 64
DEFAULT_CACHE_BYTES = 16 * 1024 * 1024
HOP_LOG_RECORDS = 1024  # records an agency's hop log keeps; the oldest goes first


class AgencyError(Exception):
    pass


class AdmissionError(AgencyError):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class CodeImage:
    kind_name: str
    digest: bytes
    code: bytes

    @property
    def size_bytes(self) -> int:
        return len(self.code)

    @classmethod
    def from_code(cls, kind_name: str, code: bytes) -> "CodeImage":
        return cls(kind_name=kind_name, digest=hashlib.sha256(code).digest(), code=code)

    def verify(self) -> None:
        if hashlib.sha256(self.code).digest() != self.digest:
            raise AgencyError(f"digest mismatch for code image {self.kind_name!r}")


@dataclass(frozen=True)
class CacheOutcome:
    action: str  # "stored" | "refreshed"
    evicted: tuple[str, ...] = ()


class CodeCache:
    """LRU-bounded store of code images: capacity in entries plus a byte ceiling."""

    def __init__(
        self,
        capacity: int = DEFAULT_CACHE_ENTRIES,
        byte_limit: int = DEFAULT_CACHE_BYTES,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.byte_limit = byte_limit
        self._lock = threading.RLock()
        self._entries: OrderedDict[str, CodeImage] = OrderedDict()
        self._total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def install(self, image: CodeImage) -> CacheOutcome:
        image.verify()
        with self._lock:
            if image.kind_name in self._entries:
                old = self._entries.pop(image.kind_name)
                self._total_bytes -= old.size_bytes
                self._entries[image.kind_name] = image
                self._total_bytes += image.size_bytes
                return CacheOutcome("refreshed")
            self._entries[image.kind_name] = image
            self._total_bytes += image.size_bytes
            evicted = []
            while len(self._entries) > self.capacity or (
                self._total_bytes > self.byte_limit and len(self._entries) > 1
            ):
                kind, victim = self._entries.popitem(last=False)
                self._total_bytes -= victim.size_bytes
                self.evictions += 1
                evicted.append(kind)
            return CacheOutcome("stored", tuple(evicted))

    def lookup(self, kind_name: str) -> Optional[CodeImage]:
        with self._lock:
            image = self._entries.get(kind_name)
            if image is None:
                self.misses += 1
                return None
            self._entries.move_to_end(kind_name)
            self.hits += 1
            return image


@dataclass(frozen=True)
class HostContext:
    host_name: str
    address: str
    agency_id: str

    def now(self) -> float:
        return time.time()


@dataclass
class Behavior:
    """A named executor bound to a kind: schema plus on-arrival and task steps."""

    name: str
    schema: list[FieldDescriptor]
    on_arrival: Callable[[StateRecord, HostContext], None]
    task: Callable[[StateRecord, HostContext], None]


def _bump_hop(state: StateRecord, ctx: HostContext) -> None:
    if "hop" in state.values:
        state.set("hop", state.get("hop") + 1)


def _noop(state: StateRecord, ctx: HostContext) -> None:
    pass


def _collect_host(state: StateRecord, ctx: HostContext) -> None:
    folder = list(state.get("data"))
    folder.append(ctx.host_name)
    state.set("data", folder)


def pingpong_behavior(schema: list[FieldDescriptor]) -> Behavior:
    """A→B→A round-tripper that performs no task at all."""
    return Behavior("pingpong", schema, on_arrival=_bump_hop, task=_noop)


def collector_behavior(schema: list[FieldDescriptor]) -> Behavior:
    """Appends the visited host's name to the agent's data folder."""
    return Behavior("collector", schema, on_arrival=_bump_hop, task=_collect_host)


BUILTIN_BEHAVIORS: dict[str, Callable[[list[FieldDescriptor]], Behavior]] = {
    "pingpong": pingpong_behavior,
    "collector": collector_behavior,
}


@dataclass
class AgentInstance:
    agent_id: bytes
    state: StateRecord
    behavior: Behavior
    hop_index: int
    decode_ns: int = 0  # measured at admission, for the hop's record


@dataclass(slots=True)
class HopRecord:
    """One hop an agency ran, or one launch (``hop_index`` -1), with the times
    the agency measured on its own clock. A record is complete when it is
    appended to ``Agency.hops``."""

    agent_id: bytes
    hop_index: int
    status: str  # "launched" | "dispatched" | "completed" | "failed"
    error: Optional[str] = None
    decode_ns: int = 0  # admission: the transfer frame to a state record
    encode_ns: int = 0  # dispatch: the state record to a transfer frame
    send_ns: int = 0  # the onward send: modeled link delay, or the timed exchange
    send_bytes: int = 0


def itinerary_endpoints(state: StateRecord, protocol: str) -> list[Endpoint]:
    return [parse_endpoint(entry, protocol) for entry in state.get("it")]


class Agency:
    """One host's runtime: listener, code cache, behavior registry, completions.

    ``hops`` is the hop log: one ``HopRecord`` per hop run here and per launch,
    the newest ``HOP_LOG_RECORDS`` of them. Hops run on other threads in
    real-socket mode, so read it there through a copy, ``list(agency.hops)``.
    """

    def __init__(
        self,
        host_name: str,
        bind: Endpoint,
        transport,
        opts: Optional[TransportOpts] = None,
        cache_capacity: int = DEFAULT_CACHE_ENTRIES,
        cache_byte_limit: int = DEFAULT_CACHE_BYTES,
        topology=None,
    ) -> None:
        self.host_name = host_name
        self.bind = bind
        self.transport = transport
        self.opts = opts or TransportOpts(protocol=bind.protocol)
        self.cache = CodeCache(cache_capacity, cache_byte_limit)
        self.topology = topology
        self.agency_id = os.urandom(8).hex()
        self._behaviors: dict[str, Behavior] = {}
        self._lock = threading.Lock()
        self.completions: dict[bytes, dict] = {}
        self.failures: dict[bytes, str] = {}
        self.hops: deque[HopRecord] = deque(maxlen=HOP_LOG_RECORDS)
        self._listener = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._listener = self.transport.serve(self.bind, self.opts, self.handle_frame)
        if self.bind.port == 0:  # itineraries must name the port the system picked
            self.bind = Endpoint(self.bind.address, self._listener.endpoint_port, self.bind.protocol)

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        self.transport.close()

    def register_behavior(self, kind_name: str, behavior: Behavior) -> None:
        self._behaviors[kind_name] = behavior

    def context(self) -> HostContext:
        return HostContext(self.host_name, self.bind.address, self.agency_id)

    # -- code cache --------------------------------------------------------

    def install_code(self, image: CodeImage) -> CacheOutcome:
        return self.cache.install(image)

    def lookup_code(self, kind_name: str) -> Optional[CodeImage]:
        return self.cache.lookup(kind_name)

    # -- frame handling ----------------------------------------------------

    def handle_frame(self, frame: Frame, source: tuple) -> Frame:
        if frame.kind == FrameKind.CODE_PUSH:
            return self._handle_code_push(frame)
        if frame.kind == FrameKind.FORWARD_REQUEST:
            return self._handle_forward_request(frame)
        if frame.kind == FrameKind.AGENT_TRANSFER:
            return self._handle_transfer(frame)
        if frame.kind == FrameKind.ERROR:
            err = wire.ErrorPayload.decode(frame.payload)
            with self._lock:
                self.failures[err.agent_id] = err.message
            return Frame(FrameKind.ACK)
        return Frame(
            FrameKind.ERROR,
            wire.ErrorPayload(wire.ERR_BAD_FRAME, f"unexpected kind {frame.kind}").encode(),
        )

    def _nack(self, code: int, message: str, agent_id: bytes = b"\x00" * 16) -> Frame:
        return Frame(FrameKind.ERROR, wire.ErrorPayload(code, message, agent_id).encode())

    def _handle_code_push(self, frame: Frame) -> Frame:
        try:
            push = wire.CodePushPayload.decode(frame.payload)
        except wire.WireError as exc:
            return self._nack(wire.ERR_DECODE_FAILED, f"bad code push: {exc}")
        image = CodeImage(push.kind_name, push.digest, push.code)
        try:
            self.install_code(image)
        except AgencyError as exc:
            return self._nack(wire.ERR_DIGEST_MISMATCH, str(exc))
        return Frame(FrameKind.ACK)

    def _handle_forward_request(self, frame: Frame) -> Frame:
        try:
            req = wire.ForwardRequestPayload.decode(frame.payload)
        except wire.WireError as exc:
            return self._nack(wire.ERR_DECODE_FAILED, f"bad forward request: {exc}")
        image = self.lookup_code(req.kind_name)
        if image is None or image.digest != req.digest:
            return self._nack(wire.ERR_CODE_MISSING, f"no cached code for {req.kind_name!r}")
        image.verify()  # a corrupted relay copy must not multiply downstream
        push_frame = Frame(FrameKind.CODE_PUSH, wire.CodePushPayload(
            image.kind_name, image.digest, image.code).encode())
        results = []
        for target in req.targets:
            endpoint = Endpoint(target.address, target.port, self.opts.protocol)
            if self._is_self(endpoint):  # this relay already holds the code
                results.append(
                    wire.ForwardResult(target.address, target.port, False, wire.ERR_BAD_FRAME)
                )
                continue
            link = self.topology.links.get(target.link_id) if self.topology else None
            try:
                receipt = self.transport.send_frame(endpoint, push_frame, self.opts, link=link)
                results.append(
                    wire.ForwardResult(target.address, target.port, receipt.ok, receipt.error_code)
                )
            except Exception:
                results.append(
                    wire.ForwardResult(target.address, target.port, False, wire.ERR_INTERNAL)
                )
        return Frame(FrameKind.ACK, wire.encode_forward_results(results))

    def _is_self(self, endpoint: Endpoint) -> bool:
        """Whether ``endpoint`` names this agency: its bind address, or a loopback
        or wildcard alias of it on the same port."""
        if endpoint.port != self.bind.port:
            return False
        if endpoint.address == self.bind.address:
            return True
        target, bound = ipaddress.ip_address(endpoint.address), ipaddress.ip_address(self.bind.address)
        return (bound.is_unspecified and (target.is_loopback or target.is_unspecified)) or (
            target.is_unspecified and bound.is_loopback
        )

    def _handle_transfer(self, frame: Frame) -> Frame:
        try:
            instance = self.admit_agent(frame)
        except AdmissionError as exc:
            agent_id = b"\x00" * 16
            try:
                agent_id = wire.AgentTransferPayload.decode(frame.payload).agent_id
            except wire.WireError:
                pass
            return self._nack(exc.code, str(exc), agent_id)
        if instance is None:  # probe: code present, nothing instantiated
            return Frame(FrameKind.ACK)
        self.transport.defer(lambda: self.run_hop(instance))
        return Frame(FrameKind.ACK)

    # -- admission and execution -------------------------------------------

    def admit_agent(self, frame: Frame) -> Optional[AgentInstance]:
        if frame.kind != FrameKind.AGENT_TRANSFER:
            raise AdmissionError(wire.ERR_BAD_FRAME, "not an agent transfer")
        t0 = time.perf_counter_ns()
        try:
            payload = wire.AgentTransferPayload.decode(frame.payload)
        except wire.WireError as exc:
            raise AdmissionError(wire.ERR_DECODE_FAILED, f"bad transfer payload: {exc}")
        state_bytes = payload.state
        try:
            if frame.compressed:
                state_bytes = wire.decompress_payload(state_bytes)
            kind_name = wire.peek_kind_name(state_bytes)
        except wire.WireError as exc:
            raise AdmissionError(wire.ERR_DECODE_FAILED, f"undecodable state: {exc}")
        image = self.lookup_code(kind_name)
        if image is None or image.digest != payload.digest:
            raise AdmissionError(
                wire.ERR_CODE_MISSING,
                f"no cached code for {kind_name!r}; push model does not fetch on demand",
            )
        if frame.flags & wire.FLAG_PROBE:
            return None
        behavior = self._behaviors.get(kind_name)
        if behavior is None:
            raise AdmissionError(wire.ERR_INTERNAL, f"no behavior registered for {kind_name!r}")
        try:
            state = wire.decode_state(state_bytes, behavior.schema)
        except wire.SchemaMismatchError as exc:
            raise AdmissionError(wire.ERR_SCHEMA_MISMATCH, str(exc))
        except wire.WireError as exc:
            raise AdmissionError(wire.ERR_DECODE_FAILED, str(exc))
        return AgentInstance(
            payload.agent_id, state, behavior, payload.hop_index, time.perf_counter_ns() - t0
        )

    def run_hop(self, instance: AgentInstance) -> HopRecord:
        hop = HopRecord(instance.agent_id, instance.hop_index, "failed", decode_ns=instance.decode_ns)
        ctx = self.context()
        try:
            itinerary = itinerary_endpoints(instance.state, self.opts.protocol)
            origin = itinerary[-1]
        except Exception as exc:  # the origin is the itinerary's last stop: it cannot be told
            message = f"bad itinerary: {exc!r}"
            log.warning("agent %s hop %d: %s", instance.agent_id.hex(), instance.hop_index, message)
            return self._fail(hop, message)
        try:
            instance.behavior.on_arrival(instance.state, ctx)
            instance.behavior.task(instance.state, ctx)
        except Exception as exc:
            return self._fail(hop, str(exc), origin)
        if instance.hop_index >= len(itinerary) - 1:
            hop.status = "completed"
            self.hops.append(hop)  # before the completion, which is what callers wait on
            data = instance.state.values.get("data")
            with self._lock:
                self.completions[instance.agent_id] = {
                    "data": list(data) if data is not None else [],
                    "state": instance.state,
                    "completed_ns": time.perf_counter_ns(),
                }
            return hop
        dest = itinerary[instance.hop_index + 1]
        try:
            receipt, hop.encode_ns = self.dispatch(instance, dest)
        except Exception as exc:
            return self._fail(hop, f"dispatch failed: {exc}", origin)
        hop.send_ns, hop.send_bytes = int(receipt.send_duration_s * 1e9), receipt.bytes_on_wire
        if not receipt.ok:
            return self._fail(
                hop, f"hop refused with code {receipt.error_code}: {receipt.error_message}", origin
            )
        hop.status = "dispatched"
        self.hops.append(hop)
        return hop

    def dispatch(self, instance: AgentInstance, dest: Endpoint) -> tuple[Receipt, int]:
        """Re-encode the agent's state and send it to the next itinerary stop."""
        t0 = time.perf_counter_ns()
        state_bytes = wire.encode_state(instance.state)
        flags = 0
        if self.opts.compress:
            state_bytes = wire.compress_payload(state_bytes, self.opts.compress_level)
            flags |= wire.FLAG_COMPRESSED
        image = self.lookup_code(instance.state.kind_name)
        if image is None:
            raise AgencyError(f"local cache lost code for {instance.state.kind_name!r}")
        payload = wire.AgentTransferPayload(
            instance.agent_id, image.digest, instance.hop_index + 1, state_bytes
        )
        frame = Frame(FrameKind.AGENT_TRANSFER, payload.encode(), flags)
        encode_ns = time.perf_counter_ns() - t0
        link = self.topology.link_between_endpoints(self.bind, dest) if self.topology else None
        receipt = self.transport.send_frame(dest, frame, self.opts, link=link)
        return receipt, encode_ns

    def _fail(self, hop: HopRecord, message: str, origin: Optional[Endpoint] = None) -> HopRecord:
        """Record a failed hop here, in ``failures`` and the hop log, and tell the
        origin unless it is this agency or unknown."""
        hop.error = message
        with self._lock:
            self.failures.setdefault(hop.agent_id, message)
        self.hops.append(hop)
        if origin is None or origin.key == self.bind.key:
            return hop
        report = wire.ErrorPayload(wire.ERR_INTERNAL, message, hop.agent_id)
        try:
            self.transport.send_frame(origin, Frame(FrameKind.ERROR, report.encode()), self.opts)
        except Exception as exc:  # the failure stays recorded here
            log.warning("agent %s hop %d: failure report to %s not sent (%s): %r",
                        hop.agent_id.hex(), hop.hop_index, origin, message, exc)
        return hop

    # -- launching -----------------------------------------------------------

    def launch(
        self,
        record: StateRecord,
        itinerary: list[Endpoint],
        agent_id: Optional[bytes] = None,
    ) -> bytes:
        """Dispatch a freshly created agent to the first itinerary stop.

        The itinerary must end back here (the origin); it is written into the
        record's "it" field as address literals so no hop ever resolves a name.
        """
        if not itinerary:
            raise AgencyError("itinerary is empty")
        if itinerary[-1].key != self.bind.key:
            raise AgencyError("itinerary must end at the launching agency")
        if "it" not in record.values:
            raise AgencyError('record needs an "it" string-array field')
        record.set("it", [str(ep) for ep in itinerary])
        agent_id = agent_id or os.urandom(16)
        instance = AgentInstance(agent_id, record, self._require_behavior(record.kind_name), -1)
        receipt, encode_ns = self.dispatch(instance, itinerary[0])
        error = None if receipt.ok else (
            f"launch refused with code {receipt.error_code}: {receipt.error_message}"
        )
        self.hops.append(HopRecord(
            agent_id, -1, "failed" if error else "launched", error, encode_ns=encode_ns,
            send_ns=int(receipt.send_duration_s * 1e9), send_bytes=receipt.bytes_on_wire,
        ))
        if error:
            raise AgencyError(error)
        return agent_id

    def probe_code(self, endpoint: Endpoint, kind_name: str, digest: bytes) -> bool:
        """Check whether a remote agency holds a code image, without running it."""
        record = StateRecord(kind_name=kind_name)
        payload = wire.AgentTransferPayload(b"\x00" * 16, digest, 0, wire.encode_state(record))
        frame = Frame(FrameKind.AGENT_TRANSFER, payload.encode(), wire.FLAG_PROBE)
        receipt = self.transport.send_frame(endpoint, frame, self.opts)
        return receipt.ok

    def _require_behavior(self, kind_name: str) -> Behavior:
        behavior = self._behaviors.get(kind_name)
        if behavior is None:
            raise AgencyError(f"no behavior registered for {kind_name!r}")
        return behavior
