"""Per-host agent runtime: admits transferred agents, instantiates them from
cached code, runs their behavior for one hop, and dispatches them onward.

Code images are carried, cached, digest-checked and counted but never
executed by the migration layer; behaviors are host-registered callables
bound by kind name. That registry is the seam where a real portable code
format would plug in.
"""

from __future__ import annotations

import functools
import hashlib
import ipaddress
import logging
import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, ClassVar, Iterable, Optional

from . import wire
from .transport import BusyError, Endpoint, Receipt, TransportOpts, parse_endpoint
from .wire import Frame, FrameKind, FieldDescriptor, Schema, StateRecord

log = logging.getLogger(__name__)

DEFAULT_CACHE_ENTRIES = 64
DEFAULT_CACHE_BYTES = 16 * 1024 * 1024
HOP_LOG_RECORDS = 1024  # records an agency's hop log keeps; the oldest goes first
COMPLETIONS_STATE_BYTES = 64 * 1024 * 1024  # admitted state the completions may hold
ITINERARY_TABLE_CHARS = 64 * 1024  # itinerary text the parsed-itinerary table may hold


class AgencyError(Exception):
    pass


class AdmissionError(AgencyError):
    def __init__(self, code: int, message: str, agent_id: bytes = b"\x00" * 16) -> None:
        super().__init__(message)
        self.code = code
        self.agent_id = agent_id


@dataclass(frozen=True)
class CodeImage:
    """A kind's code and its SHA-256 digest, both held as ``bytes``: a caller's
    buffer is copied once, so the image cannot change after it is verified."""

    kind_name: str
    digest: bytes
    code: bytes
    _verified: ClassVar[bool] = False  # an instance's own once verify() succeeds

    def __post_init__(self) -> None:
        for name in ("digest", "code"):
            value = getattr(self, name)
            if not isinstance(value, bytes):
                object.__setattr__(self, name, bytes(value))

    @property
    def size_bytes(self) -> int:
        return len(self.code)

    @classmethod
    def from_code(cls, kind_name: str, code: bytes) -> "CodeImage":
        code = bytes(code)  # hashed as held; bytes passes through uncopied
        image = cls(kind_name=kind_name, digest=hashlib.sha256(code).digest(), code=code)
        object.__setattr__(image, "_verified", True)  # its digest was just made from its code
        return image

    def verify(self) -> None:
        """Raise unless the code hashes to the digest. A success is remembered, so
        each host hashes an image once; a failure is not."""
        if self._verified:
            return
        if hashlib.sha256(self.code).digest() != self.digest:
            raise AgencyError(f"digest mismatch for code image {self.kind_name!r}")
        object.__setattr__(self, "_verified", True)


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
        self._lock = threading.Lock()
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
    schema: Schema  # a list passed in is made one
    on_arrival: Callable[[StateRecord, HostContext], None]
    task: Callable[[StateRecord, HostContext], None]

    def __post_init__(self) -> None:
        self.schema = Schema(self.schema)


def _bump_hop(state: StateRecord, ctx: HostContext) -> None:
    values = state.values
    if "hop" in values:
        values["hop"] += 1


def _noop(state: StateRecord, ctx: HostContext) -> None:
    pass


def _collect_host(state: StateRecord, ctx: HostContext) -> None:
    folder = list(state.get("data"))
    folder.append(ctx.host_name)
    state.set("data", folder)


def pingpong_behavior(schema: Iterable[FieldDescriptor]) -> Behavior:
    """A→B→A round-tripper that performs no task at all."""
    return Behavior("pingpong", schema, on_arrival=_bump_hop, task=_noop)


def collector_behavior(schema: Iterable[FieldDescriptor]) -> Behavior:
    """Appends the visited host's name to the agent's data folder."""
    return Behavior("collector", schema, on_arrival=_bump_hop, task=_collect_host)


BUILTIN_BEHAVIORS: dict[str, Callable[[Iterable[FieldDescriptor]], Behavior]] = {
    "pingpong": pingpong_behavior,
    "collector": collector_behavior,
}


@dataclass(slots=True)
class AgentInstance:
    agent_id: bytes
    state: StateRecord
    behavior: Behavior
    hop_index: int
    image: CodeImage  # the code it was admitted or launched with; its digest travels on
    decode_ns: int = 0  # measured at admission, for the hop's record
    state_len: int = 0  # the admitted state image's inflated length


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


def _bound(table: dict, tally: int = 0, weight: Callable[[object], int] = lambda entry: 0) -> int:
    """Keep the newest ``HOP_LOG_RECORDS`` entries and drop the oldest while they
    weigh over ``COMPLETIONS_STATE_BYTES``, keeping the newest one. ``tally`` is an
    upper bound of what the entries weigh (entries popped by others leave it high), so
    only a tally over the cap runs the exact pass, which weighs every entry. Returns
    the bound after. The table is trimmed in place; the caller holds the agency's lock."""
    while len(table) > HOP_LOG_RECORDS:
        tally -= weight(table.pop(next(iter(table))))
    if tally > COMPLETIONS_STATE_BYTES:
        tally = sum(map(weight, table.values()))
        while tally > COMPLETIONS_STATE_BYTES and len(table) > 1:
            tally -= weight(table.pop(next(iter(table))))
    return tally


_itineraries: dict[tuple[str, ...], tuple[Endpoint, ...]] = {}
_itinerary_chars = 0  # characters of itinerary text in the table's keys
_itineraries_lock = threading.Lock()


def itinerary_endpoints(state: StateRecord) -> list[Endpoint]:
    """The state's itinerary as endpoints, each itinerary parsed once.

    Peers choose itineraries, so the table of parsed ones holds at most
    ``ITINERARY_TABLE_CHARS`` characters of their text; the oldest goes first.
    """
    global _itinerary_chars
    key = tuple(state.values["it"])
    stops = _itineraries.get(key)
    if stops is None:
        stops = tuple(map(parse_endpoint, key))
        with _itineraries_lock:
            if key not in _itineraries:
                _itineraries[key] = stops
                _itinerary_chars += sum(map(len, key))
            while _itinerary_chars > ITINERARY_TABLE_CHARS:
                oldest = next(iter(_itineraries))
                del _itineraries[oldest]
                _itinerary_chars -= sum(map(len, oldest))
    return list(stops)


_PAYLOADS = {  # each kind an agency takes besides a transfer: its payload codec, its name in a NACK
    FrameKind.CODE_PUSH: (wire.CodePushPayload, "code push"),
    FrameKind.FORWARD_REQUEST: (wire.ForwardRequestPayload, "forward request"),
    FrameKind.ERROR: (wire.ErrorPayload, "error report"),
}


class Agency:
    """One host's runtime: listener, code cache, behavior registry, completions.

    It listens on its bind endpoint; ``opts`` sets how frames are sent.

    ``hops`` is the hop log: one ``HopRecord`` per hop run here and per launch,
    the newest ``HOP_LOG_RECORDS`` of them. Hops run on other threads in real-socket
    mode (the listener's or the transport's), so read it there through a copy,
    ``list(agency.hops)``.
    ``failures`` maps an agent id to why it failed, here or as an ``ERROR``
    frame reported, and ``completions`` to what it brought home; each keeps
    the newest ``HOP_LOG_RECORDS``, and ``completions`` drops its oldest while
    their admitted states came to over ``COMPLETIONS_STATE_BYTES``. All three
    change under ``wait``'s lock.
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
        self.opts = opts or TransportOpts()
        self.cache = CodeCache(cache_capacity, cache_byte_limit)
        self.topology = topology
        self.agency_id = os.urandom(8).hex()
        self._context = HostContext(host_name, bind.address, self.agency_id)  # start() changes only the port
        self._behaviors: dict[str, Behavior] = {}
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._waiting = 0  # waits blocked on _changed: only they need a notify
        self.completions: dict[bytes, dict] = {}
        self._completions_tally = 0  # an upper bound of the completions' state_len, for _bound
        self.failures: dict[bytes, str] = {}
        self.hops: deque[HopRecord] = deque(maxlen=HOP_LOG_RECORDS)
        self._listener = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._listener = self.transport.serve(self.bind, self.handle_frame)
        if self.bind.port == 0:  # itineraries must name the port the system picked
            self.bind = Endpoint(self.bind.address, self._listener.endpoint_port)

    def stop(self) -> None:
        """Stop listening, then close the transport. Over sockets that waits for the replies
        in hand and up to ``transport.CLOSE_WAIT_S`` for hops in progress, which go on after."""
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        self.transport.close()

    def register_behavior(self, kind_name: str, behavior: Behavior) -> None:
        self._behaviors[kind_name] = behavior

    def context(self) -> HostContext:
        return self._context

    # -- code cache --------------------------------------------------------

    def install_code(self, image: CodeImage) -> CacheOutcome:
        return self.cache.install(image)

    def lookup_code(self, kind_name: str) -> Optional[CodeImage]:
        return self.cache.lookup(kind_name)

    # -- frame handling ----------------------------------------------------

    def handle_frame(self, frame: Frame, source: tuple) -> Frame:
        """Answer one frame with an ACK or a ``wire.nack``. A transfer goes to admission;
        any other kind's payload is decoded here, under one guard, and then handled."""
        if frame.kind == FrameKind.AGENT_TRANSFER:
            return self._handle_transfer(frame)
        if frame.kind not in _PAYLOADS:
            return wire.nack(wire.ERR_BAD_FRAME, f"unexpected kind {frame.kind}")
        codec, what = _PAYLOADS[frame.kind]
        try:
            payload = codec.decode(frame.payload)
        except wire.WireError as exc:
            return wire.nack(wire.ERR_DECODE_FAILED, f"bad {what}: {exc}")
        if frame.kind == FrameKind.CODE_PUSH:
            return self._install_pushed(payload)
        if frame.kind == FrameKind.FORWARD_REQUEST:
            return self._forward(payload)
        return self._record_report(payload, source)

    def _record_report(self, err: wire.ErrorPayload, source: tuple) -> Frame:
        log.warning("agent %s: failure reported by %s: %s", err.agent_id.hex(), source, err.message)
        self._record(err.agent_id, failure=err.message)
        return wire.ACK

    def _install_pushed(self, push: wire.CodePushPayload) -> Frame:
        try:
            self.install_code(CodeImage(push.kind_name, push.digest, push.code))
        except AgencyError as exc:
            return wire.nack(wire.ERR_DIGEST_MISMATCH, str(exc))
        return wire.ACK

    def _forward(self, req: wire.ForwardRequestPayload) -> Frame:
        """Send the cached image on to each target; each target gets its own result."""
        image = self.lookup_code(req.kind_name)
        if image is None or image.digest != req.digest:
            return wire.nack(wire.ERR_CODE_MISSING, f"no cached code for {req.kind_name!r}")
        image.verify()  # a corrupted copy must not multiply downstream; remembered from install
        push_frame = Frame(FrameKind.CODE_PUSH, wire.CodePushPayload(
            image.kind_name, image.digest, image.code).encode())
        results = []
        for target in req.targets:
            ok, code = False, wire.ERR_BAD_FRAME  # a target that is no IP literal, or this relay
            try:
                endpoint = Endpoint(target.address, target.port)
                if not self._is_self(endpoint):  # this relay already holds the code
                    code = wire.ERR_INTERNAL
                    link = self.topology.links.get(target.link_id) if self.topology else None
                    receipt = self.transport.send_frame(endpoint, push_frame, self.opts, link=link)
                    ok, code = receipt.ok, receipt.error_code
            except Exception as exc:
                log.warning("relay %s: %r not forwarded to %s:%d: %r",
                            self.bind, req.kind_name, target.address, target.port, exc)
            results.append(wire.ForwardResult(target.address, target.port, ok, code))
        return Frame(FrameKind.ACK, wire.encode_forward_results(results))

    @functools.cached_property
    def _bind_kind(self) -> tuple[bool, bool]:
        """Whether the bind address is a wildcard, and whether it is loopback; parsed
        on first use, once, since ``start`` may change the port but never the address."""
        bound = ipaddress.ip_address(self.bind.address)
        return bound.is_unspecified, bound.is_loopback

    def _is_self(self, endpoint: Endpoint) -> bool:
        """Whether ``endpoint`` names this agency: its bind address, or a loopback
        or wildcard alias of it on the same port. Only a wildcard or loopback bind
        address has aliases, so only then is the target's address parsed."""
        if endpoint.port != self.bind.port:
            return False
        if endpoint.address == self.bind.address:
            return True
        wildcard, loopback = self._bind_kind
        if not (wildcard or loopback):
            return False
        target = ipaddress.ip_address(endpoint.address)
        return (wildcard and (target.is_loopback or target.is_unspecified)) or (
            target.is_unspecified and loopback
        )

    def _handle_transfer(self, frame: Frame) -> Frame:
        try:
            instance = self.admit_agent(frame)
        except AdmissionError as exc:
            return wire.nack(exc.code, str(exc), exc.agent_id)
        if instance is not None:  # None for a probe: code present, nothing instantiated
            try:
                self.transport.defer(lambda: self.run_hop(instance))
            except BusyError as exc:  # refused before the ACK: the sender records the failure
                return wire.nack(wire.ERR_INTERNAL, f"busy: {exc}", instance.agent_id)
        return wire.ACK

    # -- admission and execution -------------------------------------------

    def admit_agent(self, frame: Frame) -> Optional[AgentInstance]:
        if frame.kind != FrameKind.AGENT_TRANSFER:
            raise AdmissionError(wire.ERR_BAD_FRAME, "not an agent transfer")
        t0 = time.perf_counter_ns()
        try:
            agent_id, digest, hop_index, state_bytes = wire.AgentTransferPayload.fields(frame.payload)
        except wire.WireError as exc:
            raise AdmissionError(wire.ERR_DECODE_FAILED, f"bad transfer payload: {exc}")
        try:
            if frame.flags & wire.FLAG_COMPRESSED:
                state_bytes = wire.decompress_payload(state_bytes)
            kind_name = wire.peek_kind_name(state_bytes)
        except wire.WireError as exc:
            raise AdmissionError(wire.ERR_DECODE_FAILED, f"undecodable state: {exc}", agent_id)
        image = self.cache.lookup(kind_name)
        if image is None or image.digest != digest:
            raise AdmissionError(
                wire.ERR_CODE_MISSING,
                f"no cached code for {kind_name!r}; push model does not fetch on demand",
                agent_id,
            )
        if frame.flags & wire.FLAG_PROBE:
            return None
        behavior = self._behaviors.get(kind_name)
        if behavior is None:
            raise AdmissionError(wire.ERR_INTERNAL, f"no behavior registered for {kind_name!r}",
                                 agent_id)
        try:
            state = wire.decode_state(state_bytes, behavior.schema)
        except wire.SchemaMismatchError as exc:
            raise AdmissionError(wire.ERR_SCHEMA_MISMATCH, str(exc), agent_id)
        except wire.WireError as exc:
            raise AdmissionError(wire.ERR_DECODE_FAILED, str(exc), agent_id)
        return AgentInstance(
            agent_id, state, behavior, hop_index, image, time.perf_counter_ns() - t0, len(state_bytes),
        )

    def run_hop(self, instance: AgentInstance) -> HopRecord:
        hop = HopRecord(instance.agent_id, instance.hop_index, "failed", decode_ns=instance.decode_ns)
        ctx = self._context
        try:
            itinerary = itinerary_endpoints(instance.state)
            origin = itinerary[-1]
        except Exception as exc:  # the origin is the itinerary's last stop: it cannot be told
            return self._fail(hop, f"bad itinerary: {exc!r}")
        last = len(itinerary) - 1
        if instance.hop_index > last or (instance.hop_index == last and origin.key != self.bind.key):
            # only the origin, the last stop, completes an agent; the origin did not send this one here
            return self._fail(hop, f"hop {instance.hop_index} of an itinerary ending at {origin} "
                                   f"cannot run at {self.bind}")
        try:
            instance.behavior.on_arrival(instance.state, ctx)
            instance.behavior.task(instance.state, ctx)
        except Exception as exc:
            return self._fail(hop, str(exc), origin)
        if instance.hop_index == last:
            hop.status = "completed"
            data = instance.state.values.get("data")
            self._record(instance.agent_id, hop, completion={
                "data": list(data) if data is not None else [],
                "state": instance.state,
                "completed_ns": time.perf_counter_ns(),
                "state_len": instance.state_len,
            })
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
        self._record(hop.agent_id, hop)
        return hop

    def _record(self, agent_id: bytes, hop: Optional[HopRecord] = None,
                failure: Optional[str] = None, completion: Optional[dict] = None) -> None:
        """Under the lock, log ``hop``, keep the agent's first failure and its
        completion, each table within its bound, and wake every blocked ``wait``."""
        with self._lock:
            if hop is not None:
                self.hops.append(hop)
            if failure is not None:
                self.failures.setdefault(agent_id, failure)
                _bound(self.failures)
            if completion is not None:
                self.completions[agent_id] = completion
                self._completions_tally = _bound(
                    self.completions, self._completions_tally + completion["state_len"],
                    itemgetter("state_len"))
            if self._waiting:
                self._changed.notify_all()

    def dispatch(self, instance: AgentInstance, dest: Endpoint) -> tuple[Receipt, int]:
        """Re-encode the agent's state and send it to the next itinerary stop."""
        t0 = time.perf_counter_ns()
        state_bytes = wire.encode_state(instance.state)
        flags = 0
        if self.opts.compress:
            state_bytes = wire.compress_payload(state_bytes)
            flags |= wire.FLAG_COMPRESSED
        payload = wire.AgentTransferPayload.pack(
            instance.agent_id, instance.image.digest, instance.hop_index + 1, state_bytes
        )
        frame = Frame(FrameKind.AGENT_TRANSFER, payload, flags)
        encode_ns = time.perf_counter_ns() - t0
        link = self.topology.link_between_endpoints(self.bind, dest) if self.topology else None
        receipt = self.transport.send_frame(dest, frame, self.opts, link=link)
        return receipt, encode_ns

    def _fail(self, hop: HopRecord, message: str, origin: Optional[Endpoint] = None) -> HopRecord:
        """Record a failed hop here, in ``failures`` and the hop log, and tell the
        origin unless it is this agency; log it when there is no origin to tell."""
        hop.error = message
        self._record(hop.agent_id, hop, failure=message)
        if origin is None:
            log.warning("agent %s hop %d: %s", hop.agent_id.hex(), hop.hop_index, message)
            return hop
        if origin.key == self.bind.key:
            return hop
        try:
            self.transport.send_frame(origin, wire.nack(wire.ERR_INTERNAL, message, hop.agent_id),
                                      self.opts)
        except Exception as exc:  # the failure stays recorded here
            log.warning("agent %s hop %d: failure report to %s not sent (%s): %r",
                        hop.agent_id.hex(), hop.hop_index, origin, message, exc)
        return hop

    def wait(self, agent_id: bytes, hop_index: int, timeout: float) -> HopRecord:
        """The newest record of the agent's hop ``hop_index`` here, once it is logged
        (a completing hop's completion is written with it). Raises ``AgencyError``
        once the agent is in ``failures`` here, ``TimeoutError`` after ``timeout`` s.
        """

        def logged() -> Optional[HopRecord]:
            return next((hop for hop in reversed(self.hops)
                         if hop.agent_id == agent_id and hop.hop_index == hop_index), None)

        with self._lock:
            self._waiting += 1
            try:
                found = self._changed.wait_for(lambda: agent_id in self.failures or logged(), timeout)
            finally:
                self._waiting -= 1
            if agent_id in self.failures:
                raise AgencyError(self.failures[agent_id])
        if not found:
            raise TimeoutError(f"agent {agent_id.hex()} hop {hop_index} not logged in {timeout} s")
        return found

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
        record.set("it", [ep.text for ep in itinerary])
        behavior = self._require_behavior(record.kind_name)
        image = self.cache.lookup(record.kind_name)
        if image is None:
            raise AgencyError(f"no cached code for {record.kind_name!r}")
        agent_id = agent_id or os.urandom(16)
        instance = AgentInstance(agent_id, record, behavior, -1, image)
        receipt, encode_ns = self.dispatch(instance, itinerary[0])
        error = None if receipt.ok else (
            f"launch refused with code {receipt.error_code}: {receipt.error_message}"
        )
        self._record(agent_id, HopRecord(
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
