"""Spans recorded from outside the package, around the public calls into each layer.

A span is ``[name, start_ns, end_ns, parent, agent_id]``. Spans live in
memory and are reduced between measurement windows, never during one. A
layer's self time is its span's duration minus the part of it that child
spans cover. A span takes the agent id of its parent unless the call names
the agent itself; admission learns the id from the frame and hands it up to
its callers.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

from agentway import agency, distribution, transport, wire

DEFER_WAIT = "transport.defer.wait"
WIRE_SPANS = (
    "wire.encode_state", "wire.decode_state", "wire.peek_kind_name",
    "wire.compress_payload", "wire.decompress_payload",
    "wire.encode_frame", "wire.decode_frame",
    "wire.encode_forward_results", "wire.decode_forward_results",
)


def _instance_agent(args, kwargs):
    return args[1].agent_id


def _launch_agent(args, kwargs):
    return kwargs.get("agent_id")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self.active = False
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.state_bytes = self.state_encodes = 0
        self.deflate_in = self.deflate_out = 0
        self.link_delay_s = 0.0
        self.code_frame_bytes = 0
        self.op_ns = self.uncovered_ns = 0
        self.peak_threads = threading.active_count()
        self._patches = self._build_patches()
        self._handle_frame = agency.Agency.__dict__["handle_frame"]

    # -- wrappers ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, agent_of=None, on_result=None) -> Callable:
        stack_of, append, clock = self._stack, self.spans.append, time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            agent = agent_of(args, kwargs) if agent_of else (parent[4] if parent else None)
            span = [name, 0, 0, parent, agent]
            stack.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                append(span)
            if on_result is not None:
                on_result(span, args, result)
            return result

        return traced

    def _wrap_defer(self, fn: Callable) -> Callable:
        """The call is a span of its own; so is the wait from the call to the task's start."""
        stack_of, append, clock = self._stack, self.spans.append, time.perf_counter_ns
        tracer = self

        def defer(self_, task):
            stack = stack_of()
            agent = stack[-1][4] if stack else None
            called = clock()

            def started():
                append([DEFER_WAIT, called, clock(), None, agent])
                tracer.peak_threads = max(tracer.peak_threads, threading.active_count())
                task()

            return fn(self_, started)

        return defer

    def _admitted(self, span, args, instance) -> None:
        if instance is None:
            return
        while span is not None and span[4] is None:
            span[4] = instance.agent_id
            span = span[3]

    def _encoded(self, span, args, data) -> None:
        self.state_bytes += len(data)
        self.state_encodes += 1

    def _compressed(self, span, args, data) -> None:
        self.deflate_in += len(args[0])
        self.deflate_out += len(data)

    def _sent(self, span, args, receipt) -> None:
        if isinstance(args[0], transport.ModeledTransport):
            self.link_delay_s += receipt.send_duration_s
        if args[2].kind == wire.FrameKind.CODE_PUSH:
            self.code_frame_bytes += receipt.bytes_on_wire

    def _build_patches(self) -> list[tuple]:
        """(owner, attribute, original, traced) for every call the trace covers."""
        plain = {  # name -> (owner, attribute, agent_of, on_result)
            "wire.encode_state": (wire, "encode_state", None, self._encoded),
            "wire.compress_payload": (wire, "compress_payload", None, self._compressed),
            "agency.itinerary_endpoints": (agency, "itinerary_endpoints", None, None),
            "transport.parse_endpoint": (agency, "parse_endpoint", None, None),
            "agency.launch": (agency.Agency, "launch", _launch_agent, None),
            "agency.admit_agent": (agency.Agency, "admit_agent", None, self._admitted),
            "agency.run_hop": (agency.Agency, "run_hop", _instance_agent, None),
            "agency.dispatch": (agency.Agency, "dispatch", _instance_agent, None),
            "agency.cache.lookup": (agency.CodeCache, "lookup", None, None),
            "agency.cache.install": (agency.CodeCache, "install", None, None),
            "distribution.push_code": (distribution, "push_code", None, None),
        }
        for name in WIRE_SPANS:
            plain.setdefault(name, (wire, name.split(".", 1)[1], None, None))
        patches = []
        for name, (owner, attr, agent_of, on_result) in plain.items():
            original = vars(owner)[attr]
            patches.append((owner, attr, original, self.wrap(name, original, agent_of, on_result)))
        for cls in (transport.SocketTransport, transport.ModeledTransport):
            send = vars(cls)["send_frame"]
            patches.append((cls, "send_frame", send, self.wrap("transport.send_frame", send, None, self._sent)))
            defer = vars(cls)["defer"]
            patches.append((cls, "defer", defer, self.wrap("transport.defer", self._wrap_defer(defer))))
        return patches

    # -- switching ---------------------------------------------------------

    def install_handle_frame(self) -> None:
        """Install before agencies start: a listener keeps the handler it was given.

        While tracing is off the wrapper only forwards the call.
        """
        original = self._handle_frame
        traced = self.wrap("agency.handle_frame", original)
        tracer = self

        def handle_frame(self_, frame, source):
            if tracer.active:
                return traced(self_, frame, source)
            return original(self_, frame, source)

        agency.Agency.handle_frame = handle_frame

    def uninstall_handle_frame(self) -> None:
        agency.Agency.handle_frame = self._handle_frame

    def start(self) -> None:
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        self.active = True

    def stop(self) -> None:
        self.active = False
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def reduce(self, since_ns: int, ops: list[tuple[int, int, Optional[bytes]]]) -> None:
        """Fold the spans of one window into totals; ops are (start, end, agent id)."""
        spans = [s for s in self.spans if s[1] >= since_ns]
        self.spans.clear()
        children = defaultdict(list)
        for s in spans:
            if s[3] is not None:
                children[id(s[3])].append((s[1], s[2]))
        for s in spans:
            self.calls[s[0]] += 1
            self.self_ns[s[0]] += (s[2] - s[1]) - _covered(children.get(id(s), ()), s[1], s[2])
        by_agent = defaultdict(list)
        for s in spans:
            by_agent[s[4]].append((s[1], s[2]))
        starts = {}
        for key, intervals in by_agent.items():
            intervals.sort()
            starts[key] = [iv[0] for iv in intervals]
        for start, end, key in ops:
            intervals = by_agent.get(key, [])
            lo = bisect.bisect_left(starts.get(key, []), start)
            hi = bisect.bisect_left(starts.get(key, []), end)
            self.op_ns += end - start
            self.uncovered_ns += (end - start) - _covered(intervals[lo:hi], start, end)


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total
