"""The benchmark's workloads: seeded inputs, set-up, and a closed loop of ops.

Every workload drives the unmodified ``agentway`` package through its public
API from one thread and checks each op's result. An op is one A->B->A round
trip in the ping-pong workloads and one code push to every host in
``push-tree``. The package receives only inputs generated from the seed:
agent ids, state text and code images.

Modules are reached by attribute (``agency.Agency``, ``distribution.push_code``)
so that the traced run's wrappers, installed on those attributes, see every
call.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from typing import Callable, Optional

from agentway import agency, bench, distribution, transport, wire

LINK = transport.LinkModel(bandwidth_bits_per_s=10_000_000, latency_s=0.001)
OP_TIMEOUT_NS = 10_000_000_000
STATE_TEXT_CHARS = 3900
PINGPONG_CODE_BYTES = 4096
PUSH_CODE_BYTES = 64 * 1024
PUSH_SEGMENTS = 3
PUSH_HOSTS_PER_SEGMENT = 4

# English letter frequencies, so generated words deflate like text does.
_LETTERS = "etaoinshrdlcumwfgypbvkjxqz"
_LETTER_WEIGHTS = (
    12.7, 9.1, 8.2, 7.5, 7.0, 6.7, 6.3, 6.1, 6.0, 4.3, 4.0, 2.8, 2.8,
    2.4, 2.4, 2.2, 2.0, 2.0, 1.9, 1.5, 1.0, 0.8, 0.15, 0.15, 0.1, 0.07,
)

# record(start_ns, end_ns, key, error): key is the agent id, or None for a push
Record = Callable[[int, int, Optional[bytes], Optional[str]], None]


class Inputs:
    """Everything the program receives, generated from the workload seed."""

    def __init__(self, workload: str, seed: int) -> None:
        self._rng = random.Random(f"{workload}/{seed}")

    def agent_id(self) -> bytes:
        return self._rng.randbytes(16)

    def code(self, n: int) -> bytes:
        return self._rng.randbytes(n)

    def state_text(self, n: int = STATE_TEXT_CHARS) -> str:
        """Word-like text with a Zipf word mix: deflates about 2.6:1, like prose.

        The word multiset is fixed by rank and only the letters and the order
        are drawn, so the deflated size varies little from seed to seed.
        """
        rng = self._rng
        vocab = ["".join(rng.choices(_LETTERS, _LETTER_WEIGHTS, k=2 + i % 8)) for i in range(200)]
        words = [w for rank, w in enumerate(vocab) for _ in range(max(1, round(120 / (rank + 1))))]
        rng.shuffle(words)
        text = " ".join(words)
        if len(text) < n:
            raise ValueError(f"generated text has {len(text)} characters, need {n}")
        return text[:n]


class Waiter:
    """Wakes the driving thread when an agency records a completion or failure.

    It swaps in dicts that notify a condition on insert; the agency keeps
    writing to them exactly as before, and the benchmark consumes entries the
    way a caller does.
    """

    def __init__(self, agencies: list) -> None:
        self.cond = threading.Condition()
        self.origin = agencies[0]
        self.agencies = agencies
        for a in agencies:
            a.completions = _NotifyingDict(self.cond)
            a.failures = _NotifyingDict(self.cond)

    def finished(self, agent_id: bytes) -> bool:
        return agent_id in self.origin.completions or any(
            agent_id in a.failures for a in self.agencies
        )


class _NotifyingDict(dict):
    def __init__(self, cond: threading.Condition) -> None:
        super().__init__()
        self._cond = cond

    def __setitem__(self, key, value) -> None:
        with self._cond:
            super().__setitem__(key, value)
            self._cond.notify_all()

    def setdefault(self, key, default=None):
        with self._cond:
            value = super().setdefault(key, default)
            self._cond.notify_all()
            return value


# ---------------------------------------------------------------------------
# ping-pong


def _big_record(text: str) -> wire.StateRecord:
    T = wire.TypeTag
    fields = [
        wire.FieldDescriptor("it", T.STRING_ARRAY),
        wire.FieldDescriptor("data", T.STRING_ARRAY),
        wire.FieldDescriptor("hop", T.INT32),
        wire.FieldDescriptor("s", T.STRING),
    ]
    return wire.StateRecord("MAExample", "MAPack", fields, {"s": text})


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class PingPong:
    """Two agencies, A launching agents along [B, A]; ``in_flight`` agents at once."""

    def __init__(self, inputs: Inputs, template: wire.StateRecord, code: bytes,
                 expected_hop: int, real: bool, compress: bool = False, in_flight: int = 1) -> None:
        start = time.perf_counter()
        if real:
            opts = transport.TransportOpts(protocol="tcp", no_delay=True, compress=compress)
            eps = [transport.Endpoint("127.0.0.1", _free_port()) for _ in range(2)]
            transports = [transport.SocketTransport() for _ in eps]
            self.network = None
        else:
            opts = transport.TransportOpts(protocol="tcp", compress=compress)
            self.network = transport.InProcNetwork()
            eps = [transport.Endpoint("10.0.0.1", 7001), transport.Endpoint("10.0.0.2", 7002)]
            transports = [transport.ModeledTransport(self.network, ep, link_model=LINK) for ep in eps]
        self.agencies = [
            agency.Agency(f"host_{n}", ep, t, opts) for n, ep, t in zip("ab", eps, transports)
        ]
        for a in self.agencies:
            a.start()
        a_ep, b_ep = eps
        image = agency.CodeImage.from_code(template.kind_name, code)
        topo = distribution.Topology(segments={"seg0": eps}, manager=a_ep)
        plan = distribution.plan_distribution([b_ep, a_ep], topo)
        report = distribution.push_code(plan, image, transports[0], opts, topo)
        if not report.all_ok:
            raise RuntimeError(f"set-up code push failed: {report.errors}")
        self.agencies[0].install_code(image)
        for a in self.agencies:
            a.register_behavior(template.kind_name, agency.pingpong_behavior(list(template.fields)))
        self.setup_s = time.perf_counter() - start

        self.inputs = inputs
        self.template = template
        self.itinerary = [b_ep, a_ep]
        self.expected_hop = expected_hop
        self.in_flight = in_flight
        self.stat_sources = transports if real else transports[:1]
        self.waiter = Waiter(self.agencies) if real else None
        self._expected = {
            f.name: template.values[f.name] for f in template.persistent_fields() if f.name != "hop"
        }
        self._expected["it"] = [str(ep) for ep in self.itinerary]

    def close(self) -> None:
        for a in self.agencies:
            a.stop()

    def inter_segment_code_frames(self) -> int:
        return 0

    def _outcome(self, agent_id: bytes, seen_ns: int) -> tuple[int, Optional[str]]:
        """Consume the agent's completion or failure: (end of the op, error or None).

        The op ends when the origin records the completion, not when the
        driving thread, busy with the other agent in flight, gets to it.
        """
        errors = [a.failures.pop(agent_id) for a in self.agencies if agent_id in a.failures]
        done = self.agencies[0].completions.pop(agent_id, None)
        if errors:
            return seen_ns, f"agency failure: {errors[0]}"
        if done is None:
            return seen_ns, "no completion at the origin"
        state = done["state"]
        for name, value in self._expected.items():
            if state.values.get(name) != value:
                return seen_ns, f"field {name!r} differs from what was sent"
        if state.values.get("hop") != self.expected_hop:
            return seen_ns, f"hop is {state.values.get('hop')}, expected {self.expected_hop}"
        return done["completed_ns"], None

    def run(self, deadline_ns: int, record: Record) -> None:
        if self.network is not None:
            self._run_modeled(deadline_ns, record)
        else:
            self._run_real(deadline_ns, record)

    def _run_modeled(self, deadline_ns: int, record: Record) -> None:
        origin, itinerary, network = self.agencies[0], self.itinerary, self.network
        while time.perf_counter_ns() < deadline_ns:
            agent_id = self.inputs.agent_id()
            start = time.perf_counter_ns()
            try:
                origin.launch(self.template.copy(), itinerary, agent_id=agent_id)
                network.run()
            except Exception as exc:  # any raise is one failed op, not a crash
                record(start, time.perf_counter_ns(), agent_id, f"{type(exc).__name__}: {exc}")
                continue
            end, error = self._outcome(agent_id, time.perf_counter_ns())
            record(start, end, agent_id, error)

    def _run_real(self, deadline_ns: int, record: Record) -> None:
        origin, itinerary, waiter = self.agencies[0], self.itinerary, self.waiter
        idle_threads = set(threading.enumerate())  # no hop is in flight between runs
        pending: dict[bytes, int] = {}
        while True:
            while len(pending) < self.in_flight and time.perf_counter_ns() < deadline_ns:
                agent_id = self.inputs.agent_id()
                start = time.perf_counter_ns()
                try:
                    origin.launch(self.template.copy(), itinerary, agent_id=agent_id)
                except Exception as exc:  # any raise is one failed op, not a crash
                    record(start, time.perf_counter_ns(), agent_id, f"{type(exc).__name__}: {exc}")
                    continue
                pending[agent_id] = start
            if not pending:
                self._settle(idle_threads)
                return
            with waiter.cond:
                waiter.cond.wait_for(
                    lambda: any(waiter.finished(a) for a in pending), timeout=OP_TIMEOUT_NS / 1e9
                )
            now = time.perf_counter_ns()
            for agent_id, start in list(pending.items()):
                if waiter.finished(agent_id):
                    del pending[agent_id]
                    end, error = self._outcome(agent_id, now)
                    record(start, end, agent_id, error)
                elif now - start > OP_TIMEOUT_NS:
                    del pending[agent_id]
                    record(start, now, agent_id, "timeout")

    def _settle(self, idle_threads: set) -> None:
        """Wait for the threads this run started to end, so the last hop's bytes count in it.

        A closed agency leaves its accept thread blocked, so the threads to
        wait for are those that were not there when the run started.
        """
        deadline = time.monotonic() + 1.0
        while any(t not in idle_threads for t in threading.enumerate()) and time.monotonic() < deadline:
            time.sleep(0.0005)

    def wire_bytes(self) -> int:
        return sum(t.total_stats().bytes_sent for t in self.stat_sources)


# ---------------------------------------------------------------------------
# push-tree


class PushTree:
    """Twelve modeled agencies in three segments; each op pushes a new kind to all."""

    def __init__(self, code: bytes) -> None:
        start = time.perf_counter()
        self.network = transport.InProcNetwork()
        segments = {
            f"seg{s}": [transport.Endpoint(f"10.0.{s}.{h}", 9000) for h in range(1, PUSH_HOSTS_PER_SEGMENT + 1)]
            for s in range(PUSH_SEGMENTS)
        }
        manager = segments["seg0"][0]
        mdms = {seg: hosts[0] for seg, hosts in segments.items() if seg != "seg0"}
        self.topology = distribution.Topology(segments=segments, manager=manager, mdms=mdms)
        self.opts = transport.TransportOpts()
        hosts = [ep for eps in segments.values() for ep in eps]
        self.agencies = []
        for ep in hosts:
            t = transport.ModeledTransport(self.network, ep, link_model=LINK)
            a = agency.Agency(str(ep), ep, t, self.opts, topology=self.topology)
            a.start()
            self.agencies.append(a)
        self.manager = self.agencies[0]
        self.plan = distribution.plan_distribution(hosts, self.topology, "hierarchical")
        self.remote_links = [
            self.topology.link_between("seg0", seg) for seg in segments if seg != "seg0"
        ]
        self._base_code = code
        self._kinds = 0
        image = self.next_image()
        self._push(image)
        self.manager.install_code(image)
        schema = list(bench.optimised_record().fields)
        for a in self.agencies:
            a.register_behavior(image.kind_name, agency.collector_behavior(schema))
        self.setup_s = time.perf_counter() - start
        self._inter_frames = 0

    def close(self) -> None:
        for a in self.agencies:
            a.stop()

    def next_image(self):
        """A new kind per op: fixed-width name, seeded code with the op's serial in front."""
        self._kinds += 1
        code = self._kinds.to_bytes(8, "big") + self._base_code[8:]
        return agency.CodeImage.from_code(f"Kind{self._kinds:08d}", code)

    def _push(self, image):
        return distribution.push_code(self.plan, image, self.manager.transport, self.opts, self.topology)

    def inter_segment_code_frames(self) -> int:
        return self._inter_frames

    def run(self, deadline_ns: int, record: Record) -> None:
        n_remote = len(self.agencies) - 1
        while time.perf_counter_ns() < deadline_ns:
            image = self.next_image()
            payload_len = 2 + len(image.kind_name) + wire.DIGEST_LEN + 4 + image.size_bytes
            before = [link.stats.code_bytes_sent for link in self.remote_links]
            start = time.perf_counter_ns()
            try:
                report = self._push(image)
            except Exception as exc:  # any raise is one failed op, not a crash
                record(start, time.perf_counter_ns(), None, f"{type(exc).__name__}: {exc}")
                continue
            end = time.perf_counter_ns()
            frames = [
                (link.stats.code_bytes_sent - b) // payload_len
                for link, b in zip(self.remote_links, before)
            ]
            self._inter_frames += sum(frames)
            error = None
            if len(report.acks) != n_remote or not report.all_ok:
                error = f"{sum(report.acks.values())}/{n_remote} hosts acked: {report.errors}"
            elif frames != [1] * len(frames):
                error = f"code frames per inter-segment link {frames}, expected one each"
            record(start, end, None, error)

    def wire_bytes(self) -> int:
        return self.manager.transport.total_stats().bytes_sent


# ---------------------------------------------------------------------------


def pingpong_tcp(inputs: Inputs) -> Callable[[], PingPong]:
    code = inputs.code(PINGPONG_CODE_BYTES)
    return lambda: PingPong(
        inputs, bench.optimised_record(), code, expected_hop=1, real=True, in_flight=2
    )


def pingpong_modeled(inputs: Inputs) -> Callable[[], PingPong]:
    code = inputs.code(PINGPONG_CODE_BYTES)
    return lambda: PingPong(inputs, bench.optimised_record(), code, expected_hop=1, real=False)


def pingpong_modeled_4k_gzip(inputs: Inputs) -> Callable[[], PingPong]:
    code = inputs.code(PINGPONG_CODE_BYTES)
    template = _big_record(inputs.state_text())
    return lambda: PingPong(inputs, template, code, expected_hop=2, real=False, compress=True)


def push_tree(inputs: Inputs) -> Callable[[], PushTree]:
    code = inputs.code(PUSH_CODE_BYTES)
    return lambda: PushTree(code)


# name -> prepare(inputs), which draws the inputs once and returns the set-up
WORKLOADS = {
    "pingpong-tcp": pingpong_tcp,
    "pingpong-modeled": pingpong_modeled,
    "pingpong-modeled-4k-gzip": pingpong_modeled_4k_gzip,
    "push-tree": push_tree,
}
