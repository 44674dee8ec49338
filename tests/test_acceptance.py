"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single pass/fail
line (visible with ``pytest -s`` or in captured output on failure).
"""

import functools
import random
import statistics
import threading

import pytest

from agentway import bench, wire
from agentway.agency import Agency, AdmissionError, CodeCache, CodeImage
from agentway.distribution import Topology, plan_distribution, push_code, resolve_itinerary
from agentway.transport import Endpoint, InProcNetwork, LinkModel, ModeledTransport, TransportOpts
from agentway.wire import FieldDescriptor, Frame, FrameKind, StateRecord, TypeTag
from conftest import Cluster, random_record


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} ({title}): FAIL")
                raise
            print(f"criterion {number:02d} ({title}): PASS")
        return wrapper
    return deco


# ---------------------------------------------------------------------------


@criterion(1, "state-only migration over 100 hops")
def test_01_state_only_migration():
    cluster = Cluster(5)
    fields = [
        FieldDescriptor("it", TypeTag.STRING_ARRAY),
        FieldDescriptor("data", TypeTag.STRING_ARRAY),
    ]
    image = CodeImage.from_code("Tourist", b"\xd0\x0d" * 64)
    cluster.install_everywhere(image, fields, behavior="collector")
    try:
        offending = []

        def inspect(dest, frame):
            if frame.kind != FrameKind.AGENT_TRANSFER:
                return
            payload = wire.AgentTransferPayload.decode(frame.payload)
            if image.code in payload.state or len(payload.state) == 0:
                offending.append(dest)

        cluster.network.add_tap(inspect)

        def code_bytes_total():
            return sum(
                a.transport.total_stats().code_bytes_sent
                for a in cluster.agencies.values()
            )

        before = code_bytes_total()
        hops = 100
        itinerary = [cluster.endpoints[i % 5] for i in range(1, hops)]
        itinerary.append(cluster.endpoints[0])
        record = StateRecord(kind_name="Tourist", fields=fields)
        agent_id = cluster.agency(0).launch(record, itinerary)
        cluster.network.run()
        done = cluster.agency(0).completions[agent_id]
        assert len(done["data"]) == hops
        assert offending == []
        assert code_bytes_total() == before  # exact counter equality
    finally:
        cluster.stop()


@criterion(2, "tree multicast uses the trunk link once")
@pytest.mark.parametrize("n", [2, 8, 32])
def test_02_tree_multicast_saving(n):
    manager = Endpoint("10.1.0.1", 9000, "tcp")
    mdm = Endpoint("10.2.0.1", 9000, "tcp")
    remote_hosts = [Endpoint(f"10.2.0.{i + 2}", 9000, "tcp") for i in range(n)]
    image = CodeImage.from_code("Tourist", b"\x42" * 2048)
    code_payload_bytes = len(
        wire.CodePushPayload(image.kind_name, image.digest, image.code).encode()
    )
    trunk_bytes = {}
    for mode in ("flat", "hierarchical"):
        topo = Topology(
            segments={"hq": [manager], "branch": [mdm, *remote_hosts]},
            manager=manager,
            mdms={"branch": mdm},
        )
        network = InProcNetwork()
        opts = TransportOpts()
        agencies = []
        for host in (manager, mdm, *remote_hosts):
            agency = Agency(host.address, host, ModeledTransport(network, host),
                            opts, topology=topo)
            agency.start()
            agencies.append(agency)
        try:
            plan = plan_distribution(list(remote_hosts), topo, mode)
            report = push_code(plan, image, agencies[0].transport, opts, topo)
            assert report.all_ok
            trunk_bytes[mode] = topo.link("branch--hq").stats.code_bytes_sent
        finally:
            for agency in agencies:
                agency.stop()
    assert trunk_bytes["hierarchical"] == code_payload_bytes  # exactly once
    assert trunk_bytes["flat"] == n * trunk_bytes["hierarchical"]  # exact ratio


@criterion(3, "per-variant size deltas match the wire layout")
def test_03_exact_size_arithmetic():
    # independent closed-form oracle: field = 1 + len(name) + 1 + payload(tag)
    def field_size(name, payload):
        return 1 + len(name.encode("utf-8")) + 1 + payload

    table = bench.run_size_experiment(bench.default_size_variants())
    deltas = {r.description: r.delta_uncompressed for r in table.rows
              if r.delta_uncompressed is not None}
    assert deltas["add persistent int32 field 'n'"] == field_size("n", 4)  # 7
    assert deltas["make int32 field 'hop' transient"] == -field_size("hop", 4)  # -9
    assert deltas["20-char string value shortened to 3 chars"] == -(20 - 3)
    assert deltas["add persistent 10-char string field 's2'"] == field_size("s2", 4 + 10)
    # the canonical one-char-name examples (strings carry a 4-byte length)
    assert field_size("hop", 4) == 9
    assert field_size("s", 4 + 10) == 17
    java = {r.description: r.java_uncompressed_ref for r in table.rows}
    assert java["add persistent int32 field 'n'"] == 17  # reference column only


@criterion(4, "composite record at least 30% smaller, pinned exactly")
def test_04_composite_reduction():
    # oracle: sum the closed-form field sizes, independent of measure_state
    def record_size(kind, namespace, fields):
        total = 2 + len(kind) + 2 + len(namespace) + 4 + 2
        for name, payload in fields:
            total += 1 + len(name) + 1 + payload
        return total

    def string_array(entries):
        return 2 + sum(4 + len(e) for e in entries)

    itinerary = ["10.0.0.2:9001", "10.0.0.1:9001"]
    non_opt = record_size("MobileAgentExample", "MobileAgentPackage", [
        ("itinerary", string_array(itinerary)),
        ("datafolder", string_array([])),
        ("originatingHost", 4 + len("origin.example.net")),
        ("encryptData", 1),
        ("doTask", 1),
        ("hop", 4),
    ])
    opt = record_size("MAExample", "MAPack", [
        ("it", string_array(itinerary)),
        ("data", string_array([])),
        # origin/encryptData/doTask/hop are transient: absent from the wire
    ])
    assert non_opt == 178 and opt == 73  # oracle agrees with the pinned sizes
    assert len(wire.encode_state(bench.non_optimised_record())) == non_opt
    assert len(wire.encode_state(bench.optimised_record())) == opt
    reduction = round(100.0 * (non_opt - opt) / non_opt, 1)
    assert reduction == 59.0  # pinned from the oracle above
    assert reduction >= 30.0
    table = bench.run_size_experiment(bench.default_size_variants())
    assert table.reduction_pct_uncompressed == reduction


@criterion(5, "LRU cache matches a reference simulation")
def test_05_lru_cache():
    rng = random.Random(20260823)
    kinds = [f"K{i}" for i in range(16)]
    for _ in range(1000):
        capacity = rng.randint(1, 8)
        cache = CodeCache(capacity=capacity)
        reference: list[str] = []  # least recently used first
        trace, expected = [], []
        for _ in range(rng.randint(3, 30)):
            kind = rng.choice(kinds)
            if rng.random() < 0.5:
                trace.extend(cache.install(CodeImage.from_code(kind, kind.encode())).evicted)
                if kind in reference:
                    reference.remove(kind)
                else:
                    if len(reference) == capacity:
                        expected.append(reference.pop(0))
                reference.append(kind)
            else:
                hit = cache.lookup(kind) is not None
                assert hit == (kind in reference)
                if hit:
                    reference.remove(kind)
                    reference.append(kind)
        assert trace == expected  # exact eviction-order equality

    cache = CodeCache(capacity=4)
    violations = []

    def worker(seed):
        wrng = random.Random(seed)
        for _ in range(400):
            kind = f"K{wrng.randint(0, 11)}"
            if wrng.random() < 0.5:
                cache.install(CodeImage.from_code(kind, kind.encode()))
            else:
                cache.lookup(kind)
            if len(cache) > 4:
                violations.append(len(cache))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert violations == []


@criterion(6, "codec round trips")
def test_06_codec_roundtrips():
    rng = random.Random(606)
    for _ in range(100):
        record = random_record(rng)
        out = wire.decode_state(wire.encode_state(record), record.fields)
        assert out.kind_name == record.kind_name
        assert out.namespace == record.namespace
        for f in record.fields:
            expected = f.default if f.transient else record.values[f.name]
            got = out.values[f.name]
            if isinstance(expected, float):
                assert got == pytest.approx(expected)
            else:
                assert got == expected
    for _ in range(100):
        frame = Frame(rng.choice(list(FrameKind)),
                      rng.randbytes(rng.randint(0, 4096)),
                      rng.choice((0, wire.FLAG_COMPRESSED, wire.FLAG_PROBE)))
        data = wire.encode_frame(frame)
        assert wire.encode_frame(wire.decode_frame(data)) == data  # bit-exact
    for _ in range(50):
        payload = rng.randbytes(rng.randint(0, 8192))
        assert wire.decompress_payload(wire.compress_payload(payload, 6)) == payload


@criterion(7, "seven-phase accounting over 100 repetitions")
def test_07_seven_phase_accounting():
    timings = bench.run_pingpong(bench.RunConfig(repetitions=100, warmup=5))
    assert len(timings) == 100
    for t in timings:
        phases = t.phases()
        assert len(phases) == 7
        assert all(p >= 0 for p in phases)
    residual_ratio = statistics.median(t.residual_ns / t.total_ns for t in timings)
    assert residual_ratio <= 0.10
    summary = bench.summarize(timings)
    assert summary.share_sum() == pytest.approx(100.0, abs=0.1)


@criterion(8, "compression crossover orderings and slope")
def test_08_compression_crossover():
    states = [(f"{n}B", bench.sized_variant(n)) for n in (512, 4000, 32768)]
    # (a) infinite bandwidth: compression is never faster, for any state
    report = bench.run_compression_crossover(
        states, [LinkModel(float("inf"), 0.001)], reps=30
    )
    for cell in report.cells:
        assert cell.total_compressed_ns >= cell.total_uncompressed_ns
    # (b) 64 kbps, 4000-byte high-redundancy state: compression strictly wins
    report = bench.run_compression_crossover(
        [("4000B", bench.sized_variant(4000))], [LinkModel(64_000, 0.001)], reps=30
    )
    assert report.cells[0].diff_ns < 0
    # (c) diff is affine in 1/bandwidth with slope -8 * (bytes saved per round trip)
    bandwidths = [64_000, 1_000_000, 10_000_000]
    report = bench.run_compression_crossover(
        [("4000B", bench.sized_variant(4000))],
        [LinkModel(bw, 0.001) for bw in bandwidths],
        reps=30,
    )
    cost = report.costs["4000B"]
    xs = [1.0 / c.bandwidth_bps for c in report.cells]
    ys = [c.diff_ns / 1e9 for c in report.cells]  # seconds
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    slope = (sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
             / sum((x - mean_x) ** 2 for x in xs))
    expected = -8.0 * cost.roundtrip_bytes_saved
    assert slope == pytest.approx(expected, rel=0.01)


@criterion(9, "itineraries resolve at launch, never during hops")
def test_09_pre_resolution():
    cluster = Cluster(3)
    fields = [
        FieldDescriptor("it", TypeTag.STRING_ARRAY),
        FieldDescriptor("data", TypeTag.STRING_ARRAY),
    ]
    image = CodeImage.from_code("Tourist", b"\x77" * 32)
    cluster.install_everywhere(image, fields, behavior="collector")
    addresses = {f"host{i}": ep.address for i, ep in enumerate(cluster.endpoints)}
    calls = []

    def resolver(name):
        calls.append(name)
        return addresses[name]

    try:
        names = [f"host{i % 3}:9000" for i in range(1, 10)] + ["host0:9000"]
        assert len(names) == 10
        itinerary = resolve_itinerary(names, resolver=resolver)
        assert len(calls) == 10  # one resolution per stop, all at launch time
        assert [e.key for e in itinerary] == [
            (addresses[n.split(":")[0]], 9000) for n in names
        ]
        record = StateRecord(kind_name="Tourist", fields=fields)
        agent_id = cluster.agency(0).launch(record, itinerary)
        launch_count = len(calls)
        cluster.network.run()
        assert agent_id in cluster.agency(0).completions
        assert len(calls) == launch_count  # exactly zero during hops
    finally:
        cluster.stop()


@criterion(10, "size, serdes time, and transfer time grow together")
def test_10_monotone_size_effect():
    sizes = [512, 4096, 32768]
    records = {n: bench.sized_variant(n) for n in sizes}
    bench.measure_serdes_cost("warmup", records[512], reps=5)
    # the sizes take turns, one cycle each, 240 rounds over, so a change in host
    # speed hits every size alike; a size's cost is then the least median over
    # blocks of 20 consecutive rounds, which drops the blocks a slowdown hit.
    # Serdes work is aggregated across both wire configurations: the plain
    # pipeline alone is memcpy-bound and its 512-vs-4096 gap sits below
    # scheduler noise
    rounds, block = 240, 20
    costs = {n: [] for n in sizes}
    for _ in range(rounds):
        for n in sizes:
            costs[n].append(bench.measure_serdes_cost(f"{n}B", records[n], reps=1))
    wire_sizes = [costs[n][0].uncompressed_frame_bytes for n in sizes]
    serdes = []
    for n in sizes:
        cycles = [c.pipeline_uncompressed_ns + c.pipeline_compressed_ns for c in costs[n]]
        serdes.append(min(statistics.median(cycles[i : i + block]) for i in range(0, rounds, block)))
    link = LinkModel(10_000_000, 0.001)
    transfer = [link.delay_s(n) for n in wire_sizes]
    assert wire_sizes == sorted(wire_sizes)
    assert serdes == sorted(serdes)
    assert transfer == sorted(transfer)


@criterion(11, "push-before-transfer admission")
def test_11_push_only_admission():
    cluster = Cluster(2)
    fields = [
        FieldDescriptor("it", TypeTag.STRING_ARRAY),
        FieldDescriptor("data", TypeTag.STRING_ARRAY),
    ]
    image = CodeImage.from_code("Tourist", b"\x11" * 128)
    from agentway.agency import collector_behavior

    for agency in cluster.agencies.values():
        agency.register_behavior("Tourist", collector_behavior(fields))
    try:
        target = cluster.endpoints[1]
        record = StateRecord(
            kind_name="Tourist", fields=fields,
            values={"it": [str(target), str(cluster.endpoints[0])], "data": []},
        )
        payload = wire.AgentTransferPayload(
            b"\x09" * 16, image.digest, 0, wire.encode_state(record)
        )
        transfer = Frame(FrameKind.AGENT_TRANSFER, payload.encode())
        receiver = cluster.agency(1)
        receipt = cluster.agency(0).transport.send_frame(target, transfer, cluster.opts)
        assert not receipt.ok and receipt.error_code == wire.ERR_CODE_MISSING
        # the refusal left no trace: nothing admitted, decoded, or executed
        assert not receiver.hops and receiver.completions == {}

        push = Frame(
            FrameKind.CODE_PUSH,
            wire.CodePushPayload(image.kind_name, image.digest, image.code).encode(),
        )
        assert cluster.agency(0).transport.send_frame(target, push, cluster.opts).ok
        cluster.agency(0).install_code(image)  # origin must hold it for the return hop
        receipt = cluster.agency(0).transport.send_frame(target, transfer, cluster.opts)
        assert receipt.ok  # the very same transfer now succeeds
        cluster.network.run()
    finally:
        cluster.stop()
