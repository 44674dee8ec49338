"""Instrumented migration benchmarks: the seven-phase ping-pong round trip,
state-size experiments, and the compression crossover analysis.

All durations come from monotonic clocks; wall clocks never enter any
measurement. The ping-pong phases are read from the hop logs of the two
agencies (``Agency.hops``), the records an operator reads: A's launch record
gives A's serialize and the A→B transfer, B's hop record B's deserialize,
serialize and the B→A transfer, and A's completing hop A's deserialize. Both
agencies live in this process, so B's record needs no frame to reach the
bench. Modeled mode computes both transfer phases exactly from the link
parameters, so its reports are bit-reproducible; real-socket mode can only
report the two transfer legs as one combined figure (splitting them would
need cross-host clock sync).
"""

from __future__ import annotations

import csv
import io
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from . import wire
from .agency import Agency, AgencyError, CodeImage, pingpong_behavior
from .transport import (
    Endpoint,
    InProcNetwork,
    LinkModel,
    ModeledTransport,
    SocketTransport,
    TransportOpts,
)
from .wire import FieldDescriptor, StateRecord, TypeTag

PHASE_NAMES = (
    "p1_create",
    "p2_serialize_A",
    "p3_transfer_AtoB",
    "p4_deserialize_B",
    "p5_serialize_B",
    "p6_transfer_BtoA",
    "p7_deserialize_A",
)

# Reference figures from the original Java/PIII-450 study (10 Mbps Ethernet).
# Reported side-by-side in emitted reports, never asserted against this
# implementation's numbers.
PAPER_REFERENCE = {
    "platform": "Java, Pentium III 450 MHz, WinNT, 10 Mbps Ethernet",
    "moderate_state_bytes": {"uncompressed": 678, "compressed": 476},
    "large_state_bytes": {"uncompressed": 3970, "compressed": 1152},
    "share_pct": {
        "moderate": {"transfer": 66.7, "serdes": 26.1},
        "large": {"transfer": 25.4, "serdes": 72.1},
    },
    "creation_share_small_state_pct": 7.3,
    "figure3_bytes": {
        "non_optimised": {"uncompressed": 628, "compressed": 391},
        "optimised": {"uncompressed": 333, "compressed": 227},
        "reduction_pct": {"uncompressed": 47.0, "compressed": 41.9},
    },
}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# state variants


@dataclass(frozen=True)
class FieldSpec:
    name: str
    type: str
    size: int = 0  # payload size for string/bytes values
    transient: bool = False
    value: object = None

    def descriptor(self) -> FieldDescriptor:
        tag = wire.TAG_BY_NAME.get(self.type)
        if tag is None:
            raise BenchError(f"unknown field type {self.type!r}")
        return FieldDescriptor(self.name, tag, transient=self.transient)

    def make_value(self) -> object:
        if self.value is not None:
            return self.value
        descriptor = self.descriptor()
        if descriptor.tag == TypeTag.STRING:
            return _pattern_text(self.size)
        if descriptor.tag == TypeTag.BYTES:
            return _pattern_text(self.size).encode("ascii")
        return wire.field_default(descriptor)


def _pattern_text(n: int) -> str:
    pattern = "AGENTSTATEFIELD."
    return (pattern * (n // len(pattern) + 1))[:n]


BASE_FIELDS = [
    FieldSpec("it", "string[]"),
    FieldSpec("data", "string[]"),
    FieldSpec("hop", "int32"),
]


def make_variant_record(
    specs: list[FieldSpec],
    kind_name: str = "MAExample",
    namespace: str = "MAPack",
) -> StateRecord:
    fields = [s.descriptor() for s in specs]
    values = {s.name: s.make_value() for s in specs}
    return StateRecord(kind_name=kind_name, namespace=namespace, fields=fields, values=values)


def sized_variant(target_bytes: int) -> StateRecord:
    """A conventional record padded with one string field to about target_bytes."""
    floor = wire.measure_state(make_variant_record(BASE_FIELDS + [FieldSpec("s", "string")])).total
    specs = list(BASE_FIELDS) + [FieldSpec("s", "string", size=max(0, target_bytes - floor))]
    return make_variant_record(specs)


DEMO_ITINERARY = ("10.0.0.2:9001", "10.0.0.1:9001")  # the itinerary both composite records carry


def non_optimised_record() -> StateRecord:
    """Long names, everything persistent, the shape a first-cut agent would have."""
    specs = [
        FieldSpec("itinerary", "string[]", value=list(DEMO_ITINERARY)),
        FieldSpec("datafolder", "string[]", value=[]),
        FieldSpec("originatingHost", "string", value="origin.example.net"),
        FieldSpec("encryptData", "bool", value=True),
        FieldSpec("doTask", "bool", value=True),
        FieldSpec("hop", "int32", value=0),
    ]
    return make_variant_record(specs, kind_name="MobileAgentExample", namespace="MobileAgentPackage")


def optimised_record() -> StateRecord:
    """Short names, transients for everything the agent never reports back."""
    specs = [
        FieldSpec("it", "string[]", value=list(DEMO_ITINERARY)),
        FieldSpec("data", "string[]", value=[]),
        FieldSpec("origin", "string", transient=True, value=None),
        FieldSpec("encryptData", "bool", transient=True),
        FieldSpec("doTask", "bool", transient=True),
        FieldSpec("hop", "int32", transient=True),
    ]
    return make_variant_record(specs, kind_name="MAExample", namespace="MAPack")


# ---------------------------------------------------------------------------
# timings


@dataclass
class PhaseTimings:
    p1_create: int
    p2_serialize_A: int
    p3_transfer_AtoB: int
    p4_deserialize_B: int
    p5_serialize_B: int
    p6_transfer_BtoA: int
    p7_deserialize_A: int
    total_ns: int

    def phases(self) -> tuple[int, ...]:
        return (
            self.p1_create,
            self.p2_serialize_A,
            self.p3_transfer_AtoB,
            self.p4_deserialize_B,
            self.p5_serialize_B,
            self.p6_transfer_BtoA,
            self.p7_deserialize_A,
        )

    @property
    def residual_ns(self) -> int:
        return self.total_ns - sum(self.phases())


@dataclass
class RunConfig:
    repetitions: int = 100
    opts: TransportOpts = field(default_factory=TransportOpts)
    state: Optional[StateRecord] = None  # defaults to the optimised demo record
    mode: str = "modeled"  # "modeled" | "real"
    link: LinkModel = field(default_factory=lambda: LinkModel(10_000_000, 0.001))
    pre_create: bool = False
    warmup: int = 5

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.mode not in ("modeled", "real"):
            raise ValueError(f"unknown bench mode {self.mode!r}")


def _make_pingpong_pair(config: RunConfig):
    """Two agencies wired for a ping-pong run; returns (A, B, itinerary, teardown)."""
    template = config.state if config.state is not None else optimised_record()
    if config.mode == "modeled":
        network = InProcNetwork()
        a_ep = Endpoint("10.0.0.1", 7001, config.opts.protocol)
        b_ep = Endpoint("10.0.0.2", 7002, config.opts.protocol)
        t_a = ModeledTransport(network, a_ep, link_model=config.link)
        t_b = ModeledTransport(network, b_ep, link_model=config.link)
    else:
        a_ep = Endpoint("127.0.0.1", 0, config.opts.protocol)
        b_ep = Endpoint("127.0.0.1", 0, config.opts.protocol)
        t_a = SocketTransport()
        t_b = SocketTransport()
    agency_a = Agency("host_a", a_ep, t_a, config.opts)
    agency_b = Agency("host_b", b_ep, t_b, config.opts)
    agency_a.start()  # an agency bound to port 0 takes the picked port into its bind
    agency_b.start()
    kind = template.kind_name
    image = CodeImage.from_code(kind, b"\x00" * 256)
    for agency in (agency_a, agency_b):
        agency.install_code(image)
        agency.register_behavior(kind, pingpong_behavior(template.fields))

    def teardown() -> None:
        agency_a.stop()
        agency_b.stop()

    return agency_a, agency_b, template, [agency_b.bind, agency_a.bind], teardown


def run_pingpong(config: RunConfig) -> list[PhaseTimings]:
    """Time config.repetitions A→B→A round trips, phase by phase."""
    agency_a, agency_b, template, itinerary, teardown = _make_pingpong_pair(config)
    try:
        results: list[PhaseTimings] = []
        pre_created = template.copy() if config.pre_create else None
        total_rounds = config.warmup + config.repetitions
        for i in range(total_rounds):
            timing = _one_roundtrip(agency_a, agency_b, template, itinerary, config, pre_created)
            if i >= config.warmup:
                results.append(timing)
        return results
    finally:
        teardown()


def _one_roundtrip(
    agency_a: Agency,
    agency_b: Agency,
    template: StateRecord,
    itinerary: list[Endpoint],
    config: RunConfig,
    pre_created: Optional[StateRecord],
) -> PhaseTimings:
    agent_id = os.urandom(16)
    if pre_created is not None:
        record, p1 = pre_created.copy(), 0
        start = time.perf_counter_ns()  # total excludes creation
    else:
        start = time.perf_counter_ns()
        record = template.copy()
        p1 = time.perf_counter_ns() - start
    agency_a.launch(record, itinerary, agent_id=agent_id)
    if config.mode == "modeled":
        agency_a.transport.network.run()  # every hop is logged when it returns
    timeout = 0.0 if config.mode == "modeled" else 30.0
    try:  # B logs its hop once A has acknowledged it, which may be after A completes
        back = agency_a.wait(agent_id, 1, timeout)
        there = agency_b.wait(agent_id, 0, timeout)
        launch = agency_a.wait(agent_id, -1, timeout)
    except (AgencyError, TimeoutError) as exc:
        raise BenchError(f"round trip failed: {exc}") from exc
    elapsed = agency_a.completions.pop(agent_id)["completed_ns"] - start
    p2, p4, p5, p7 = launch.encode_ns, there.decode_ns, there.encode_ns, back.decode_ns
    if config.mode == "modeled":
        p3, p6 = launch.send_ns, there.send_ns
        total = elapsed + p3 + p6  # modeled delays are computed, not slept
        return PhaseTimings(
            p1 if pre_created is None else 0, p2, p3, p4, p5, p6, p7, total
        )
    # real mode: transfer directions are not separable without clock sync
    local = p1 + p2 + p4 + p5 + p7
    combined = max(0, elapsed - local)
    return PhaseTimings(p1, p2, combined, p4, p5, 0, p7, elapsed)


# ---------------------------------------------------------------------------
# summaries


@dataclass
class PhaseSummary:
    name: str
    mean_ns: float
    stddev_ns: float
    min_ns: int
    max_ns: int
    share_pct: float


@dataclass
class SummaryStats:
    phases: list[PhaseSummary]
    mean_total_ns: float

    def share_sum(self) -> float:
        return sum(p.share_pct for p in self.phases)


def summarize(timings: list[PhaseTimings]) -> SummaryStats:
    if not timings:
        raise BenchError("cannot summarize an empty run")
    mean_total = statistics.fmean(t.total_ns for t in timings)
    rows = []
    series = {name: [t.phases()[i] for t in timings] for i, name in enumerate(PHASE_NAMES)}
    series["residual"] = [t.residual_ns for t in timings]
    for name, values in series.items():
        mean = statistics.fmean(values)
        rows.append(PhaseSummary(
            name=name,
            mean_ns=mean,
            stddev_ns=statistics.pstdev(values) if len(values) > 1 else 0.0,
            min_ns=min(values),
            max_ns=max(values),
            share_pct=(100.0 * mean / mean_total) if mean_total else 0.0,
        ))
    return SummaryStats(phases=rows, mean_total_ns=mean_total)


# ---------------------------------------------------------------------------
# size experiments


@dataclass
class SizeRow:
    description: str
    uncompressed: int
    compressed: int
    delta_uncompressed: Optional[int] = None
    delta_compressed: Optional[int] = None
    java_uncompressed_ref: Optional[int] = None
    java_compressed_ref: Optional[int] = None


@dataclass
class SizeTable:
    rows: list[SizeRow]
    reduction_pct_uncompressed: Optional[float] = None
    reduction_pct_compressed: Optional[float] = None


@dataclass
class SizeVariant:
    description: str
    record: StateRecord
    baseline: Optional[StateRecord] = None  # deltas computed against this
    java_ref: tuple[Optional[int], Optional[int]] = (None, None)


def _sizes(record: StateRecord) -> tuple[int, int]:
    encoded = wire.encode_state(record)
    return len(encoded), len(wire.compress_payload(encoded))


def run_size_experiment(variants: list[SizeVariant]) -> SizeTable:
    rows = []
    by_description = {}
    for v in variants:
        unc, comp = _sizes(v.record)
        row = SizeRow(
            description=v.description,
            uncompressed=unc,
            compressed=comp,
            java_uncompressed_ref=v.java_ref[0],
            java_compressed_ref=v.java_ref[1],
        )
        if v.baseline is not None:
            base_unc, base_comp = _sizes(v.baseline)
            row.delta_uncompressed = unc - base_unc
            row.delta_compressed = comp - base_comp
        rows.append(row)
        by_description[v.description] = row
    table = SizeTable(rows=rows)
    non_opt = by_description.get("non-optimised composite")
    opt = by_description.get("optimised composite")
    if non_opt and opt and non_opt.uncompressed:
        table.reduction_pct_uncompressed = round(
            100.0 * (non_opt.uncompressed - opt.uncompressed) / non_opt.uncompressed, 1
        )
        table.reduction_pct_compressed = round(
            100.0 * (non_opt.compressed - opt.compressed) / non_opt.compressed, 1
        )
    return table


def default_size_variants() -> list[SizeVariant]:
    """Per-modification deltas mirroring the original study's table, plus the
    composite optimised/non-optimised pair."""
    base = make_variant_record(list(BASE_FIELDS) + [FieldSpec("s", "string", size=20)])
    short_string = make_variant_record(list(BASE_FIELDS) + [FieldSpec("s", "string", size=3)])
    extra_string = make_variant_record(
        list(BASE_FIELDS) + [FieldSpec("s", "string", size=20), FieldSpec("s2", "string", size=10)]
    )
    extra_int = make_variant_record(
        list(BASE_FIELDS) + [FieldSpec("s", "string", size=20), FieldSpec("n", "int32")]
    )
    no_hop = make_variant_record(
        [FieldSpec("it", "string[]"), FieldSpec("data", "string[]"),
         FieldSpec("hop", "int32", transient=True), FieldSpec("s", "string", size=20)]
    )
    return [
        SizeVariant("baseline demo record", base),
        SizeVariant(
            "20-char string value shortened to 3 chars", short_string, baseline=base,
            java_ref=(-17, -15),
        ),
        SizeVariant(
            "add persistent 10-char string field 's2'", extra_string, baseline=base,
            java_ref=(47, 23),
        ),
        SizeVariant(
            "add persistent int32 field 'n'", extra_int, baseline=base, java_ref=(17, 10)
        ),
        SizeVariant(
            "make int32 field 'hop' transient", no_hop, baseline=base, java_ref=(None, None)
        ),
        SizeVariant(
            "non-optimised composite", non_optimised_record(),
            java_ref=tuple(PAPER_REFERENCE["figure3_bytes"]["non_optimised"].values()),
        ),
        SizeVariant(
            "optimised composite", optimised_record(),
            java_ref=tuple(PAPER_REFERENCE["figure3_bytes"]["optimised"].values()),
        ),
    ]


# ---------------------------------------------------------------------------
# compression crossover


@dataclass
class SerdesCost:
    """Median per-round-trip pipeline cost (ns) and wire sizes for one state."""

    description: str
    uncompressed_frame_bytes: int
    compressed_frame_bytes: int
    pipeline_uncompressed_ns: float
    pipeline_compressed_ns: float

    @property
    def roundtrip_bytes_saved(self) -> int:
        return 2 * (self.uncompressed_frame_bytes - self.compressed_frame_bytes)


@dataclass
class CrossoverCell:
    state: str
    bandwidth_bps: float
    latency_s: float
    total_uncompressed_ns: float
    total_compressed_ns: float

    @property
    def diff_ns(self) -> float:
        """compressed minus uncompressed; negative means compression wins."""
        return self.total_compressed_ns - self.total_uncompressed_ns


@dataclass
class CrossoverReport:
    cells: list[CrossoverCell]
    costs: dict[str, SerdesCost]
    crossover_bandwidth_bps: dict[str, Optional[float]]


def _frame_bytes_for_state(state_bytes: bytes) -> int:
    payload_len = wire.AgentTransferPayload.HEADER_LEN + len(state_bytes)
    return payload_len + wire.FRAME_OVERHEAD


def measure_serdes_cost(description: str, record: StateRecord, reps: int = 30) -> SerdesCost:
    """Median cost of one full serdes round trip (2 encodes + 2 decodes),
    with and without compression, measured on this machine."""
    encoded = wire.encode_state(record)
    compressed = wire.compress_payload(encoded)

    def cycle(compress: bool) -> int:
        t0 = time.perf_counter_ns()
        for _ in range(2):  # each round trip serializes and deserializes twice
            img = wire.encode_state(record)
            if compress:
                img = wire.decompress_payload(wire.compress_payload(img))
            wire.decode_state(img, record.fields)
        return time.perf_counter_ns() - t0

    plain, gz = [], []
    for _ in range(reps):  # alternated, so a change in host speed hits both pipelines alike
        plain.append(cycle(False))
        gz.append(cycle(True))
    return SerdesCost(
        description=description,
        uncompressed_frame_bytes=_frame_bytes_for_state(encoded),
        compressed_frame_bytes=_frame_bytes_for_state(compressed),
        pipeline_uncompressed_ns=statistics.median(plain),
        pipeline_compressed_ns=statistics.median(gz),
    )


def run_compression_crossover(
    states: list[tuple[str, StateRecord]],
    links: list[LinkModel],
    reps: int = 30,
) -> CrossoverReport:
    """Modeled-mode only: measured serdes cost plus exact link-formula transfer,
    combined per (state, link) cell."""
    costs = {desc: measure_serdes_cost(desc, rec, reps) for desc, rec in states}
    cells = []
    for desc, _ in states:
        cost = costs[desc]
        for link in links:
            transfer_u = 2 * link.delay_s(cost.uncompressed_frame_bytes) * 1e9
            transfer_c = 2 * link.delay_s(cost.compressed_frame_bytes) * 1e9
            cells.append(CrossoverCell(
                state=desc,
                bandwidth_bps=link.bandwidth_bits_per_s,
                latency_s=link.latency_s,
                total_uncompressed_ns=cost.pipeline_uncompressed_ns + transfer_u,
                total_compressed_ns=cost.pipeline_compressed_ns + transfer_c,
            ))
    crossover: dict[str, Optional[float]] = {}
    for desc, cost in costs.items():
        extra_work = cost.pipeline_compressed_ns - cost.pipeline_uncompressed_ns
        saved = cost.roundtrip_bytes_saved
        if saved <= 0:
            crossover[desc] = None  # compression never pays
        elif extra_work <= 0:
            crossover[desc] = float("inf")  # compression always pays
        else:
            # bandwidth below which compression wins: 8*saved/bw > extra_work
            crossover[desc] = 8.0 * saved / (extra_work / 1e9)
    return CrossoverReport(cells=cells, costs=costs, crossover_bandwidth_bps=crossover)


# ---------------------------------------------------------------------------
# report emission


def emit_report(results, path: str, format: str = "csv") -> None:
    """Write a bench result to disk as CSV or markdown."""
    if format not in ("csv", "markdown"):
        raise BenchError(f"unknown report format {format!r}")
    text = render_report(results, format)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def render_report(results, format: str = "csv") -> str:
    if isinstance(results, list) and results and isinstance(results[0], PhaseTimings):
        header = ["run_index", *PHASE_NAMES, "total_ns", "residual_ns"]
        rows = [
            [i, *t.phases(), t.total_ns, t.residual_ns] for i, t in enumerate(results)
        ]
        return _tabulate(header, rows, format)
    if isinstance(results, SummaryStats):
        header = ["phase", "mean_ns", "stddev_ns", "min_ns", "max_ns", "share_pct"]
        rows = [
            [p.name, f"{p.mean_ns:.1f}", f"{p.stddev_ns:.1f}", p.min_ns, p.max_ns,
             f"{p.share_pct:.2f}"]
            for p in results.phases
        ]
        trailer = _paper_reference_block(format)
        return _tabulate(header, rows, format) + trailer
    if isinstance(results, SizeTable):
        header = [
            "variant", "uncompressed_bytes", "compressed_bytes",
            "delta_uncompressed", "delta_compressed",
            "java_ref_uncompressed", "java_ref_compressed",
        ]
        rows = [
            [r.description, r.uncompressed, r.compressed,
             _blank(r.delta_uncompressed), _blank(r.delta_compressed),
             _blank(r.java_uncompressed_ref), _blank(r.java_compressed_ref)]
            for r in results.rows
        ]
        out = _tabulate(header, rows, format)
        if results.reduction_pct_uncompressed is not None:
            java = PAPER_REFERENCE["figure3_bytes"]["reduction_pct"]
            note = (
                f"composite reduction: {results.reduction_pct_uncompressed}% uncompressed, "
                f"{results.reduction_pct_compressed}% compressed "
                f"(Java reference: {java['uncompressed']:g}% / {java['compressed']:g}%)"
            )
            out += ("\n# " if format == "csv" else "\n\n") + note + "\n"
        return out
    if isinstance(results, CrossoverReport):
        header = [
            "state", "bandwidth_bps", "latency_s",
            "total_uncompressed_ns", "total_compressed_ns", "diff_ns", "winner",
        ]
        rows = [
            [c.state, c.bandwidth_bps, c.latency_s,
             f"{c.total_uncompressed_ns:.0f}", f"{c.total_compressed_ns:.0f}",
             f"{c.diff_ns:.0f}", "compressed" if c.diff_ns < 0 else "uncompressed"]
            for c in results.cells
        ]
        return _tabulate(header, rows, format)
    raise BenchError(f"do not know how to render {type(results).__name__}")


def _blank(v) -> str:
    return "" if v is None else str(v)


def _tabulate(header: list, rows: list[list], format: str) -> str:
    if not rows:
        raise BenchError("empty results; nothing to write")
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    lines = ["| " + " | ".join(str(h) for h in header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


def _paper_reference_block(format: str) -> str:
    ref = PAPER_REFERENCE
    lines = [
        f"paper reference ({ref['platform']}):",
        f"  moderate state: transfer {ref['share_pct']['moderate']['transfer']}%, "
        f"serdes {ref['share_pct']['moderate']['serdes']}%",
        f"  large state: transfer {ref['share_pct']['large']['transfer']}%, "
        f"serdes {ref['share_pct']['large']['serdes']}%",
    ]
    if format == "csv":
        return "".join("# " + line + "\n" for line in lines)
    return "\n" + "\n".join(lines) + "\n"
