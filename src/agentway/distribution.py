"""Push-model code distribution over a segmented topology.

Itineraries are resolved to address literals exactly once at launch time.
Code travels a two-phase tree in hierarchical mode: manager to its local
segment hosts and to each remote segment's relay (MDM), then each relay
fans out inside its own segment, so every inter-segment link carries the
code image exactly once.
"""

from __future__ import annotations

import ipaddress
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import wire
from .agency import CodeImage
from .transport import Endpoint, Link, LinkModel, LinkStats, TransportOpts, parse_endpoint, require_tcp
from .wire import Frame, FrameKind


class DistributionError(Exception):
    pass


def link_id_for(seg_a: str, seg_b: str) -> str:
    if seg_a == seg_b:
        return f"local:{seg_a}"
    return "--".join(sorted((seg_a, seg_b)))


@dataclass
class Topology:
    segments: dict[str, list[Endpoint]]
    manager: Endpoint
    mdms: dict[str, Endpoint] = field(default_factory=dict)
    links: dict[str, Link] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: dict[tuple[str, int], str] = {}
        for seg, hosts in self.segments.items():
            for host in hosts:
                if host.key in seen:
                    raise DistributionError(
                        f"host {host} in both segments {seen[host.key]!r} and {seg!r}"
                    )
                seen[host.key] = seg
        self._segment_of = seen
        if self.manager.key not in seen:
            raise DistributionError(f"manager {self.manager} is not in any segment")
        manager_seg = seen[self.manager.key]
        for seg in self.segments:
            if seg == manager_seg:
                continue
            mdm = self.mdms.get(seg)
            if mdm is not None and seen.get(mdm.key) != seg:
                raise DistributionError(f"MDM {mdm} is not a member of segment {seg!r}")
        # every link between two segments, or inside one, exists as a Link; no other does
        ids = [link_id_for(seg_a, seg_b) for seg_a in self.segments for seg_b in self.segments]
        if stray := sorted(set(self.links) - set(ids)):
            raise DistributionError(f"no link {stray[0]!r} in the topology")
        for link_id in ids:
            if link_id not in self.links:
                self.links[link_id] = Link(link_id)

    def segment_of(self, endpoint: Endpoint) -> str:
        seg = self._segment_of.get(endpoint.key)
        if seg is None:
            raise DistributionError(f"endpoint {endpoint} is not in the topology")
        return seg

    @property
    def manager_segment(self) -> str:
        return self._segment_of[self.manager.key]

    def link(self, link_id: str) -> Link:
        if link_id not in self.links:
            raise DistributionError(f"no link {link_id!r} in the topology")
        return self.links[link_id]

    def link_between(self, seg_a: str, seg_b: str) -> Link:
        return self.link(link_id_for(seg_a, seg_b))

    def link_between_endpoints(self, a: Endpoint, b: Endpoint) -> Optional[Link]:
        """The link from a to b, or None when either is outside the topology."""
        seg_a, seg_b = self._segment_of.get(a.key), self._segment_of.get(b.key)
        if seg_a is None or seg_b is None:
            return None
        return self.link_between(seg_a, seg_b)

    @classmethod
    def from_dict(cls, doc: dict) -> "Topology":
        require_tcp(doc.get("protocol", "tcp"))
        segments = {seg: list(map(parse_endpoint, hosts)) for seg, hosts in doc["segments"].items()}
        manager = parse_endpoint(doc["manager"])
        mdms = {seg: parse_endpoint(h) for seg, h in doc.get("mdms", {}).items()}
        topo = cls(segments=segments, manager=manager, mdms=mdms)
        for link_id, model in doc.get("links", {}).items():
            topo.link(link_id).model = LinkModel(
                bandwidth_bits_per_s=model["bandwidth_bps"],
                latency_s=model.get("latency_s", 0.0),
            )
        return topo

    @classmethod
    def load(cls, path: str) -> "Topology":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class PlanEdge:
    source: Endpoint
    target: Endpoint
    link_id: str
    phase: int  # 1 = from the manager, 2 = relay fan-out


@dataclass
class DistributionPlan:
    edges: list[PlanEdge]

    def edges_on_link(self, link_id: str) -> list[PlanEdge]:
        return [e for e in self.edges if e.link_id == link_id]


@dataclass
class DistributionReport:
    per_link: dict[str, LinkStats]  # the plan's view: a code frame per acked edge
    acks: dict[tuple[str, int], bool]
    errors: dict[tuple[str, int], str]
    elapsed_s: float

    @property
    def all_ok(self) -> bool:
        return all(self.acks.values()) and bool(self.acks)


# ---------------------------------------------------------------------------


def is_address_literal(name: str) -> bool:
    try:
        ipaddress.ip_address(name)
        return True
    except ValueError:
        return False


def resolve_itinerary(
    names: list[str],
    resolver: Optional[Callable[[str], str]] = None,
    default_port: int = 0,
) -> list[Endpoint]:
    """Turn host names into address endpoints, exactly once, at launch time.

    Entries may be "host:port" or bare hosts (then default_port applies);
    address literals pass through without touching the resolver.
    """
    out = []
    for name in names:
        host, sep, port_text = name.rpartition(":")
        if sep and port_text.isdigit():
            port = int(port_text)
        else:
            host, port = name, default_port
        if is_address_literal(host):
            address = host
        else:
            if resolver is None:
                raise DistributionError(f"cannot resolve {host!r}: no resolver supplied")
            try:
                address = resolver(host)
            except Exception as exc:
                raise DistributionError(f"cannot resolve {host!r}: {exc}") from exc
            if address is None or not is_address_literal(address):
                raise DistributionError(f"resolver returned no address for {host!r}")
        out.append(Endpoint(address, port))
    return out


def plan_distribution(
    itinerary: list[Endpoint], topology: Topology, mode: str = "hierarchical"
) -> DistributionPlan:
    if mode not in ("flat", "hierarchical"):
        raise DistributionError(f"unknown distribution mode {mode!r}")
    targets: list[Endpoint] = []
    seen: set[tuple[str, int]] = set()
    for ep in itinerary:
        topology.segment_of(ep)  # raises if unknown
        if ep.key == topology.manager.key or ep.key in seen:
            continue
        seen.add(ep.key)
        targets.append(ep)

    manager = topology.manager
    manager_seg = topology.manager_segment
    edges: list[PlanEdge] = []

    if mode == "flat":
        for host in targets:
            edges.append(PlanEdge(
                manager, host, link_id_for(manager_seg, topology.segment_of(host)), phase=1
            ))
        return DistributionPlan(edges)

    by_segment: dict[str, list[Endpoint]] = {}
    for host in targets:
        by_segment.setdefault(topology.segment_of(host), []).append(host)

    for host in by_segment.get(manager_seg, []):
        edges.append(PlanEdge(manager, host, link_id_for(manager_seg, manager_seg), phase=1))
    for seg in sorted(by_segment):
        if seg == manager_seg:
            continue
        mdm = topology.mdms.get(seg)
        if mdm is None:
            raise DistributionError(f"remote segment {seg!r} has no MDM")
        edges.append(PlanEdge(manager, mdm, link_id_for(manager_seg, seg), phase=1))
        for host in by_segment[seg]:
            if host.key == mdm.key:
                continue  # the relay already holds the code it received
            edges.append(PlanEdge(mdm, host, link_id_for(seg, seg), phase=2))
    return DistributionPlan(edges)


def push_code(
    plan: DistributionPlan,
    image: CodeImage,
    transport,
    opts: Optional[TransportOpts] = None,
    topology: Optional[Topology] = None,
) -> DistributionReport:
    """Execute a distribution plan: one identical CODE_PUSH frame per edge.

    Relay fan-out is requested with a separate FORWARD_REQUEST frame so every
    CODE_PUSH on the wire is byte-identical regardless of mode.
    """
    opts = opts or TransportOpts()
    image.verify()
    push_frame = Frame(
        FrameKind.CODE_PUSH,
        wire.CodePushPayload(image.kind_name, image.digest, image.code).encode(),
    )
    acks: dict[tuple[str, int], bool] = {}
    errors: dict[tuple[str, int], str] = {}
    start = time.perf_counter()

    fanouts: dict[tuple[str, int], list[PlanEdge]] = {}
    for edge in plan.edges:
        if edge.phase == 2:
            fanouts.setdefault(edge.source.key, []).append(edge)

    def unreached(relay: Endpoint, why: str) -> None:
        """Fail the hosts behind a relay that did not pass the code on."""
        for e in fanouts.get(relay.key, []):
            acks[e.target.key] = False
            errors[e.target.key] = f"relay {relay} {why}"

    for edge in plan.edges:
        if edge.phase != 1:
            continue
        link = topology.link(edge.link_id) if topology else None
        try:
            receipt = transport.send_frame(edge.target, push_frame, opts, link=link)
        except Exception as exc:
            acks[edge.target.key] = False
            errors[edge.target.key] = str(exc)
            unreached(edge.target, f"unreachable: {exc}")
            continue
        acks[edge.target.key] = receipt.ok
        if not receipt.ok:
            errors[edge.target.key] = f"code {receipt.error_code}: {receipt.error_message}"
            unreached(edge.target, f"refused the code: {receipt.error_message}")
            continue
        relay_edges = fanouts.get(edge.target.key)
        if not relay_edges:
            continue
        req = wire.ForwardRequestPayload(
            image.kind_name,
            image.digest,
            tuple(
                wire.ForwardTarget(e.target.address, e.target.port, e.link_id)
                for e in relay_edges
            ),
        )
        try:
            fwd_receipt = transport.send_frame(
                edge.target, Frame(FrameKind.FORWARD_REQUEST, req.encode()), opts, link=link
            )
        except Exception as exc:
            unreached(edge.target, f"unreachable: {exc}")
            continue
        if not fwd_receipt.ok:
            unreached(edge.target, f"refused: {fwd_receipt.error_message}")
            continue
        try:
            results = wire.decode_forward_results(fwd_receipt.reply.payload)
        except wire.WireError as exc:
            unreached(edge.target, f"returned unreadable results: {exc}")
            continue
        reported = {(res.address, res.port): res for res in results}  # a host not asked for is ignored
        for e in relay_edges:
            res = reported.get(e.target.key)
            acks[e.target.key] = res is not None and res.ok
            if res is None:
                errors[e.target.key] = f"relay {edge.target} returned no result for it"
            elif not res.ok:
                errors[e.target.key] = f"code {res.error_code}"

    # the plan's view: one code frame on an edge's link for every target that acked it
    frame_bytes, code_bytes = len(push_frame.encoded()), len(push_frame.payload)
    frames = Counter(edge.link_id for edge in plan.edges if acks.get(edge.target.key))
    return DistributionReport(
        per_link={link: LinkStats(n, n * frame_bytes, n * code_bytes) for link, n in frames.items()},
        acks=acks,
        errors=errors,
        elapsed_s=time.perf_counter() - start,
    )
