import hashlib
import ipaddress
import random
import statistics
import time

import pytest

from agentway import wire
from agentway.agency import Agency, CodeImage
from agentway.distribution import (
    DistributionError,
    Topology,
    is_address_literal,
    link_id_for,
    plan_distribution,
    push_code,
    resolve_itinerary,
)
from agentway.transport import (
    Endpoint,
    InProcNetwork,
    Link,
    LinkModel,
    ModeledTransport,
    SocketTransport,
    TransportOpts,
)
from agentway.wire import Frame, FrameKind


def ep(seg: int, host: int) -> Endpoint:
    return Endpoint(f"10.0.{seg}.{host}", 9000)


def three_segment_topology() -> Topology:
    """Manager plus two hosts locally; two remote segments of three hosts each."""
    return Topology(
        segments={
            "seg1": [ep(1, 1), ep(1, 2), ep(1, 3)],
            "seg2": [ep(2, 1), ep(2, 2), ep(2, 3)],
            "seg3": [ep(3, 1), ep(3, 2), ep(3, 3)],
        },
        manager=ep(1, 1),
        mdms={"seg2": ep(2, 1), "seg3": ep(3, 1)},
    )


ALL_NINE = [ep(s, h) for s in (1, 2, 3) for h in (1, 2, 3)]


class TestResolve:
    def test_literals_pass_through_without_resolver(self):
        out = resolve_itinerary(["10.0.0.1:9000", "10.0.0.2:8000"])
        assert [(e.address, e.port) for e in out] == [("10.0.0.1", 9000), ("10.0.0.2", 8000)]

    def test_resolver_called_exactly_once_per_name(self):
        calls = []

        def resolver(name):
            calls.append(name)
            return "192.168.1.10"

        out = resolve_itinerary(["alpha:9000", "10.0.0.5:9000", "beta"],
                                resolver=resolver, default_port=7000)
        assert calls == ["alpha", "beta"]
        assert out[0] == Endpoint("192.168.1.10", 9000)
        assert out[2].port == 7000

    def test_unresolvable_name_fails_the_launch(self):
        with pytest.raises(DistributionError, match="resolve"):
            resolve_itinerary(["no-such-host:9000"])

    def test_resolver_error_is_wrapped(self):
        def resolver(name):
            raise KeyError(name)

        with pytest.raises(DistributionError, match="gamma"):
            resolve_itinerary(["gamma:1"], resolver=resolver)

    def test_resolver_returning_non_literal_is_rejected(self):
        with pytest.raises(DistributionError, match="no address"):
            resolve_itinerary(["x:1"], resolver=lambda n: "still-a-name")

    def test_is_address_literal(self):
        assert is_address_literal("10.0.0.1")
        assert is_address_literal("::1")
        assert not is_address_literal("printer.example")


class TestTopology:
    def test_host_in_two_segments_rejected(self):
        with pytest.raises(DistributionError, match="both segments"):
            Topology(segments={"a": [ep(1, 1)], "b": [ep(1, 1)]}, manager=ep(1, 1))

    def test_manager_must_be_a_member(self):
        with pytest.raises(DistributionError, match="manager"):
            Topology(segments={"a": [ep(1, 1)]}, manager=ep(9, 9))

    def test_mdm_must_live_in_its_segment(self):
        with pytest.raises(DistributionError, match="MDM"):
            Topology(
                segments={"a": [ep(1, 1)], "b": [ep(2, 1)]},
                manager=ep(1, 1),
                mdms={"b": ep(1, 1)},
            )

    def test_link_ids_are_symmetric(self):
        assert link_id_for("b", "a") == link_id_for("a", "b") == "a--b"
        assert link_id_for("a", "a") == "local:a"

    def test_from_dict_roundtrip(self):
        doc = {
            "segments": {"a": ["10.0.1.1:9000", "10.0.1.2:9000"], "b": ["10.0.2.1:9000"]},
            "manager": "10.0.1.1:9000",
            "mdms": {"b": "10.0.2.1:9000"},
            "links": {"a--b": {"bandwidth_bps": 64000, "latency_s": 0.01}},
        }
        topo = Topology.from_dict(doc)
        assert topo.segment_of(Endpoint("10.0.2.1", 9000)) == "b"
        assert topo.link("a--b").model.bandwidth_bits_per_s == 64000

    @pytest.mark.parametrize("protocol", ["udp", "UDP", None])  # None: a JSON null
    def test_a_protocol_but_tcp_is_refused(self, protocol):
        doc = {"segments": {"a": ["10.0.1.1:9000"]}, "manager": "10.0.1.1:9000", "protocol": protocol}
        with pytest.raises(ValueError) as info:
            Topology.from_dict(doc)
        assert str(info.value) == f"protocol must be 'tcp', not {protocol!r}: UDP was removed"

    def test_a_tcp_protocol_is_the_same_topology_as_none(self):
        doc = {
            "segments": {"a": ["10.0.1.1:9000"], "b": ["10.0.2.1:9000"]},
            "manager": "10.0.1.1:9000",
            "links": {"a--b": {"bandwidth_bps": 64000}},
        }
        plain, tcp = Topology.from_dict(doc), Topology.from_dict(dict(doc, protocol="tcp"))
        assert (tcp.segments, tcp.manager, tcp.mdms) == (plain.segments, plain.manager, plain.mdms)
        assert tcp.links == plain.links and tcp.link("a--b").model == LinkModel(64000)

    @pytest.mark.parametrize("link_id", ["b--a", "a--c", "a-b"])
    def test_a_link_model_for_no_link_of_the_topology_is_refused(self, link_id):
        doc = {
            "segments": {"a": ["10.0.1.1:9000"], "b": ["10.0.2.1:9000"]},
            "manager": "10.0.1.1:9000",
            "links": {link_id: {"bandwidth_bps": 64000}},
        }
        with pytest.raises(DistributionError, match=repr(link_id)):
            Topology.from_dict(doc)
        with pytest.raises(DistributionError, match=repr(link_id)):
            Topology(segments={"a": [ep(1, 1)], "b": [ep(2, 1)]}, manager=ep(1, 1),
                     links={link_id: Link(link_id)})

    def test_link_between_endpoints_outside_the_topology_is_none(self):
        topo = three_segment_topology()
        assert topo.link_between_endpoints(ep(1, 2), ep(2, 3)) is topo.link("seg1--seg2")
        assert topo.link_between_endpoints(ep(1, 2), ep(9, 9)) is None
        assert topo.link_between_endpoints(ep(9, 9), ep(1, 2)) is None


class TestPlanning:
    def test_hierarchical_nine_hosts_uses_each_wan_link_once(self):
        topo = three_segment_topology()
        plan = plan_distribution(ALL_NINE, topo, "hierarchical")
        # manager -> 2 local + 2 MDMs, then each MDM -> its 2 other hosts
        assert len(plan.edges) == 8
        assert len(plan.edges_on_link("seg1--seg2")) == 1
        assert len(plan.edges_on_link("seg1--seg3")) == 1
        assert len(plan.edges_on_link("local:seg2")) == 2
        assert {e.phase for e in plan.edges_on_link("local:seg2")} == {2}

    def test_flat_nine_hosts_repeats_the_wan_links(self):
        topo = three_segment_topology()
        plan = plan_distribution(ALL_NINE, topo, "flat")
        assert len(plan.edges) == 8  # everyone but the manager
        assert len(plan.edges_on_link("seg1--seg2")) == 3
        assert len(plan.edges_on_link("seg1--seg3")) == 3
        assert all(e.phase == 1 and e.source == topo.manager for e in plan.edges)

    def test_manager_segment_only_itinerary_makes_modes_identical(self):
        topo = three_segment_topology()
        local = [ep(1, 2), ep(1, 3), ep(1, 1)]
        flat = plan_distribution(local, topo, "flat")
        hier = plan_distribution(local, topo, "hierarchical")
        as_set = lambda plan: {(e.source.key, e.target.key, e.link_id) for e in plan.edges}
        assert as_set(flat) == as_set(hier)

    def test_duplicate_itinerary_stops_push_once(self):
        topo = three_segment_topology()
        plan = plan_distribution([ep(2, 2), ep(2, 2), ep(1, 1)], topo, "hierarchical")
        assert len([e for e in plan.edges if e.target == ep(2, 2)]) == 1

    def test_missing_mdm_is_an_error(self):
        topo = Topology(
            segments={"a": [ep(1, 1)], "b": [ep(2, 1)]},
            manager=ep(1, 1),
        )
        with pytest.raises(DistributionError, match="no MDM"):
            plan_distribution([ep(2, 1), ep(1, 1)], topo, "hierarchical")

    def test_unknown_host_rejected(self):
        topo = three_segment_topology()
        with pytest.raises(DistributionError, match="not in the topology"):
            plan_distribution([ep(7, 7)], topo, "flat")

    def test_random_itineraries_match_brute_force_link_counts(self):
        topo = three_segment_topology()
        rng = random.Random(515)
        for _ in range(50):
            itinerary = [rng.choice(ALL_NINE) for _ in range(rng.randint(1, 15))]
            targets = {e.key for e in itinerary} - {topo.manager.key}
            per_segment = {}
            for key in targets:
                seg = topo.segment_of(Endpoint(key[0], key[1]))
                per_segment[seg] = per_segment.get(seg, 0) + 1
            flat = plan_distribution(itinerary, topo, "flat")
            hier = plan_distribution(itinerary, topo, "hierarchical")
            for seg, count in per_segment.items():
                if seg == "seg1":
                    continue
                wan = link_id_for("seg1", seg)
                assert len(flat.edges_on_link(wan)) == count
                assert len(hier.edges_on_link(wan)) == 1
            assert len(flat.edges) == len(targets)
            assert {e.target.key for e in flat.edges} == targets
            assert {e.target.key for e in hier.edges} >= targets - set(
                mdm.key for mdm in topo.mdms.values() if mdm.key not in targets
            )


def live_cluster(topo: Topology, skip=()):
    """Start an in-process agency on every topology host except those in ``skip``."""
    network = InProcNetwork()
    opts = TransportOpts()
    agencies = {}
    for seg, hosts in topo.segments.items():
        for host in hosts:
            if host.key in skip:
                continue
            transport = ModeledTransport(network, host)
            agency = Agency(f"{host.address}", host, transport, opts, topology=topo)
            agency.start()
            agencies[host.key] = agency
    return network, opts, agencies


def fake_relay(network, relay, forward_reply):
    """Take the code push at ``relay`` and answer its forward request with ``forward_reply``."""
    def handler(frame, source):
        return forward_reply if frame.kind == FrameKind.FORWARD_REQUEST else Frame(FrameKind.ACK)
    network.register(relay.key, handler)


class TestPush:
    def test_flat_push_installs_everywhere(self):
        topo = three_segment_topology()
        network, opts, agencies = live_cluster(topo)
        image = CodeImage.from_code("MAExample", b"\xaa" * 512)
        try:
            plan = plan_distribution(ALL_NINE, topo, "flat")
            report = push_code(plan, image, agencies[topo.manager.key].transport, opts, topo)
            assert report.all_ok and len(report.acks) == 8
            for agency in agencies.values():
                if agency.bind.key == topo.manager.key:
                    continue
                assert agency.lookup_code("MAExample") is not None
        finally:
            for a in agencies.values():
                a.stop()

    def test_hierarchical_push_covers_all_and_wan_carries_code_once(self):
        topo = three_segment_topology()
        network, opts, agencies = live_cluster(topo)
        image = CodeImage.from_code("MAExample", b"\xbb" * 512)
        push_frame_bytes = len(wire.encode_frame(Frame(
            FrameKind.CODE_PUSH,
            wire.CodePushPayload(image.kind_name, image.digest, image.code).encode(),
        )))
        try:
            plan = plan_distribution(ALL_NINE, topo, "hierarchical")
            report = push_code(plan, image, agencies[topo.manager.key].transport, opts, topo)
            assert report.all_ok and len(report.acks) == 8
            for key, agency in agencies.items():
                if key != topo.manager.key:
                    assert agency.lookup_code("MAExample") is not None
            assert report.per_link["seg1--seg2"].frames_sent == 1
            assert report.per_link["seg1--seg2"].bytes_sent == push_frame_bytes
            # relay fan-out is counted on each remote segment's local link
            assert report.per_link["local:seg2"].frames_sent == 2
            assert report.per_link["local:seg3"].frames_sent == 2
            # instrumented link saw exactly one CODE_PUSH worth of code payload
            code_payload = wire.CodePushPayload(
                image.kind_name, image.digest, image.code
            ).encode()
            assert topo.link("seg1--seg2").stats.code_bytes_sent == len(code_payload)
        finally:
            for a in agencies.values():
                a.stop()

    def test_flat_wan_bytes_are_host_count_times_hierarchical(self):
        image = CodeImage.from_code("MAExample", b"\xcc" * 1024)
        totals = {}
        for mode in ("flat", "hierarchical"):
            topo = three_segment_topology()
            network, opts, agencies = live_cluster(topo)
            try:
                plan = plan_distribution(ALL_NINE, topo, mode)
                report = push_code(plan, image, agencies[topo.manager.key].transport, opts, topo)
                assert report.all_ok
                totals[mode] = topo.link("seg1--seg2").stats.code_bytes_sent
            finally:
                for a in agencies.values():
                    a.stop()
        assert totals["flat"] == 3 * totals["hierarchical"]

    def test_one_silent_target_is_reported_without_aborting(self):
        topo = three_segment_topology()
        down = ep(2, 3).key
        network, opts, agencies = live_cluster(topo, skip={down})
        image = CodeImage.from_code("MAExample", b"\xdd" * 128)
        try:
            plan = plan_distribution(ALL_NINE, topo, "flat")
            report = push_code(plan, image, agencies[topo.manager.key].transport, opts, topo)
            assert not report.all_ok
            assert report.acks[down] is False and down in report.errors
            ok = [k for k, v in report.acks.items() if v]
            assert len(ok) == 7
        finally:
            for a in agencies.values():
                a.stop()

    def test_relay_reports_per_target_failures(self):
        topo = three_segment_topology()
        down = ep(3, 2).key  # behind the seg3 relay
        network, opts, agencies = live_cluster(topo, skip={down})
        image = CodeImage.from_code("MAExample", b"\xee" * 128)
        try:
            plan = plan_distribution(ALL_NINE, topo, "hierarchical")
            report = push_code(plan, image, agencies[topo.manager.key].transport, opts, topo)
            assert not report.all_ok
            assert report.acks[down] is False
            assert report.acks[ep(3, 3).key] is True  # sibling still covered
            assert report.per_link["local:seg3"].frames_sent == 1  # only the acked target counts
        finally:
            for a in agencies.values():
                a.stop()

    def test_hosts_behind_an_unreachable_relay_are_reported(self):
        topo = three_segment_topology()
        relay = topo.mdms["seg3"]
        network, opts, agencies = live_cluster(topo, skip={relay.key})
        image = CodeImage.from_code("MAExample", b"\xef" * 128)
        try:
            plan = plan_distribution(ALL_NINE, topo, "hierarchical")
            report = push_code(plan, image, agencies[topo.manager.key].transport, opts, topo)
            assert set(report.acks) == {e.target.key for e in plan.edges}
            assert len(report.acks) == 8
            failed = [k for k, ok in report.acks.items() if not ok]
            assert failed == [relay.key, ep(3, 2).key, ep(3, 3).key]
            for behind in (ep(3, 2).key, ep(3, 3).key):
                assert str(relay) in report.errors[behind]
        finally:
            for a in agencies.values():
                a.stop()

    @pytest.mark.parametrize("refused, why", [
        (FrameKind.CODE_PUSH, "refused the code: digest mismatch"),
        (FrameKind.FORWARD_REQUEST, "refused: digest mismatch"),
        (None, "unreachable: connection refused"),  # the relay is gone once it has the code
    ])
    def test_hosts_behind_a_relay_that_does_not_forward_are_reported(self, refused, why):
        topo = three_segment_topology()
        relay = topo.mdms["seg3"]
        network, opts, agencies = live_cluster(topo, skip={relay.key})

        def relay_handler(frame, source):
            if frame.kind == refused:
                nack = wire.ErrorPayload(wire.ERR_DIGEST_MISMATCH, "digest mismatch")
                return Frame(FrameKind.ERROR, nack.encode())
            if refused is None:
                network.unregister(relay.key)
            return Frame(FrameKind.ACK)

        network.register(relay.key, relay_handler)
        image = CodeImage.from_code("MAExample", b"\xf0" * 128)
        try:
            plan = plan_distribution(ALL_NINE, topo, "hierarchical")
            report = push_code(plan, image, agencies[topo.manager.key].transport, opts, topo)
            behind = [ep(3, 2).key, ep(3, 3).key]
            relay_failed = [relay.key] if refused == FrameKind.CODE_PUSH else []
            assert sorted(k for k, ok in report.acks.items() if not ok) == relay_failed + behind
            assert len(report.acks) == 8
            for key in behind:
                assert report.errors[key].startswith(f"relay {relay} {why}")
                assert agencies[key].lookup_code("MAExample") is None
        finally:
            for a in agencies.values():
                a.stop()

    def test_a_relays_unreadable_results_fail_its_hosts_and_the_push_goes_on(self):
        topo = three_segment_topology()
        relay = topo.mdms["seg2"]  # the first relay in the plan: seg3's edges come after it
        network, opts, agencies = live_cluster(topo, skip={relay.key})
        fake_relay(network, relay, Frame(FrameKind.ACK, b"\x00\x01\x00"))
        image = CodeImage.from_code("MAExample", b"\xf1" * 128)
        try:
            plan = plan_distribution(ALL_NINE, topo, "hierarchical")
            report = push_code(plan, image, agencies[topo.manager.key].transport, opts, topo)
            behind = [ep(2, 2).key, ep(2, 3).key]
            assert sorted(k for k, ok in report.acks.items() if not ok) == behind
            for key in behind:
                assert report.errors[key] == (f"relay {relay} returned unreadable results: "
                                              "need 2 bytes at offset 2, have 1")
            for host in (ep(3, 2), ep(3, 3)):  # pushed after the relay that failed
                assert agencies[host.key].lookup_code("MAExample") is not None
        finally:
            for a in agencies.values():
                a.stop()

    def test_a_relay_is_trusted_only_for_its_own_fan_out(self):
        topo = three_segment_topology()
        relay = topo.mdms["seg2"]
        network, opts, agencies = live_cluster(topo, skip={relay.key})
        results = [wire.ForwardResult("10.9.9.9", 1, True), wire.ForwardResult(ep(2, 3).address, 9000, True)]
        fake_relay(network, relay, Frame(FrameKind.ACK, wire.encode_forward_results(results)))
        image = CodeImage.from_code("MAExample", b"\xf2" * 128)
        try:
            plan = plan_distribution(ALL_NINE, topo, "hierarchical")
            report = push_code(plan, image, agencies[topo.manager.key].transport, opts, topo)
            assert not report.all_ok
            assert set(report.acks) == {e.target.key for e in plan.edges}  # no 10.9.9.9
            assert [k for k, ok in report.acks.items() if not ok] == [ep(2, 2).key]
            assert report.errors == {ep(2, 2).key: f"relay {relay} returned no result for it"}
        finally:
            for a in agencies.values():
                a.stop()

    def test_a_push_encodes_a_code_frame_once_per_sender_and_hashes_once_per_host(self, monkeypatch):
        """3 segments of 4 hosts: the manager pushes to 5 targets and each relay to 3.
        Each of the 11 receivers hashes the image once; the pusher's ``from_code``
        image needs no second hash. Each of the 3 senders encodes its frame once."""
        topo = Topology(
            segments={f"seg{s}": [ep(s, h) for h in range(1, 5)] for s in (1, 2, 3)},
            manager=ep(1, 1),
            mdms={"seg2": ep(2, 1), "seg3": ep(3, 1)},
        )
        network, opts, agencies = live_cluster(topo)
        image = CodeImage.from_code("MAExample", random.Random(10).randbytes(64 * 1024))
        received: dict[tuple[str, int], list[Frame]] = {}

        def tap(key, frame):
            if frame.kind == FrameKind.CODE_PUSH:
                received.setdefault(key, []).append(frame)

        network.add_tap(tap)
        calls = {"sha256": 0, "encode": 0, "ip_address": 0}
        sha256, encode_frame, ip_address = hashlib.sha256, wire.encode_frame, ipaddress.ip_address

        def counted(name, fn, only=lambda *args: True):
            def call(*args):
                if only(*args):
                    calls[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(hashlib, "sha256", counted("sha256", sha256))
        monkeypatch.setattr(wire, "encode_frame", counted(
            "encode", encode_frame, lambda frame: frame.kind == FrameKind.CODE_PUSH))
        monkeypatch.setattr(ipaddress, "ip_address", counted("ip_address", ip_address))
        try:
            hosts = [host for seg_hosts in topo.segments.values() for host in seg_hosts]
            plan = plan_distribution(hosts, topo, "hierarchical")
            report = push_code(plan, image, agencies[topo.manager.key].transport, opts, topo)
        finally:
            monkeypatch.undo()
            for a in agencies.values():
                a.stop()
        assert report.all_ok and len(report.acks) == 11
        assert (calls["sha256"], calls["encode"]) == (11, 3)
        # one per relay target, in Endpoint's check, and each relay's bind address on
        # its first forward (18 before: the bind address and the target again per target)
        assert calls["ip_address"] == 8
        assert sorted(received) == sorted(key for key in agencies if key != topo.manager.key)
        sent = {encode_frame(frame) for frames in received.values() for frame in frames}
        assert sum(map(len, received.values())) == 11 and len(sent) == 1

    def test_the_reports_code_bytes_per_link_are_the_links_own_counts(self):
        """3 segments of 4 hosts: the plan's view of each link matches what the link counted."""
        topo = Topology(
            segments={f"seg{s}": [ep(s, h) for h in range(1, 5)] for s in (1, 2, 3)},
            manager=ep(1, 1),
            mdms={"seg2": ep(2, 1), "seg3": ep(3, 1)},
        )
        network, opts, agencies = live_cluster(topo)
        image = CodeImage.from_code("MAExample", random.Random(11).randbytes(64 * 1024))
        before = {link_id: link.stats.code_bytes_sent for link_id, link in topo.links.items()}
        try:
            hosts = [host for seg_hosts in topo.segments.values() for host in seg_hosts]
            report = push_code(plan_distribution(hosts, topo, "hierarchical"),
                               image, agencies[topo.manager.key].transport, opts, topo)
        finally:
            for a in agencies.values():
                a.stop()
        assert report.all_ok
        grown = {link_id: link.stats.code_bytes_sent - before[link_id]
                 for link_id, link in topo.links.items()}
        assert set(report.per_link) == {link_id for link_id, n in grown.items() if n}
        assert len(report.per_link) == 5  # the manager's segment, two WAN links, two fan-outs
        for link_id, stats in report.per_link.items():
            assert stats.code_bytes_sent == grown[link_id]

    def test_tampered_image_refused_before_any_send(self):
        topo = three_segment_topology()
        image = CodeImage("MAExample", b"\x00" * 32, b"not matching")
        plan = plan_distribution(ALL_NINE, topo, "flat")
        with pytest.raises(Exception, match="digest"):
            push_code(plan, image, None, TransportOpts(), topo)


class TestPushOverSockets:
    def test_relayed_pushes_over_pooled_connections_wait_on_no_delayed_ack(self):
        """A frame written in pieces waits for the peer's delayed ACK (about 40 ms
        on Linux) before its last piece goes out. The relay sends to its three
        hosts one after another, so such waits would add over 120 ms to a push."""
        agencies = [Agency(name, Endpoint("127.0.0.1", 0), SocketTransport(), TransportOpts())
                    for name in ("manager", "relay", "h1", "h2", "h3")]
        pusher = SocketTransport()
        try:
            for agency in agencies:
                agency.start()
            manager, relay, *hosts = [agency.bind for agency in agencies]
            topo = Topology(segments={"seg0": [manager], "seg1": [relay, *hosts]},
                            manager=manager, mdms={"seg1": relay})
            plan = plan_distribution([relay, *hosts], topo, "hierarchical")
            code = random.Random(12).randbytes(12 * 1024)
            times = []
            for n in range(6):  # the first push opens the connections the others reuse
                image = CodeImage.from_code(f"Kind{n}", code)
                start = time.perf_counter()
                report = push_code(plan, image, pusher, TransportOpts(), topo)
                times.append(time.perf_counter() - start)
                assert report.all_ok and len(report.acks) == 4
            assert all(agency.lookup_code("Kind5") for agency in agencies[1:])
            assert statistics.median(times[1:]) < 0.030
        finally:
            pusher.close()
            for agency in agencies:
                agency.stop()
