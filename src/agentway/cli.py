"""Operator entry points: run an agency, push code, launch agents, benchmark.

Exit codes: 0 success, 1 usage error (nothing executed), 2 runtime failure.
Config files are JSON; flags override file values. AGENTWAY_LOG sets the
log level.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import os
import sys
import threading
from typing import Optional

from . import bench, wire
from .agency import Agency, AgencyError, BUILTIN_BEHAVIORS, CodeImage
from .distribution import (
    DistributionError,
    Topology,
    plan_distribution,
    push_code,
    resolve_itinerary,
)
from .transport import (
    LinkModel,
    SocketTransport,
    TransportError,
    TransportOpts,
    parse_endpoint,
)

log = logging.getLogger("agentway")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="agentway")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run an agency until interrupted")
    p.add_argument("--config", required=True)
    _transport_flags(p)

    p = sub.add_parser("push", help="distribute a code image over a topology")
    p.add_argument("--topology", required=True)
    p.add_argument("--code", required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--mode", choices=("flat", "hierarchical"), default="hierarchical")
    p.add_argument("--itinerary", help="comma-separated host:port list; default: all hosts")
    # code is never compressed
    p.add_argument("--no-delay", action="store_true", default=None, dest="no_delay")

    p = sub.add_parser("launch", help="launch an agent along an itinerary")
    p.add_argument("--config", required=True, help="origin agency config")
    p.add_argument("--kind", required=True)
    p.add_argument("--code", help="code image file to install at the origin")
    p.add_argument("--itinerary", required=True, help="comma-separated host:port list")
    _transport_flags(p)

    p = sub.add_parser("bench-pingpong", help="run the seven-phase ping-pong benchmark")
    p.add_argument("--config")
    p.add_argument("--reps", type=int)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    _transport_flags(p)

    p = sub.add_parser("bench-size", help="state-size experiment table")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")

    p = sub.add_parser("bench-crossover", help="compression crossover analysis")
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")

    p = sub.add_parser("report", help="summarize a ping-pong CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    return parser


def _transport_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--compress", action="store_true", default=None)
    p.add_argument("--no-delay", action="store_true", default=None, dest="no_delay")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _opts_from(doc: dict, args: argparse.Namespace) -> TransportOpts:
    merged = dict(doc.get("transport", {}))
    unknown = sorted(merged.keys() - inspect.signature(TransportOpts).parameters.keys())
    if unknown:
        raise UsageError(f'unknown "transport" key(s) in config: {", ".join(unknown)}')
    for key in ("compress", "no_delay"):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return TransportOpts(**merged)


def _build_agency(config: dict, args: argparse.Namespace) -> Agency:
    opts = _opts_from(config, args)
    bind = parse_endpoint(config["bind"])
    cache_limits = {k: config[k] for k in ("cache_capacity", "cache_byte_limit") if k in config}
    agency = Agency(
        host_name=config.get("host_name", str(bind)),
        bind=bind,
        transport=SocketTransport(),
        opts=opts,
        **cache_limits,
    )
    for entry in config.get("behaviors", []):
        kind = entry["kind"]
        factory = BUILTIN_BEHAVIORS.get(entry["behavior"])
        if factory is None:
            raise UsageError(f"unknown behavior {entry['behavior']!r}")
        if "schema" in entry:
            _, _, schema = wire.schema_from_dict(entry["schema"])
        else:
            schema = bench.optimised_record().fields
        agency.register_behavior(kind, factory(schema))
    return agency


def cmd_serve(args) -> int:
    agency = _build_agency(_load_json(args.config), args)
    agency.start()
    log.info("agency %s serving on %s", agency.host_name, agency.bind)
    try:
        threading.Event().wait()  # until SIGINT interrupts it
    except KeyboardInterrupt:
        return 0
    finally:
        agency.stop()


def cmd_push(args) -> int:
    topology = Topology.load(args.topology)
    with open(args.code, "rb") as fh:
        image = CodeImage.from_code(args.kind, fh.read())
    if args.itinerary:
        itinerary = resolve_itinerary(args.itinerary.split(","))
    else:
        itinerary = [h for hosts in topology.segments.values() for h in hosts]
    opts = _opts_from({}, args)
    plan = plan_distribution(itinerary, topology, args.mode)
    with SocketTransport() as transport:
        report = push_code(plan, image, transport, opts, topology)
    for peer, ok in sorted(report.acks.items()):
        status = "ok" if ok else f"FAILED ({report.errors.get(peer, '?')})"
        print(f"{peer[0]}:{peer[1]}  {status}")
    for link_id, stats in sorted(report.per_link.items()):
        print(f"link {link_id}: {stats.frames_sent} code frames, {stats.bytes_sent} bytes")
    print(f"elapsed: {report.elapsed_s * 1000:.1f} ms")
    return 0 if report.all_ok else 2


def cmd_launch(args) -> int:
    config = _load_json(args.config)
    agency = _build_agency(config, args)
    agency.start()
    try:
        itinerary = resolve_itinerary(args.itinerary.split(","))
        if itinerary[-1].key != agency.bind.key:
            itinerary = itinerary + [agency.bind]
        if args.code:
            with open(args.code, "rb") as fh:
                agency.install_code(CodeImage.from_code(args.kind, fh.read()))
        image = agency.lookup_code(args.kind)
        if image is None:
            print(f"no local code image for {args.kind!r}; push first", file=sys.stderr)
            return 2
        for stop in itinerary[:-1]:  # push model: refuse rather than fall back to pull
            if not agency.probe_code(stop, args.kind, image.digest):
                print(f"{stop} lacks code for {args.kind!r}; push first", file=sys.stderr)
                return 2
        record = bench.optimised_record()
        agent_id = agency.launch(record, itinerary)
        try:
            agency.wait(agent_id, len(itinerary) - 1, 60.0)
        except TimeoutError:
            print("timed out waiting for the agent to return", file=sys.stderr)
            return 2
        except AgencyError as exc:
            print(f"agent failed: {exc}", file=sys.stderr)
            return 2
        print(json.dumps({"data": agency.completions[agent_id]["data"]}))
        return 0
    finally:
        agency.stop()


def _run_config_from(doc: dict, args) -> bench.RunConfig:
    """A run config from the keys the file sets; the rest keep ``RunConfig``'s defaults."""
    settings = {k: doc[k] for k in ("repetitions", "mode", "pre_create", "warmup") if k in doc}
    if getattr(args, "reps", None):
        settings["repetitions"] = args.reps
    if "state" in doc:
        specs = [bench.FieldSpec(**entry) for entry in doc["state"]["fields"]]
        settings["state"] = bench.make_variant_record(specs)
    config = bench.RunConfig(opts=_opts_from(doc, args), **settings)
    if "link" in doc:
        link = doc["link"]
        config.link = LinkModel(
            link.get("bandwidth_bps", config.link.bandwidth_bits_per_s),
            link.get("latency_s", config.link.latency_s),
        )
    return config


def cmd_bench_pingpong(args) -> int:
    doc = _load_json(args.config) if args.config else {}
    config = _run_config_from(doc, args)
    timings = bench.run_pingpong(config)
    summary = bench.summarize(timings)
    if args.out:
        bench.emit_report(timings, args.out, args.format)
        print(f"wrote {len(timings)} runs to {args.out}")
    print(bench.render_report(summary, "markdown"))
    return 0


def cmd_bench_size(args) -> int:
    table = bench.run_size_experiment(bench.default_size_variants())
    if args.out:
        bench.emit_report(table, args.out, args.format)
        print(f"wrote size table to {args.out}")
    print(bench.render_report(table, "markdown"))
    return 0


def cmd_bench_crossover(args) -> int:
    doc = _load_json(args.config) if args.config else {}
    sizes = doc.get("state_bytes", [500, 4000])
    bandwidths = doc.get("bandwidths_bps", [64_000, 1_000_000, 10_000_000])
    latency = doc.get("latency_s", 0.001)
    states = [(f"{n}B state", bench.sized_variant(n)) for n in sizes]
    links = [LinkModel(bw, latency) for bw in bandwidths]
    report = bench.run_compression_crossover(states, links, reps=doc.get("reps", 30))
    if args.out:
        bench.emit_report(report, args.out, args.format)
        print(f"wrote crossover report to {args.out}")
    print(bench.render_report(report, "markdown"))
    for state, bw in report.crossover_bandwidth_bps.items():
        if bw is None:
            print(f"{state}: compression never pays")
        elif bw == float("inf"):
            print(f"{state}: compression always pays")
        else:
            print(f"{state}: compression pays below {bw / 1000:.0f} kbps")
    return 0


def cmd_report(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        import csv as _csv

        rows = list(_csv.DictReader(fh))
    if not rows:
        raise DistributionError("empty input CSV")
    timings = [
        bench.PhaseTimings(
            *(int(row[name]) for name in bench.PHASE_NAMES), total_ns=int(row["total_ns"])
        )
        for row in rows
    ]
    summary = bench.summarize(timings)
    text = bench.render_report(summary, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


_COMMANDS = {
    "serve": cmd_serve,
    "push": cmd_push,
    "launch": cmd_launch,
    "bench-pingpong": cmd_bench_pingpong,
    "bench-size": cmd_bench_size,
    "bench-crossover": cmd_bench_crossover,
    "report": cmd_report,
}


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(level=os.environ.get("AGENTWAY_LOG", "WARNING").upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AgencyError, TransportError, DistributionError, wire.WireError, bench.BenchError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
