"""Run one workload of the agentway benchmark and print its metrics.

    python3 benchmark/run.py --workload pingpong-modeled --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/`` of the
same checkout and nowhere else. The run pins itself to one CPU. With
``--trace 0`` it measures the end-to-end metrics with no wrapper in place,
its times scaled to one host speed (see ``Speed``). With ``--trace 1`` it alternates
untraced and traced windows and reports the per-layer metrics, the share of
op time no span covers, and what tracing costs. Human-readable lines come
first; the last line of standard output is one JSON object. The exit code is
0 when every op was correct, 1 when some op failed, 2 when the package is
missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARMUP_S = 0.5  # and at least WARMUP_OPS: push-tree needs 64 kinds to fill the cache
WARMUP_OPS = 100
RSS_AFTER_OPS = 4000  # peak RSS is read after this many ops, so speed does not move it
WINDOW_S = 0.2  # untraced run: ops run in windows of this length, the host's speed probed between them
SETUP_EVERY = 5  # and a fresh set-up timed after every fifth window
REFERENCE_US = 1000.0  # times are scaled to a host that does the reference work in this time
TRACE_WINDOW_S = 0.5  # traced run: length of each untraced or traced window
P99_SAMPLES = 1000  # op_p99_us needs this many ops to have ten beyond it


class Ops:
    """Outcome of every op of one phase: timings of correct ops, counted failures."""

    def __init__(self, rss_after: int = 0) -> None:
        self.samples: list[tuple[int, int, object]] = []
        self.errors: dict[str, int] = {}
        self.attempted = self.failed = 0
        self._rss_after = rss_after
        self.rss_kb = 0

    def record(self, start: int, end: int, key, error) -> None:
        self.attempted += 1
        if error is None:
            self.samples.append((start, end, key))
        else:
            self.failed += 1
            if error in self.errors or len(self.errors) < 20:
                self.errors[error] = self.errors.get(error, 0) + 1
        if self.attempted == self._rss_after:
            self.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def merge(self, other: "Ops") -> None:
        self.samples += other.samples
        self.attempted += other.attempted
        self.failed += other.failed
        for error, n in other.errors.items():
            self.errors[error] = self.errors.get(error, 0) + n


def run_phase(rig, seconds: float, ops: Ops, min_ops: int = 0) -> float:
    """Run the closed loop for ``seconds`` (and ``min_ops``); return the elapsed time."""
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    rig.run(deadline, ops.record)
    while ops.attempted < min_ops:
        rig.run(time.perf_counter_ns() + int(0.1e9), ops.record)
    return (time.perf_counter_ns() - start) / 1e9


def cache_counts(rig) -> tuple[int, int, int]:
    caches = [a.cache for a in rig.agencies]
    return (sum(c.hits for c in caches), sum(c.misses for c in caches), sum(c.evictions for c in caches))


class Speed:
    """How fast the host runs fixed reference work, so times can be scaled to one speed.

    The reference work is plain Python, SHA-256 over 64 KB and a deflate and
    inflate of 4 KB of text: the three kinds of work the workloads do, in
    code the program does not touch. ``scale`` turns a wall time measured now
    into the time on a host that does the reference work in REFERENCE_US.
    """

    def __init__(self, text: bytes) -> None:
        self._blob = random.Random(0).randbytes(64 * 1024)
        self._text = text
        self.probes_us: list[float] = []

    def _work(self) -> None:
        table, acc = {}, 0
        for i in range(1500):  # int keys: str hashing is seeded anew in every process
            table[i] = str(i)
            acc ^= i * 3 + len(table[i])
        hashlib.sha256(self._blob).digest()
        zlib.decompress(zlib.compress(self._text, 6))

    def probe(self) -> float:
        """Time the reference work (best of three) and return the scale it gives."""
        best = None
        for _ in range(3):
            start = time.perf_counter_ns()
            self._work()
            took = time.perf_counter_ns() - start
            best = took if best is None else min(best, took)
        self.probes_us.append(best / 1e3)
        return REFERENCE_US / self.probes_us[-1]


def measure(setup, seconds: float, speed: Speed) -> tuple[dict, Ops]:
    """End-to-end metrics, no tracing.

    The host's speed drifts by more than half for seconds to minutes at a
    time, so the run is cut into windows of WINDOW_S with the reference work
    timed between them. Each op, each window and each set-up is scaled by the
    mean of the probes on either side of it. Every correct op counts in the
    timings and every window in ops_per_s; only the host's speed is taken out.
    """
    rig = setup()
    try:
        ops = Ops()
        run_phase(rig, WARMUP_S, ops, WARMUP_OPS)
        measured = Ops(rss_after=RSS_AFTER_OPS)
        latencies, setup_s = [], []
        elapsed = scaled_elapsed = 0.0
        bytes_before = rig.wire_bytes()
        scale = speed.probe()
        end = time.perf_counter() + seconds
        window = 0
        while time.perf_counter() < end:
            first = len(measured.samples)
            took = run_phase(rig, min(WINDOW_S, max(0.0, end - time.perf_counter())), measured)
            before, scale = scale, speed.probe()
            factor = (before + scale) / 2
            elapsed += took
            scaled_elapsed += took * factor
            latencies += [(stop - start) * factor / 1e3 for start, stop, _ in measured.samples[first:]]
            if window % SETUP_EVERY == 0:
                other = setup()
                other.close()
                before, scale = scale, speed.probe()
                setup_s.append(other.setup_s * (before + scale) / 2)
            window += 1
        sent = rig.wire_bytes() - bytes_before
        rss_kb = measured.rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        rig.close()
    ops.merge(measured)
    if not latencies:
        raise SystemExit(f"no op succeeded: {ops.errors}")
    if len(latencies) < P99_SAMPLES:
        print(f"warning: op_p99_us rests on {len(latencies)} ops, fewer than {P99_SAMPLES}")
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_p50_us": (statistics.median(latencies), "us"),
        "op_p99_us": (statistics.quantiles(latencies, n=100)[98] if len(latencies) > 1 else latencies[0], "us"),
        "ops_per_s": (len(latencies) / scaled_elapsed, "1/s"),
        "wire_bytes_per_op": (sent / measured.attempted, "B"),
        "success_rate": ((ops.attempted - ops.failed) / ops.attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    probes = speed.probes_us
    print(f"samples: {len(latencies)} correct ops of {measured.attempted} in {elapsed:.2f} s "
          f"({window} windows); {len(setup_s)} set-ups")
    print(f"reference work: median {statistics.median(probes):.1f} us, range {min(probes):.1f}-{max(probes):.1f} us "
          f"over {len(probes)} probes; times below are scaled to {REFERENCE_US:g} us")
    print(f"unscaled: ops_per_s {len(latencies) / elapsed:.1f}")
    print(f"error_rate {ops.failed / ops.attempted:.6f} ({ops.failed} of {ops.attempted} ops failed)")
    return metrics, ops


def measure_traced(setup, seconds: float, tracing) -> tuple[dict, Ops]:
    """Per-layer metrics from alternating untraced and traced windows."""
    tracer = tracing.Tracer()
    tracer.install_handle_frame()
    try:
        rig = setup()
        try:
            ops = Ops()
            run_phase(rig, WARMUP_S, ops, WARMUP_OPS)
            counts_before = cache_counts(rig)
            frames_before = rig.inter_segment_code_frames()
            windows = {False: [0, 0.0], True: [0, 0.0]}  # traced -> [ops, seconds]
            end = time.perf_counter() + seconds
            traced = False
            while time.perf_counter() < end:
                window = Ops()
                if traced:
                    tracer.start()
                since = time.perf_counter_ns()
                try:
                    elapsed = run_phase(rig, min(TRACE_WINDOW_S, max(0.0, end - time.perf_counter())), window)
                finally:
                    tracer.stop()
                if traced:
                    tracer.reduce(since, window.samples)
                windows[traced][0] += window.attempted
                windows[traced][1] += elapsed
                ops.merge(window)
                traced = not traced
            all_ops = windows[False][0] + windows[True][0]
            hits, misses, evictions = (
                after - before for after, before in zip(cache_counts(rig), counts_before)
            )
            frames = rig.inter_segment_code_frames() - frames_before
        finally:
            rig.close()
    finally:
        tracer.uninstall_handle_frame()
    traced_ops = windows[True][0]
    if not traced_ops or not windows[False][0]:
        raise SystemExit("the run was too short for one untraced and one traced window")

    def per_op(value: float) -> float:
        return value / traced_ops

    def self_us(name: str) -> float:
        return per_op(tracer.self_ns.get(name, 0)) / 1e3

    serdes_ns = sum(tracer.self_ns.get(name, 0) for name in tracing.WIRE_SPANS)
    if rig.network is not None:  # modeled: op wall time plus the link formula's delay
        transfer_ns = tracer.link_delay_s * 1e9
        total_ns = tracer.op_ns + transfer_ns
    else:  # real sockets: self time of every span, on every thread, plus the uncovered time
        transfer_ns = tracer.self_ns.get("transport.send_frame", 0)
        total_ns = sum(tracer.self_ns.values()) + tracer.uncovered_ns
    total_ns = max(1, total_ns)
    untraced_rate = windows[False][0] / windows[False][1]
    traced_rate = traced_ops / windows[True][1]
    metrics = {}
    for name in ("encode_state", "decode_state", "encode_frame", "decode_frame"):
        metrics[f"wire.{name}.us"] = (self_us(f"wire.{name}"), "us")
    for name in ("wire.decode_frame", "wire.encode_state", "transport.parse_endpoint"):
        metrics[f"{name}.calls"] = (per_op(tracer.calls.get(name, 0)), "count")
    metrics["wire.compress_payload.us"] = (self_us("wire.compress_payload"), "us")
    metrics["wire.decompress_payload.us"] = (self_us("wire.decompress_payload"), "us")
    metrics["wire.state_bytes"] = (tracer.state_bytes / max(1, tracer.state_encodes), "B")
    metrics["wire.compression_ratio"] = (
        tracer.deflate_in / tracer.deflate_out if tracer.deflate_out else 1.0, "ratio"
    )
    metrics["transport.send_frame.us"] = (self_us("transport.send_frame"), "us")
    metrics["transport.send_frame.calls"] = (per_op(tracer.calls.get("transport.send_frame", 0)), "count")
    metrics["transport.defer.wait_us"] = (self_us(tracing.DEFER_WAIT), "us")
    metrics["transport.peak_threads"] = (tracer.peak_threads, "count")
    for name in ("launch", "handle_frame", "admit_agent", "run_hop", "dispatch"):
        metrics[f"agency.{name}.us"] = (self_us(f"agency.{name}"), "us")
    metrics["agency.cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 1.0, "ratio")
    metrics["agency.cache.lookup.calls"] = ((hits + misses) / all_ops, "count")
    metrics["agency.cache.install.us"] = (self_us("agency.cache.install"), "us")
    metrics["agency.cache.evictions"] = (evictions / all_ops, "count")
    metrics["distribution.push_code.us"] = (self_us("distribution.push_code"), "us")
    metrics["distribution.code_bytes"] = (per_op(tracer.code_frame_bytes), "B")
    metrics["distribution.inter_segment_code_frames"] = (frames / all_ops, "count")
    metrics["unattributed_share"] = (tracer.uncovered_ns / max(1, tracer.op_ns), "ratio")
    metrics["tracing_overhead_pct"] = ((untraced_rate / traced_rate - 1) * 100, "%")
    metrics["roundtrip.serdes_share_pct"] = (100 * serdes_ns / total_ns, "%")
    metrics["roundtrip.transfer_share_pct"] = (100 * transfer_ns / total_ns, "%")
    print(f"traced: {traced_ops} ops in {windows[True][1]:.2f} s; "
          f"untraced: {windows[False][0]} ops in {windows[False][1]:.2f} s")
    print(f"error_rate {ops.failed / ops.attempted:.6f} ({ops.failed} of {ops.attempted} ops failed)")
    return metrics, ops


def pin_to_one_cpu() -> int:
    """Run this process, and every thread it starts, on the highest-numbered CPU it may use.

    The reference work then times the same CPU the ops run on, and load on
    the other CPUs moves the run less. A hop handed to another thread never
    wakes it on another CPU, so that cost is not in the figures.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "agentway" / "__init__.py").is_file():
        print(f"error: no agentway package in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    cpu = pin_to_one_cpu()
    import agentway
    import tracing
    import workloads
    from agentway import bench

    if Path(agentway.__file__).resolve().parent != src / "agentway":
        print(f"error: agentway was imported from {agentway.__file__}, not {src}", file=sys.stderr)
        return 2
    prepare = workloads.WORKLOADS.get(args.workload)
    if prepare is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup = prepare(workloads.Inputs(args.workload, args.seed))

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}, on CPU {cpu}")
    if args.trace:
        metrics, ops = measure_traced(setup, args.seconds, tracing)
        ref = bench.PAPER_REFERENCE["share_pct"]
        print(f"paper reference shares (transfer/serdes %): moderate {ref['moderate']['transfer']}/"
              f"{ref['moderate']['serdes']}, large {ref['large']['transfer']}/{ref['large']['serdes']}")
    else:
        speed = Speed(workloads.Inputs("reference", 0).state_text().encode())
        metrics, ops = measure(setup, args.seconds, speed)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    for error, n in ops.errors.items():
        print(f"failed op x{n}: {error}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
