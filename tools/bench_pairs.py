"""Compare a parent commit with the working tree on the agentway benchmark, in pairs.

    python3 tools/bench_pairs.py --parent HEAD --seeds 411-420 --out BENCH_3.json

Run from the repository root. The parent commit is exported with ``git
archive`` into a scratch directory (``--workdir``, a new temporary directory
by default), so the benchmark runs from that commit's files alone; the change
is the working tree as it stands. For every seed and every workload listed in
``BENCHMARK.json``, one run of ``benchmark/run.py`` on each side, as long as
the file's ``run_seconds``, makes a pair;
the side that runs first alternates from seed to seed, so a drift in host
speed does not favour either side. Both sides get identical arguments.

The output file holds every run, each side's ``src/agentway`` line count
(``src_lines``) and, per workload and end-to-end metric, each side's median
and quartiles, how many pairs the change won (ties count for neither side),
whether the change shows a gain (it wins at least nine tenths of the pairs and
its median beats the parent's by more than the distance between the parent's
quartiles) and whether it is worse than the parent's median by more than the
metric's bound. A workload with a failed run on either side is listed under
``failed_runs`` and left out of the summary; the other workloads are still
compared. Each run keeps its measured seconds and window count, read from the
run's ``samples: ... in X s (N windows)`` line; a pair whose two sides ran a
different number of windows (one side lost time, say to a stall between
windows) is listed under ``unequal_windows`` and printed on stderr. The exit
code is 1 when a run failed or any metric is worse than its bound, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = re.compile(r"^samples: .* in ([0-9.]+) s \((\d+) windows\)", re.MULTILINE)


def parse_seeds(text: str) -> list[int]:
    """``"301-310"`` or ``"1,5,9"`` (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def export_commit(rev: str, dest: Path) -> str:
    """Write the files of commit ``rev`` under ``dest``; return its full hash."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    dest.mkdir(parents=True, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def src_lines(checkout: Path) -> int:
    """Physical lines of ``src/agentway/*.py`` in a checkout, counted as ``wc -l`` does."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "agentway").glob("*.py"))


def parse_samples(stdout: str) -> dict:
    """A run's measured seconds and window count, from its ``samples:`` line; {} without one."""
    match = SAMPLES.search(stdout)
    return {"measured_s": float(match[1]), "windows": int(match[2])} if match else {}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its exit code, measured time, window count and final JSON line."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}, "stderr": proc.stderr[-2000:]}
    return {"seed": seed, "exit_code": proc.returncode, **parse_samples(proc.stdout), **result}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(metric: dict, parent_runs: list[dict], change_runs: list[dict]) -> dict:
    """Both sides of one metric on one workload, run by run and summarised."""
    name, lower_is_better = metric["name"], metric["better"] == "lower"
    parent = [r["metrics"][name]["value"] for r in parent_runs]
    change = [r["metrics"][name]["value"] for r in change_runs]
    sign = -1.0 if lower_is_better else 1.0  # positive gain means better
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p, c = quartiles(parent), quartiles(change)
    gain = sign * (c["median"] - p["median"])
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": {**p, "runs": parent},
        "change": {**c, "runs": change},
        "pairs": len(parent),
        "change_wins": wins,
        "median_change_pct": 100.0 * (c["median"] - p["median"]) / p["median"],
        "parent_iqr": p["q3"] - p["q1"],
        "gain_shown": wins >= 0.9 * len(parent) and gain > p["q3"] - p["q1"],
        "worse_than_bound": -gain > metric["bound"] * abs(p["median"]),
    }


def run_failed(run: dict) -> bool:
    return run["exit_code"] != 0 or not run.get("correct")


def summarise(metrics: list[dict], runs: dict[str, dict[str, list[dict]]]) -> dict:
    """Every metric compared on each workload whose runs all succeeded, on both
    sides; a failed run leaves out its own workload only."""
    return {
        w: {m["name"]: compare(m, by_side["parent"], by_side["change"]) for m in metrics}
        for w, by_side in runs.items()
        if not any(run_failed(r) for rs in by_side.values() for r in rs)
    }


def unequal_windows(runs: dict[str, dict[str, list[dict]]]) -> list[str]:
    """Each pair whose parent and change ran a different number of windows."""
    return [
        f"{w} seed {p['seed']}: parent {p.get('windows')} windows, change {c.get('windows')}"
        for w, by_side in runs.items() for p, c in zip(by_side["parent"], by_side["change"])
        if p.get("windows") != c.get("windows")
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against, e.g. HEAD")
    parser.add_argument("--seeds", required=True, help="e.g. 301-310")
    parser.add_argument("--workdir", type=Path, help="where the parent's files go")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    parent_dir = workdir / "parent"
    parent_sha = export_commit(args.parent, parent_dir)
    sides = {"parent": parent_dir, "change": ROOT}
    runs: dict[str, dict[str, list[dict]]] = {w: {"parent": [], "change": []} for w in workloads}

    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                t0 = time.monotonic()
                run = run_once(sides[side], workload, seed, seconds)
                runs[workload][side].append({**run, "order": order.index(side)})
                print(f"seed {seed} {workload:26s} {side:6s} exit {run['exit_code']} "
                      f"({time.monotonic() - t0:.0f} s)", file=sys.stderr, flush=True)

    failed = [
        f"{w} {side} seed {r['seed']}"
        for w, by_side in runs.items() for side, rs in by_side.items() for r in rs if run_failed(r)
    ]
    summary = summarise(spec["end_to_end"], runs)
    worse = [f"{w} {name}" for w, ms in summary.items() for name, m in ms.items() if m["worse_than_bound"]]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    doc = {
        "command": f"python3 tools/bench_pairs.py --parent {args.parent} --seeds {args.seeds} --out {args.out.name}",
        "parent": parent_sha,
        "change": f"working tree on {head}",
        "seeds": seeds,
        "seconds": seconds,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine()},
        "src_lines": {side: src_lines(path) for side, path in sides.items()},
        "failed_runs": failed,
        "unequal_windows": unequal_windows(runs),
        "worse_than_bound": worse,
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for w, ms in summary.items():
        for name, m in ms.items():
            print(f"{w:26s} {name:18s} parent {m['parent']['median']:12.4f} "
                  f"change {m['change']['median']:12.4f} ({m['median_change_pct']:+6.1f}%) "
                  f"wins {m['change_wins']}/{m['pairs']}"
                  f"{'  GAIN' if m['gain_shown'] else ''}{'  WORSE' if m['worse_than_bound'] else ''}")
    lines = doc["src_lines"]
    print(f"src lines: parent {lines['parent']} change {lines['change']} "
          f"({lines['change'] - lines['parent']:+d})")
    for line in failed:
        print(f"failed run: {line}")
    for line in doc["unequal_windows"]:
        print(f"unequal windows: {line}", file=sys.stderr)
    return 1 if failed or worse else 0


if __name__ == "__main__":
    sys.exit(main())
