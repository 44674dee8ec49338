"""Count the Python calls of one warm modeled round trip, and time it.

    python3 tools/calls_per_op.py --workload pingpong-modeled --n 2000

The working tree's ``src`` and ``benchmark`` go first on the import path. The
workload is set up from seed 1, and a round trip is driven as
``benchmark/workloads.PingPong._run_modeled`` drives it: a launch at the origin,
a drain of the network's task queue, and the consumption of the agent's
completion, which must hold no error. After ``WARM`` round trips it prints:

- the Python calls per round trip, counted by ``cProfile`` (C functions
  included) over ``n`` round trips, rounded to a whole call. The count sums the
  profiler's own entries: ``pstats`` files every dataclass's generated
  ``__init__`` under one name and keeps one of their counts, so its
  ``total_calls`` leaves the others out
- the best of ``REPEATS`` unprofiled runs of ``n`` round trips, in µs per round
  trip on this host, unscaled

Only the two modeled ping-pong workloads are taken: over sockets the count
depends on thread timing.
"""

from __future__ import annotations

import argparse
import cProfile
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
MODELED = ("pingpong-modeled", "pingpong-modeled-4k-gzip")
WARM = 200  # round trips before anything is counted or timed
REPEATS = 7


def _workloads():
    """The working tree's ``benchmark/workloads.py``, over its ``src``."""
    for path in (ROOT / "src", ROOT / "benchmark"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads

    return workloads


def round_trips(setup) -> Callable[[int], None]:
    """A function that runs ``n`` round trips on ``setup``, a modeled ``PingPong``, each checked."""
    origin, network = setup.agencies[0], setup.network

    def run(n: int) -> None:
        for _ in range(n):
            agent_id = setup.inputs.agent_id()
            origin.launch(setup.template.copy(), setup.itinerary, agent_id=agent_id)
            network.run()
            error = setup._outcome(agent_id, 0)[1]
            if error is not None:
                raise RuntimeError(f"round trip failed: {error}")

    return run


def measure(workload: str, n: int) -> tuple[float, float]:
    """(Python calls per round trip, best µs per round trip) over ``n`` warm round trips."""
    if workload not in MODELED:
        raise ValueError(f"{workload!r} is not one of {MODELED}")
    workloads = _workloads()
    setup = workloads.WORKLOADS[workload](workloads.Inputs(workload, 1))()
    try:
        run = round_trips(setup)
        run(WARM)
        profile = cProfile.Profile()
        profile.runcall(run, n)
        calls = sum(entry.callcount for entry in profile.getstats()) / n
        best_ns = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter_ns()
            run(n)
            best_ns = min(best_ns, time.perf_counter_ns() - start)
    finally:
        setup.close()
    return calls, best_ns / n / 1000


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=MODELED)
    parser.add_argument("--n", type=int, default=2000, help="round trips counted and timed")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("--n must be at least 1")
    calls, us = measure(args.workload, args.n)
    print(f"{args.workload}: {round(calls)} calls per warm round trip (cProfile, {args.n} round trips)")
    print(f"{args.workload}: {us:.1f} us per warm round trip, unscaled "
          f"(best of {REPEATS} x {args.n})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
